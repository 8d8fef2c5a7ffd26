package core

import (
	"fmt"
	"reflect"
	"testing"
)

// fillDistinct sets every field reachable from v to a value no other field
// shares. Slice fields cycle through nil, empty and filled (by the running
// slice count plus shift), so both nil and empty histograms are exercised.
// A field kind the walk does not know is an error: the codec must be taught
// about it first.
func fillDistinct(v reflect.Value, next *int64, nslices *int, shift int) error {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := fillDistinct(v.Field(i), next, nslices, shift); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := fillDistinct(v.Index(i), next, nslices, shift); err != nil {
				return err
			}
		}
	case reflect.Slice:
		k := *nslices + shift
		*nslices++
		switch k % 3 {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), 2+k, 2+k)
			for i := 0; i < s.Len(); i++ {
				if err := fillDistinct(s.Index(i), next, nslices, shift); err != nil {
					return err
				}
			}
			v.Set(s)
		}
	case reflect.Int64:
		*next++
		// Alternate sign and spread magnitudes over every varint length.
		x := *next * 0x9e3779b9 << (*next % 29)
		if *next%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next) * 0x9e3779b97f4a7c15)
	case reflect.Bool:
		v.SetBool(true)
	default:
		return fmt.Errorf("Result holds a %s field the binary codec test cannot fill", v.Type())
	}
	return nil
}

// distinctResult returns a Result filled by fillDistinct.
func distinctResult(shift int) (Result, error) {
	var r Result
	var next int64
	var nslices int
	err := fillDistinct(reflect.ValueOf(&r).Elem(), &next, &nslices, shift)
	return r, err
}

// TestResultBinaryRoundTrip: every field of a Result survives the binary
// codec, with nil and empty histograms kept distinct. The Result is filled
// by reflection, so a field added later that the codec misses fails here.
func TestResultBinaryRoundTrip(t *testing.T) {
	for shift := 0; shift < 3; shift++ {
		in, err := distinctResult(shift)
		if err != nil {
			t.Fatal(err)
		}
		data, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != in.binarySize() {
			t.Errorf("shift %d: encoded %d bytes, binarySize says %d", shift, len(data), in.binarySize())
		}
		var out Result
		if err := out.UnmarshalBinary(data); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("shift %d: Result does not round-trip through the binary codec:\n got %+v\nwant %+v", shift, out, in)
		}
		// Every strict prefix is malformed, and so is a trailing byte.
		for n := 0; n < len(data); n++ {
			if err := new(Result).UnmarshalBinary(data[:n]); err == nil {
				t.Fatalf("shift %d: %d-byte prefix of a %d-byte encoding decoded", shift, n, len(data))
			}
		}
		if err := new(Result).UnmarshalBinary(append(data, 0)); err == nil {
			t.Errorf("shift %d: trailing byte accepted", shift)
		}
	}
}

// FuzzResultUnmarshalBinary: arbitrary bytes never panic the decoder, and
// whatever it accepts re-encodes to a value that decodes identically.
func FuzzResultUnmarshalBinary(f *testing.F) {
	for shift := 0; shift < 3; shift++ {
		r, err := distinctResult(shift)
		if err != nil {
			f.Fatal(err)
		}
		data, _ := r.MarshalBinary()
		f.Add(data)
	}
	data, _ := new(Result).MarshalBinary()
	f.Add(data)
	f.Add([]byte{resultBinaryVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if r.UnmarshalBinary(data) != nil {
			return
		}
		again, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoding of an accepted input does not decode: %v", err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("accepted input does not round-trip:\n got %+v\nwant %+v", back, r)
		}
	})
}
