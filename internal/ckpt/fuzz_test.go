package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode: Decode must be total — any byte sequence either
// parses into a fully validated envelope or returns an error; it may never
// panic. A hostile or bit-rotted checkpoint file must read as a cache miss,
// not a crash, because the store heals misses by re-simulating.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"version":"ckpt-2","kind":"snapshot","key":"a"}`))
	f.Add([]byte(`{"format":1,"version":"ckpt-2","kind":"result","key":"a","result":{}}`))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	// A genuine envelope as the structured seed, so the engine mutates from
	// a deep valid snapshot instead of only shallow JSON.
	snap, res := testSnapshot(f)
	if good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "seed", Snap: snap}); err == nil {
		f.Add(good)
	}
	if good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindResult, Key: "seed", Result: res}); err == nil {
		f.Add(good)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err == nil && e.Validate() != nil {
			t.Fatal("Decode returned nil error for an envelope that fails Validate")
		}
	})
}
