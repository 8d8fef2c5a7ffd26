package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// resultBinaryVersion is the first byte of every binary-encoded Result.
// Bump it whenever the field list below changes shape.
const resultBinaryVersion = 1

// The binary codec is the persistent result cache's value format. JSON stays
// the wire and golden format: encoding/json ignores these methods.
//
// Layout, after the version byte:
//
//	counters   zigzag varints, in the order of (*Result).counters
//	Halted     one byte, 0 or 1
//	Checksum   8 bytes, little endian
//	histograms in the order of (*Result).hists; each is a uvarint header
//	           (0 = nil slice, n+1 = n elements) then n zigzag varints
//
// Decoding checks every length against the bytes that remain and rejects
// trailing bytes, so truncated or corrupt input is an error, never a panic
// or an oversized allocation.

// counters lists every int64 scalar of the Result, in encoding order.
func (r *Result) counters() [24]*int64 {
	return [24]*int64{
		&r.Cycles, &r.Committed, &r.Issued,
		&r.IssuedLoads, &r.IssuedStores, &r.IssuedCondBr,
		&r.CommittedLoads, &r.CommittedCondBr,
		&r.LoadMisses, &r.ForwardedLoads, &r.Mispredicts,
		&r.NoFreeRegCycles, &r.DispatchRegStalls, &r.DispatchQueueFullStalls, &r.WriteBufferStalls,
		&r.DCache.LoadAccesses, &r.DCache.LoadMisses, &r.DCache.StoreProbes, &r.DCache.StoreHits,
		&r.DCache.FillsStarted, &r.DCache.FillsMerged, &r.DCache.FillsDropped,
		&r.ICacheAccesses, &r.ICacheMisses,
	}
}

// hists lists every histogram slice of the Result, in encoding order.
func (r *Result) hists() [12]*[]int64 {
	var h [12]*[]int64
	i := 0
	for f := range r.Live {
		for c := range r.Live[f].Cum {
			h[i] = &r.Live[f].Cum[c]
			i++
		}
	}
	for f := range r.Ports {
		h[i], h[i+1] = &r.Ports[f].Reads, &r.Ports[f].Writes
		i += 2
	}
	return h
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func uvarintLen(x uint64) int { return max(1, (bits.Len64(x)+6)/7) }

// binarySize is the exact length of r's binary encoding, so the encoder
// allocates once.
func (r *Result) binarySize() int {
	n := 1 + 1 + 8
	for _, p := range r.counters() {
		n += uvarintLen(zigzag(*p))
	}
	for _, h := range r.hists() {
		if *h == nil {
			n++
			continue
		}
		n += uvarintLen(uint64(len(*h)) + 1)
		for _, v := range *h {
			n += uvarintLen(zigzag(v))
		}
	}
	return n
}

// AppendBinary appends the binary encoding of r to b.
func (r *Result) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, r.binarySize())
	b = append(b, resultBinaryVersion)
	for _, p := range r.counters() {
		b = binary.AppendVarint(b, *p)
	}
	halted := byte(0)
	if r.Halted {
		halted = 1
	}
	b = append(b, halted)
	b = binary.LittleEndian.AppendUint64(b, r.Checksum)
	for _, h := range r.hists() {
		if *h == nil {
			b = append(b, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(*h))+1)
		for _, v := range *h {
			b = binary.AppendVarint(b, v)
		}
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *Result) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

var errResultBinary = errors.New("core: malformed binary Result")

// UnmarshalBinary implements encoding.BinaryUnmarshaler. On error r is left
// unchanged.
func (r *Result) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != resultBinaryVersion {
		if len(data) == 0 {
			return errResultBinary
		}
		return fmt.Errorf("core: binary Result version %d, want %d", data[0], resultBinaryVersion)
	}
	d := data[1:]
	varint := func() (int64, bool) {
		v, n := binary.Varint(d)
		if n <= 0 {
			return 0, false
		}
		d = d[n:]
		return v, true
	}
	var out Result
	for _, p := range out.counters() {
		v, ok := varint()
		if !ok {
			return errResultBinary
		}
		*p = v
	}
	if len(d) < 9 || d[0] > 1 {
		return errResultBinary
	}
	out.Halted = d[0] == 1
	out.Checksum = binary.LittleEndian.Uint64(d[1:9])
	d = d[9:]
	for _, h := range out.hists() {
		hdr, n := binary.Uvarint(d)
		if n <= 0 {
			return errResultBinary
		}
		d = d[n:]
		if hdr == 0 {
			continue
		}
		// Every element takes at least one byte.
		if hdr-1 > uint64(len(d)) {
			return errResultBinary
		}
		s := make([]int64, hdr-1)
		for i := range s {
			v, ok := varint()
			if !ok {
				return errResultBinary
			}
			s[i] = v
		}
		*h = s
	}
	if len(d) != 0 {
		return errResultBinary
	}
	*r = out
	return nil
}
