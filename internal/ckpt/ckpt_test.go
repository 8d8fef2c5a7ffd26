package ckpt

import (
	"encoding/json"
	"reflect"
	"testing"

	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/workload"
)

func testSnapshot(t testing.TB) (*core.Snapshot, *core.Result) {
	t.Helper()
	p, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	art, err := prog.NewArtifact(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewFromArtifact(core.DefaultConfig(), art)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(3_000)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, res
}

func TestStoreRoundTrip(t *testing.T) {
	snap, res := testSnapshot(t)

	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			var s *Store
			var err error
			if disk {
				s, err = OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStore()
			}
			if _, ok := s.Snapshot("k1"); ok {
				t.Fatal("empty store reported a snapshot hit")
			}
			if err := s.PutSnapshot("k1", snap); err != nil {
				t.Fatal(err)
			}
			if err := s.PutResult("k2", res); err != nil {
				t.Fatal(err)
			}

			stores := []*Store{s}
			if disk {
				// A second store over the same directory must see the
				// persisted entries (and round-trip them through JSON).
				s2, err := OpenStore(s.Dir())
				if err != nil {
					t.Fatal(err)
				}
				stores = append(stores, s2)
			}
			for _, st := range stores {
				got, ok := st.Snapshot("k1")
				if !ok {
					t.Fatal("stored snapshot missing")
				}
				gb, _ := json.Marshal(got)
				wb, _ := json.Marshal(snap)
				if string(gb) != string(wb) {
					t.Error("snapshot did not round-trip byte-identically")
				}
				gotRes, ok := st.Result("k2")
				if !ok {
					t.Fatal("stored result missing")
				}
				rb, _ := json.Marshal(gotRes)
				rw, _ := json.Marshal(res)
				if string(rb) != string(rw) {
					t.Error("result did not round-trip byte-identically")
				}
				// Served results must not alias each other.
				again, _ := st.Result("k2")
				if again == gotRes {
					t.Error("Result returned the same pointer twice")
				}
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap, res := testSnapshot(t)
	for _, e := range []*Envelope{
		{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: snap},
		{Format: FormatVersion, Version: Version, Kind: KindResult, Key: "b", Result: res},
	} {
		data, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind != e.Kind || back.Key != e.Key {
			t.Errorf("kind/key round-trip: got %s/%s, want %s/%s", back.Kind, back.Key, e.Kind, e.Key)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	snap, _ := testSnapshot(t)
	good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"not json":      []byte("{"),
		"wrong format":  []byte(`{"format":99,"version":"` + Version + `","kind":"snapshot","key":"a"}`),
		"wrong version": []byte(`{"format":1,"version":"ckpt-0","kind":"snapshot","key":"a"}`),
		"no key":        []byte(`{"format":1,"version":"` + Version + `","kind":"snapshot"}`),
		"bad kind":      []byte(`{"format":1,"version":"` + Version + `","kind":"zap","key":"a"}`),
		"nil snap":      []byte(`{"format":1,"version":"` + Version + `","kind":"snapshot","key":"a"}`),
		"nil result":    []byte(`{"format":1,"version":"` + Version + `","kind":"result","key":"a"}`),
		"truncated":     good[:len(good)/2],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
	if _, err := Decode(good); err != nil {
		t.Errorf("Decode rejected a valid envelope: %v", err)
	}
}

func TestMilestones(t *testing.T) {
	cases := []struct {
		budget int64
		want   []int64
	}{
		{500, []int64{500}},
		{1024, []int64{1024}},
		{3000, []int64{1024, 2048, 3000}},
		{8000, []int64{1024, 2048, 4096, 8000}},
		{50000, []int64{1024, 2048, 4096, 8192, 16384, 32768, 50000}},
	}
	for _, c := range cases {
		if got := Milestones(c.budget); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Milestones(%d) = %v, want %v", c.budget, got, c.want)
		}
	}
}
