package rescache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type payload struct {
	Name   string
	Cycles int64
	Hist   []int64
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t)
	in := payload{Name: "espresso", Cycles: 123456, Hist: []int64{1, 0, 7}}
	key := Fingerprint(in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Get(key, &out) {
		t.Fatal("entry not found after Put")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: put %+v, got %+v", in, out)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 hit", st)
	}
}

func TestMiss(t *testing.T) {
	s := testStore(t)
	var out payload
	if s.Get(Fingerprint("absent"), &out) {
		t.Error("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want a clean miss", st)
	}
}

// segmentFile locates the single segment file in the store directory.
func segmentFile(t *testing.T, s *Store) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(s.Dir(), "*"+segExt))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment in %s, found %v (err %v)", s.Dir(), segs, err)
	}
	return segs[0]
}

// record returns the offset and length of key's current record.
func record(t *testing.T, s *Store, key string) (int64, int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.index[key]
	if !ok {
		t.Fatalf("key %s is not indexed", key)
	}
	return l.off, int(l.n)
}

// patch overwrites the segment bytes at off with b.
func patch(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	r, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCorruptEntryIsAMissAndRemoved: a damaged record is a miss plus one
// error tick, is never served again (by this Store or after a reopen), and
// is healed by the next Put.
func TestCorruptEntryIsAMissAndRemoved(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, path string, off int64, n int){
		"truncated": func(t *testing.T, path string, off int64, n int) {
			if err := os.Truncate(path, off+int64(n)/2); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, path string, off int64, n int) {
			patch(t, path, off, bytes.Repeat([]byte("\x00\x01not a record"), n)[:n])
		},
		"wrongKey": func(t *testing.T, path string, off int64, n int) {
			patch(t, path, off+headerLen, []byte(Fingerprint("deadbeef")))
		},
		"flippedValue": func(t *testing.T, path string, off int64, n int) {
			patch(t, path, off+int64(n)-1, []byte{0xff})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			in := payload{Name: "x", Cycles: 1}
			key := Fingerprint(in)
			if err := s.Put(key, in); err != nil {
				t.Fatal(err)
			}
			off, n := record(t, s, key)
			damage(t, segmentFile(t, s), off, n)
			var out payload
			if s.Get(key, &out) {
				t.Fatal("corrupt entry served as a hit")
			}
			st := s.Stats()
			if st.Errors != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 error + 1 miss", st)
			}
			if s.Get(key, &out) || s.Stats().Errors != 1 {
				t.Errorf("corrupt entry was served or re-read: stats %+v", s.Stats())
			}
			if reopen(t, s).Get(key, &out) {
				t.Error("corrupt entry served after a reopen")
			}
			// The slot heals: a fresh Put then hits, here and after a reopen.
			if err := s.Put(key, in); err != nil {
				t.Fatal(err)
			}
			if !s.Get(key, &out) || !reflect.DeepEqual(out, in) {
				t.Error("healed slot did not round-trip")
			}
			out = payload{}
			if !reopen(t, s).Get(key, &out) || !reflect.DeepEqual(out, in) {
				t.Error("healed slot did not round-trip after a reopen")
			}
		})
	}
}

// TestFormatVersionMismatchIsAQuietMiss: a record of another format
// version is a miss without an error tick, before and after a reopen.
func TestFormatVersionMismatchIsAQuietMiss(t *testing.T) {
	s := testStore(t)
	in := payload{Name: "x"}
	key := Fingerprint(in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	off, _ := record(t, s, key)
	patch(t, segmentFile(t, s), off+4, []byte{FormatVersion + 97})
	var out payload
	if s.Get(key, &out) {
		t.Fatal("stale-format entry served as a hit")
	}
	if st := s.Stats(); st.Errors != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want a quiet miss (no error)", st)
	}
	r := reopen(t, s)
	if r.Get(key, &out) {
		t.Fatal("stale-format entry served after a reopen")
	}
	if st := r.Stats(); st.Errors != 0 || st.Misses != 1 {
		t.Errorf("reopened stats = %+v, want a quiet miss (no error)", st)
	}
}

func TestValueTypeMismatchIsCorruption(t *testing.T) {
	s := testStore(t)
	key := Fingerprint("k")
	if err := s.Put(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var wrong []string // cannot decode an object into a slice
	if s.Get(key, &wrong) {
		t.Fatal("mismatched value type served as a hit")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 error", st)
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	// A path under a regular file can never become a directory.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub")); err == nil {
		t.Error("Open under a regular file succeeded")
	}
}

// TestNoStrayTempFiles: the directory holds segments only — no probe or
// temporary files — and one segment per Store that wrote.
func TestNoStrayTempFiles(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 10; i++ {
		in := payload{Cycles: int64(i)}
		if err := s.Put(Fingerprint(in), in); err != nil {
			t.Fatal(err)
		}
	}
	r := reopen(t, s)
	if err := r.Put(Fingerprint("second writer"), payload{}); err != nil {
		t.Fatal(err)
	}
	var segs int
	err := filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		switch {
		case err != nil || path == s.Dir():
		case info.IsDir() || filepath.Ext(path) != segExt:
			t.Errorf("stray non-segment file %s", path)
		default:
			segs++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs != 2 {
		t.Errorf("%d segments for 2 writing Stores", segs)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := testStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := payload{Name: "shared", Cycles: 42} // same key from all goroutines
				key := Fingerprint(in)
				if err := s.Put(key, in); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				var out payload
				if s.Get(key, &out) && !reflect.DeepEqual(in, out) {
					t.Errorf("torn read: %+v", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentWritersSameKeyAtomic is the stronger atomicity check: many
// writers race distinct large payloads onto the same key while readers poll.
// Because a record is indexed only after its single write returns, a reader
// must only ever observe exactly one writer's complete payload — a Hist whose every word matches its
// Cycles stamp — never an interleaving of two, and never a corruption tick.
func TestConcurrentWritersSameKeyAtomic(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	const (
		writers = 8
		rounds  = 25
		words   = 4096 // ~32 KB payloads: large enough to span many pages
	)
	key := Fingerprint("contended-slot")

	intact := func(p payload) bool {
		if len(p.Hist) != words {
			return false
		}
		for _, w := range p.Hist {
			if w != p.Cycles {
				return false
			}
		}
		return true
	}

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			in := payload{Name: "writer", Cycles: int64(g)}
			in.Hist = make([]int64, words)
			for i := range in.Hist {
				in.Hist[i] = in.Cycles
			}
			for i := 0; i < rounds; i++ {
				if err := s.Put(key, in); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var out payload
				if s.Get(key, &out) && !intact(out) {
					t.Errorf("torn read: writer %d payload with %d/%d intact words",
						out.Cycles, countEq(out.Hist, out.Cycles), words)
					return
				}
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("corruption ticks during concurrent same-key writes: %+v", st)
	}
	var final payload
	if !s.Get(key, &final) || !intact(final) {
		t.Errorf("final entry missing or torn: %+v", final.Cycles)
	}
}

func countEq(h []int64, v int64) int {
	n := 0
	for _, w := range h {
		if w == v {
			n++
		}
	}
	return n
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	type spec struct {
		Bench  string
		Width  int
		Budget int64
	}
	a := Fingerprint(spec{"compress", 4, 1000})
	b := Fingerprint(spec{"compress", 4, 1000})
	if a != b {
		t.Error("identical specs fingerprint differently")
	}
	if a == Fingerprint(spec{"compress", 8, 1000}) {
		t.Error("different widths share a fingerprint")
	}
	if a == Fingerprint(spec{"compress", 4, 2000}) {
		t.Error("different budgets share a fingerprint")
	}
	if len(a) != 64 {
		t.Errorf("fingerprint length %d, want 64 hex chars", len(a))
	}
}
