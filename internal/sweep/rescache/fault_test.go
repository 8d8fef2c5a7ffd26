package rescache

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"regsim/internal/core"
)

// TestTornTailRecovery: a segment cut in the middle of its last record (a
// writer that crashed mid-append) keeps every earlier record, loses the
// torn one, counts it once, and a Put heals it across a reopen.
func TestTornTailRecovery(t *testing.T) {
	s := testStore(t)
	var keys []string
	for i := 0; i < 3; i++ {
		in := payload{Name: "torn", Cycles: int64(i), Hist: []int64{int64(i), 7}}
		keys = append(keys, Fingerprint(in))
		if err := s.Put(keys[i], in); err != nil {
			t.Fatal(err)
		}
	}
	off, n := record(t, s, keys[2])
	if err := os.Truncate(segmentFile(t, s), off+int64(n)-3); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, s)
	if st := r.Stats(); st.Errors != 1 {
		t.Errorf("stats after reopen = %+v, want the torn tail counted once", st)
	}
	var out payload
	for i := 0; i < 2; i++ {
		if !r.Get(keys[i], &out) || out.Cycles != int64(i) {
			t.Errorf("record %d before the torn tail lost: %+v", i, out)
		}
	}
	if r.Get(keys[2], &out) {
		t.Fatal("torn record served")
	}
	healed := payload{Name: "torn", Cycles: 2, Hist: []int64{2, 7}}
	if err := r.Put(keys[2], healed); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, s)
	for i, key := range keys {
		if !r2.Get(key, &out) || out.Cycles != int64(i) {
			t.Errorf("record %d after healing: %+v", i, out)
		}
	}
	if st := r2.Stats(); st.Errors != 1 || st.Hits != 3 {
		t.Errorf("stats after healing = %+v, want 3 hits and the old torn tail counted once", st)
	}
}

// TestRecordsLargerThanTheScanWindow: Open indexes records larger than its
// read window, and the records around them, under their own keys.
func TestRecordsLargerThanTheScanWindow(t *testing.T) {
	s := testStore(t)
	var want []payload
	for i, words := range []int{10, 40_000, 3, 70_000, 5} {
		p := payload{Name: "big", Cycles: int64(i), Hist: make([]int64, words)}
		for j := range p.Hist {
			p.Hist[j] = int64(i + j)
		}
		want = append(want, p)
		if err := s.Put(Fingerprint(i), p); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(segmentFile(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != s.Stats().Bytes {
		t.Errorf("Stats().Bytes = %d, segment holds %d bytes", s.Stats().Bytes, fi.Size())
	}
	r := reopen(t, s)
	for i, p := range want {
		var out payload
		if !r.Get(Fingerprint(i), &out) || !reflect.DeepEqual(out, p) {
			t.Errorf("record %d (%d words) lost or altered after reopen", i, len(p.Hist))
		}
	}
	if st := r.Stats(); st.Errors != 0 || st.Bytes != s.Stats().Bytes {
		t.Errorf("reopened stats %+v, writer %+v: want 0 errors and equal sizes", st, s.Stats())
	}
}

// helperEnv names the store directory a re-executed test binary writes to.
const helperEnv = "RESCACHE_TEST_WRITER_DIR"

// writerPayload is the value helper processes store under key i: both
// writers store the same value, as two processes computing one spec do.
func writerPayload(i int) payload {
	p := payload{Name: "proc", Cycles: int64(i), Hist: make([]int64, 64)}
	for j := range p.Hist {
		p.Hist[j] = int64(i * j)
	}
	return p
}

// TestWriterProcess is not a test on its own: TestTwoProcessesSameKeys
// re-executes the test binary to run it as a concurrent writer process.
func TestWriterProcess(t *testing.T) {
	dir := os.Getenv(helperEnv)
	if dir == "" {
		t.Skip("helper process only")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.Put(Fingerprint(i), writerPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTwoProcessesSameKeys: two processes appending the same keys to one
// directory at once leave a store that a fresh Open reads whole.
func TestTwoProcessesSameKeys(t *testing.T) {
	dir := t.TempDir()
	var cmds []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWriterProcess$")
		cmd.Env = append(os.Environ(), helperEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	for _, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer process: %v", err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt)); len(segs) != 2 {
		t.Errorf("%d segments for 2 writer processes", len(segs))
	}
	for i := 0; i < 300; i++ {
		var out payload
		if !s.Get(Fingerprint(i), &out) || !reflect.DeepEqual(out, writerPayload(i)) {
			t.Fatalf("key %d lost or altered: %+v", i, out)
		}
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("stats = %+v, want 0 errors", st)
	}
}

// TestOpenReadOnlyDir: a directory the process cannot write fails Open.
func TestOpenReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root writes to read-only directories")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := Open(dir); err == nil {
		t.Error("Open succeeded on a read-only directory")
	}
}

// FuzzSegmentScan: Open over arbitrary segment bytes never panics or fails,
// and every key it indexes either misses or decodes, the same way twice.
func FuzzSegmentScan(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	res := &core.Result{Cycles: 9, Committed: 7, Checksum: 3}
	res.Ports[0].Reads = []int64{1, 2, 3}
	res.Live[1].Cum[2] = []int64{}
	for i, v := range []any{res, payload{Name: "json", Hist: []int64{4}}, res} {
		if err := s.Put(strconv.Itoa(i), v); err != nil {
			f.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(seg[:headerLen+3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var keys []string
		for k := range s.index {
			keys = append(keys, k)
		}
		for _, k := range keys {
			var a, b core.Result
			hitA := s.Get(k, &a)
			hitB := s.Get(k, &b)
			if hitA && (!hitB || !reflect.DeepEqual(a, b)) {
				t.Fatalf("key %q served differently on a second Get", k)
			}
			if !hitA && hitB {
				t.Fatalf("key %q missed, then hit", k)
			}
		}
		st := s.Stats()
		if st.Hits+st.Misses != int64(2*len(keys)) {
			t.Fatalf("stats %+v do not account for %d Gets", st, 2*len(keys))
		}
		if st.Bytes > int64(len(data)) {
			t.Fatalf("Bytes %d exceeds the %d-byte segment", st.Bytes, len(data))
		}
	})
}
