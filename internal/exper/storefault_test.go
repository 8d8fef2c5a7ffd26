//go:build unix

package exper

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"syscall"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
)

// fullDiskEnv names the store directory of the re-executed out-of-space
// helper process.
const fullDiskEnv = "EXPER_TEST_FULL_DISK_DIR"

// fullDiskLimit caps the helper's file size: room for the untracked
// results' records, not for the tracked result's histograms.
const fullDiskLimit = 4 << 10

// fullDiskSpecs are the helper's sweep: untracked specs whose records fit
// under fullDiskLimit, then a tracked one whose record does not.
func fullDiskSpecs() []Spec {
	return []Spec{
		{Bench: "ora", Width: 4, Queue: 32, Regs: 64, Model: rename.Precise, Cache: cache.LockupFree},
		{Bench: "compress", Width: 4, Queue: 32, Regs: 48, Model: rename.Imprecise, Cache: cache.LockupFree},
		{Bench: "espresso", Width: 8, Queue: 64, Regs: 96, Model: rename.Precise, Cache: cache.Lockup},
		measureSpec("compress", 4, 32),
	}
}

// TestFullDiskProcess is not a test on its own: TestResultStoreOutOfSpace
// re-executes the test binary to run it with a lowered file-size limit.
func TestFullDiskProcess(t *testing.T) {
	dir := os.Getenv(fullDiskEnv)
	if dir == "" {
		t.Skip("helper process only")
	}
	// Past the limit a write fails with EFBIG instead of killing the
	// process with SIGXFSZ, as a full disk fails it with ENOSPC.
	signal.Ignore(syscall.SIGXFSZ)
	lim := syscall.Rlimit{Cur: fullDiskLimit, Max: fullDiskLimit}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	store, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(testBudget)
	s.Cache = store
	var out []*core.Result
	for _, spec := range fullDiskSpecs() {
		res, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	// The Suite swallowed the failed fill; the store itself reports it.
	if err := store.Put("too-big", out[len(out)-1]); err == nil {
		t.Error("Put past the file-size limit succeeded")
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		t.Fatal(err)
	}
}

// TestResultStoreOutOfSpace: a process whose store runs out of space still
// returns correct results, its failed Puts leave no partial records, and a
// reopen serves exactly the records that fit.
func TestResultStoreOutOfSpace(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFullDiskProcess$")
	cmd.Env = append(os.Environ(), fullDiskEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("full-disk process: %v\n%s", err, stdout)
	}
	// The helper's stdout is its JSON line followed by the test framework's
	// PASS line.
	var got []*core.Result
	if err := json.NewDecoder(bytes.NewReader(stdout)).Decode(&got); err != nil {
		t.Fatalf("decode helper output: %v\n%s", err, stdout)
	}
	specs := fullDiskSpecs()
	ref := NewSuite(testBudget)
	for i, spec := range specs {
		want, err := ref.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(got) || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("full-disk process returned a wrong result for %v", spec)
		}
	}

	store, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(testBudget)
	s.Cache = store
	for _, spec := range specs {
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	st := s.SweepStats()
	if st.CacheErrors != 0 || st.CacheHits != int64(len(specs)-1) || st.Runs != 1 {
		t.Errorf("reopened store: %+v, want %d intact hits, 1 run (the record that did not fit), 0 errors",
			st, len(specs)-1)
	}
}
