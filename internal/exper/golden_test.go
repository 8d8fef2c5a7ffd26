package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/rename"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/scheduler_goldens.json from the current simulator")

// goldenVersion is the core behavioural revision the committed goldens were
// generated under. The scheduler rewrite contract is bit-for-bit
// preservation: as long as results are byte-identical, core.Version must NOT
// be bumped (persistent cache entries stay valid). A legitimate behavioural
// change bumps core.Version and regenerates the goldens in the same commit.
const goldenVersion = "core-2"

const goldenBudget = 8_000

// goldenSpecs is the fixed cross-product pinned by the goldens: all widths ×
// {8,32,128,256} dispatch-queue entries × all cache organisations × both
// exception models, over one integer-heavy and one FP-heavy workload, plus
// tracked (live-register histogram) variants that pin the Figure 3-5/8
// measurement machinery.
func goldenSpecs() []Spec {
	var specs []Spec
	for _, bench := range []string{"compress", "tomcatv"} {
		for _, width := range []int{4, 8} {
			for _, queue := range []int{8, 32, 128, 256} {
				for _, kind := range []cache.Kind{cache.Perfect, cache.Lockup, cache.LockupFree} {
					for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
						specs = append(specs, Spec{
							Bench: bench, Width: width, Queue: queue, Regs: 80,
							Model: model, Cache: kind,
						})
					}
				}
			}
		}
		// Tracked measurement runs (large file, passive classification).
		specs = append(specs,
			Spec{Bench: bench, Width: 4, Queue: 32, Regs: MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Track: true},
			Spec{Bench: bench, Width: 8, Queue: 256, Regs: MeasureRegs, Model: rename.Imprecise, Cache: cache.LockupFree, Track: true},
		)
	}
	return specs
}

func goldenKey(spec Spec) string {
	return fmt.Sprintf("%s/w%d/q%d/r%d/%s/%s/track=%v",
		spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache, spec.Track)
}

// goldenFingerprint hashes the canonical JSON encoding of a Result — the
// same encoding the persistent result cache stores — so "byte-identical"
// here means exactly what cache validity requires.
func goldenFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

const goldenPath = "testdata/scheduler_goldens.json"

// TestSchedulerGoldens runs the pinned spec cross-product and compares every
// Result's JSON fingerprint against the committed goldens. Any scheduler or
// rename change that perturbs a single statistic in a single configuration
// fails here with the exact spec named, instead of drifting silently.
//
// Regenerate (only together with a core.Version bump, unless the change is
// meant to be bit-for-bit neutral) with:
//
//	go test ./internal/exper -run TestSchedulerGoldens -update-golden
func TestSchedulerGoldens(t *testing.T) {
	if core.Version != goldenVersion {
		if *updateGolden {
			t.Fatalf("update goldenVersion to %q alongside -update-golden", core.Version)
		}
		t.Fatalf("core.Version = %q but goldens were generated under %q; regenerate them with -update-golden in the same change",
			core.Version, goldenVersion)
	}

	specs := goldenSpecs()
	s := NewSuite(goldenBudget)
	got := make(map[string]string, len(specs))
	for _, spec := range specs {
		res, err := s.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", goldenKey(spec), err)
		}
		got[goldenKey(spec)] = goldenFingerprint(t, res)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), goldenPath)
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("spec cross-product has %d entries but goldens have %d; regenerate with -update-golden", len(got), len(want))
	}
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: golden present but spec no longer generated", k)
			continue
		}
		if g != want[k] {
			t.Errorf("%s: result fingerprint drifted\n  got  %s\n  want %s", k, g, want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: no golden for this spec; regenerate with -update-golden", k)
		}
	}
}
