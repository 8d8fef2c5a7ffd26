package exper

import (
	"reflect"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// paperSweepSpecs lists the specs Table 1, Figure 3 and Figure 6 simulate.
func paperSweepSpecs() []Spec {
	var specs []Spec
	for _, bench := range workload.Names() {
		for _, w := range Widths {
			specs = append(specs, Spec{Bench: bench, Width: w, Queue: CostEffectiveQueue(w),
				Regs: MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree})
		}
	}
	for _, w := range Widths {
		for _, q := range QueueSizes {
			for _, bench := range workload.Names() {
				specs = append(specs, measureSpec(bench, w, q))
			}
		}
	}
	for _, w := range Widths {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			for _, regs := range RegSizes {
				for _, bench := range workload.Names() {
					specs = append(specs, Spec{Bench: bench, Width: w, Queue: CostEffectiveQueue(w),
						Regs: regs, Model: model, Cache: cache.LockupFree})
				}
			}
		}
	}
	return specs
}

// directRun simulates spec on a fresh machine, outside any suite.
func directRun(t *testing.T, arts map[string]*prog.Artifact, spec Spec) (*core.Result, *core.Machine) {
	t.Helper()
	art, ok := arts[spec.Bench]
	if !ok {
		p, err := workload.Build(spec.Bench)
		if err != nil {
			t.Fatal(err)
		}
		if art, err = prog.NewArtifact(p); err != nil {
			t.Fatal(err)
		}
		arts[spec.Bench] = art
	}
	m, err := core.NewFromArtifact(spec.Config(), art)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(spec.Budget)
	if err != nil {
		t.Fatalf("%s: %v", goldenKey(spec), err)
	}
	return res, m
}

// TestPressureFreeSharingExact regenerates Table 1, Figure 3 and Figure 6
// through one suite, as cmd/paper does, and requires that the pressure-free
// index answered some specs and that every spec's Result — shared or
// simulated — equals a cold run of that spec on its own machine.
func TestPressureFreeSharingExact(t *testing.T) {
	const budget = 8_000
	s := NewSuite(budget)
	s.Jobs = 2
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig3(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	st := s.SweepStats()
	t.Log(st)
	if st.Shared == 0 {
		t.Fatalf("the pressure-free index answered nothing: %v", st)
	}
	specs := paperSweepSpecs()
	if got := st.Runs + st.Shared; got != int64(len(specs)) {
		t.Errorf("%d simulated + %d shared, want %d specs", st.Runs, st.Shared, len(specs))
	}
	arts := map[string]*prog.Artifact{}
	for _, spec := range specs {
		got, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Budget = budget
		want, _ := directRun(t, arts, spec)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: suite result differs from a cold run\n  got  %+v\n  want %+v", goldenKey(spec), got, want)
		}
	}
}

// TestShareRule pins the rule's refusals one condition at a time, against
// sources recorded from real runs.
func TestShareRule(t *testing.T) {
	const budget = 4_000
	arts := map[string]*prog.Artifact{}
	base := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: MeasureRegs,
		Model: rename.Precise, Cache: cache.LockupFree, Budget: budget}
	index := func(srcs ...Spec) *shareIndex {
		x := &shareIndex{}
		for _, spec := range srcs {
			res, m := directRun(t, arts, spec)
			x.add(spec, res, m)
		}
		x.publish()
		return x
	}
	with := func(f func(*Spec)) Spec {
		spec := base
		f(&spec)
		return spec
	}
	_, m := directRun(t, arts, base)
	if !m.PressureFreeSoFar() {
		t.Fatal("the 2048-register source is not pressure-free")
	}
	wm := m.RegWatermarks()
	edge := max(wm[0], wm[1]) + 2
	if edge > 256 {
		t.Fatalf("watermark %v leaves 256 registers unservable; the key refusals below would prove nothing", wm)
	}
	pressured := with(func(s *Spec) { s.Regs = 32 })
	if _, m := directRun(t, arts, pressured); m.PressureFreeSoFar() {
		t.Fatal("the 32-register source is pressure-free; pick a smaller file")
	}
	imprecise := with(func(s *Spec) { s.Model = rename.Imprecise })

	for _, tc := range []struct {
		name   string
		idx    *shareIndex
		target Spec
		serve  bool
	}{
		{"precise source, regs = watermark+2", index(base), with(func(s *Spec) { s.Regs = edge }), true},
		{"precise source, imprecise target", index(base), with(func(s *Spec) { s.Regs = edge; s.Model = rename.Imprecise }), true},
		{"regs = watermark+1", index(base), with(func(s *Spec) { s.Regs = edge - 1 }), false},
		{"pressured source", index(pressured), with(func(s *Spec) { s.Regs = 256 }), false},
		{"imprecise source, precise target", index(imprecise), with(func(s *Spec) { s.Regs = 256 }), false},
		{"imprecise source, imprecise target", index(imprecise), with(func(s *Spec) { s.Regs = 256; s.Model = rename.Imprecise }), true},
		{"unknown target model", index(base), with(func(s *Spec) { s.Regs = 256; s.Model = rename.Imprecise + 1 }), false},
		{"track target", index(base), with(func(s *Spec) { s.Track = true }), false},
		{"tracked source", index(with(func(s *Spec) { s.Track = true })), with(func(s *Spec) { s.Regs = 256 }), false},
		{"different queue", index(base), with(func(s *Spec) { s.Regs = 256; s.Queue = 64 }), false},
		{"different cache", index(base), with(func(s *Spec) { s.Regs = 256; s.Cache = cache.Perfect }), false},
		{"different budget", index(base), with(func(s *Spec) { s.Regs = 256; s.Budget = 2 * budget }), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, ok := tc.idx.lookup(tc.target)
			if ok != tc.serve {
				t.Fatalf("served = %v, want %v", ok, tc.serve)
			}
			if ok {
				want, _ := directRun(t, arts, tc.target)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shared result differs from the target's cold run\n  got  %+v\n  want %+v", got, want)
				}
			}
		})
	}
}

// TestSharePublishOrder: the source kept per key and model, and so the one a
// share span names, does not depend on the order runs finished in.
func TestSharePublishOrder(t *testing.T) {
	key := shareKeyOf(Spec{Bench: "compress", Width: 4, Queue: 32, Cache: cache.LockupFree, Budget: 4_000})
	src := func(regs, watermark int) *shareSource {
		return &shareSource{key: key, res: &core.Result{}, regs: regs, model: rename.Precise, watermark: watermark}
	}
	target := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 96, Model: rename.Imprecise,
		Cache: cache.LockupFree, Budget: 4_000}
	for _, tc := range []struct {
		name     string
		srcs     []*shareSource
		wantRegs int
	}{
		{"lower watermark wins", []*shareSource{src(128, 70), src(2048, 60)}, 2048},
		{"lower watermark wins, reversed", []*shareSource{src(2048, 60), src(128, 70)}, 2048},
		{"tie goes to lower regs", []*shareSource{src(2048, 60), src(128, 60)}, 128},
		{"tie goes to lower regs, reversed", []*shareSource{src(128, 60), src(2048, 60)}, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := &shareIndex{pending: tc.srcs}
			x.publish()
			_, got, ok := x.lookup(target)
			if !ok || got.regs != tc.wantRegs {
				t.Fatalf("served = %v from regs %v, want regs %d", ok, got, tc.wantRegs)
			}
		})
	}
}
