package exper

import (
	"context"
	"sync"

	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/obs"
	"regsim/internal/rename"
)

// Pressure-free sharing: the soundness rule, stated once.
//
// A run is pressure-free when it never ticked a register-pressure counter:
// its free lists never ran dry and dispatch never stopped for a register
// (core.Machine.PressureFreeSoFar). Such a run's trajectory does not depend
// on its register-file size. Never-allocated registers form the front prefix
// of the LIFO free list, so any file that clears the run's allocation
// watermarks (core.Machine.RegWatermarks) by 2 hands out the same register
// sequence and reproduces the run bit for bit, Result included (see
// rename.RestoreUnit for the prefix invariant).
//
// The exception models differ only in when a retired mapping is freed. A
// pressure-free run never waits on a free, so the model changes nothing but
// the watermark, and the imprecise model's earlier frees keep its watermark
// at or below the precise model's. A precise source therefore proves both
// models; an imprecise source proves only imprecise targets.
//
// So a finished source run answers a target spec exactly when:
//
//   - both agree on everything but Regs and Model: bench, width, dispatch
//     queue, cache and commit budget (the shareKey);
//   - neither tracks live registers: a tracked Result carries histograms
//     sized by the register file;
//   - the source was simulated exactly (never sampled) and was pressure-free
//     end to end;
//   - target Regs ≥ max(source watermarks) + 2;
//   - the models match, or the source is precise.
//
// Suite.simulate applies the rule on every path, default and checkpointed:
// after a persistent-cache miss and before building a machine it asks the
// suite's index, and every exact untracked run that finishes pressure-free
// is recorded as a source. A recorded source becomes visible when the Run
// or RunAll call whose run produced it returns, so a batch is answered only
// from sources of calls that finished before it: which specs a sweep shares
// depends on its order of calls, never on how its runs were scheduled. The
// checkpoint store's shared milestones rest on the same argument, applied
// mid-run by core.Resume, which re-checks the watermark itself.

// shareKey is what a source and its targets must agree on.
type shareKey struct {
	bench        string
	width, queue int
	cache        cache.Kind
	budget       int64
}

func shareKeyOf(spec Spec) shareKey {
	return shareKey{spec.Bench, spec.Width, spec.Queue, spec.Cache, spec.Budget}
}

// shareSource is one finished pressure-free run.
type shareSource struct {
	key       shareKey
	res       *core.Result
	regs      int
	model     rename.Model
	watermark int // the larger of the two files' watermarks
}

// serves applies the rule's per-spec conditions; the key conditions are the
// index's.
func (src *shareSource) serves(spec Spec) bool {
	if spec.Track || spec.Regs < src.watermark+2 {
		return false
	}
	return src.model == spec.Model ||
		(src.model == rename.Precise && spec.Model == rename.Imprecise)
}

// shareIndex holds a suite's pressure-free sources in memory: per key at
// most one visible source per exception model (indexed by rename.Model),
// plus the sources recorded since the last publish.
type shareIndex struct {
	mu      sync.Mutex
	srcs    map[shareKey][2]*shareSource
	pending []*shareSource
}

// lookup returns a copy of a visible source result that answers spec, and
// the source it came from. It tries the target's own model first, then the
// precise source.
func (x *shareIndex) lookup(spec Spec) (*core.Result, *shareSource, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	slots := x.srcs[shareKeyOf(spec)]
	try := []*shareSource{slots[rename.Precise]}
	if spec.Model == rename.Imprecise {
		try = []*shareSource{slots[rename.Imprecise], slots[rename.Precise]}
	}
	for _, src := range try {
		if src != nil && src.serves(spec) {
			return src.res.Clone(), src, true
		}
	}
	return nil, nil, false
}

// add records m's finished run of spec as a pending source if the rule
// allows it. The caller guarantees the run was exact (not sampled).
func (x *shareIndex) add(spec Spec, res *core.Result, m *core.Machine) {
	if spec.Track || spec.Model > rename.Imprecise || !m.PressureFreeSoFar() {
		return
	}
	wm := m.RegWatermarks()
	src := &shareSource{key: shareKeyOf(spec), res: res.Clone(), regs: spec.Regs,
		model: spec.Model, watermark: max(wm[0], wm[1])}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.pending = append(x.pending, src)
}

// better reports whether src should replace cur in its slot: the lower
// watermark serves the most targets, and the lower regs breaks a tie, so the
// kept source does not depend on the order the runs finished in.
func (src *shareSource) better(cur *shareSource) bool {
	switch {
	case cur == nil:
		return true
	case src.watermark != cur.watermark:
		return src.watermark < cur.watermark
	default:
		return src.regs < cur.regs
	}
}

// publish makes the pending sources visible, keeping per key and model the
// better source.
func (x *shareIndex) publish() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.srcs == nil {
		x.srcs = make(map[shareKey][2]*shareSource)
	}
	for _, src := range x.pending {
		slots := x.srcs[src.key]
		if src.better(slots[src.model]) {
			slots[src.model] = src
			x.srcs[src.key] = slots
		}
	}
	x.pending = nil
}

// answerShared answers spec from the suite's index when the rule allows it.
// A traced caller gets a "share" span naming the source in place of
// core.run.
func (s *Suite) answerShared(ctx context.Context, spec Spec, sampled bool) (*core.Result, bool) {
	if sampled {
		return nil, false
	}
	res, src, ok := s.share.lookup(spec)
	if !ok {
		return nil, false
	}
	sp, _ := obs.StartSpan(ctx, "share")
	sp.Set("regs", src.regs)
	sp.Set("model", src.model.String())
	sp.End()
	s.shared.Add(1)
	s.progressf("share %-9s w=%d q=%-3d regs=%-4d %s/%s: IPC %.2f (from regs=%d %s)",
		spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache, res.CommitIPC(), src.regs, src.model)
	return res, true
}
