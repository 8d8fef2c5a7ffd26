package exper

import (
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

// Checkpoint fast-forwarding: the sharing rules.
//
// The checkpoint store holds two entry kinds:
//
//   - Milestone snapshots: the machine's full state after m committed
//     instructions, for m on ckpt.Milestones' power-of-two grid. Milestone
//     keys exclude the commit budget — a run's trajectory does not depend
//     on where it will later be told to stop — so runs at different budgets
//     share prefixes. The exact key binds every remaining spec dimension
//     and is captured only into persistent (disk-backed) stores, where a
//     later process can resume from it; the shared key additionally drops
//     the register-file size, is captured whenever the run is still
//     pressure-free (core.Resume re-checks the retarget preconditions and
//     refuses entries the target file cannot soundly restore — the
//     pressure-free rule of share.go, applied mid-run), and is what a
//     sweep's own sibling configurations fast-forward over.
//
//   - Final results under an exact key that binds everything including the
//     budget: the in-store mirror of the rescache entry, so checkpoint
//     stores accelerate repeat sweeps even without a persistent result
//     cache. Finished results are shared across register-file sizes and
//     models by the suite's pressure-free index (share.go), which answers
//     before this store is consulted.
//
// Every key folds in the simulator, workload, artifact, checkpoint and
// snapshot format versions plus the artifact's content ID, so stale stores
// read as misses, never as wrong results.

// ckptKeyMat is the key material for one checkpoint entry.
type ckptKeyMat struct {
	Kind      string `json:"kind"`
	Sim       string `json:"sim"`
	Workload  string `json:"workload"`
	Prog      string `json:"prog"`
	Ckpt      string `json:"ckpt"`
	Snap      string `json:"snap"`
	ProgID    string `json:"progID"`
	Width     int    `json:"width"`
	Queue     int    `json:"queue"`
	Model     string `json:"model,omitempty"`
	Cache     string `json:"cache"`
	Track     bool   `json:"track,omitempty"`
	Regs      int    `json:"regs,omitempty"`
	Milestone int64  `json:"milestone,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
}

func baseKeyMat(spec Spec, art *prog.Artifact) ckptKeyMat {
	return ckptKeyMat{
		Sim: core.Version, Workload: workload.Version,
		Prog: prog.ArtifactVersion, Ckpt: ckpt.Version, Snap: core.SnapVersion,
		ProgID: art.ID(), Width: spec.Width, Queue: spec.Queue,
		Model: spec.Model.String(), Cache: spec.Cache.String(),
	}
}

func milestoneExactKey(spec Spec, art *prog.Artifact, mi int64) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Regs, k.Track, k.Milestone = "milestone-exact", spec.Regs, spec.Track, mi
	return rescache.Fingerprint(k)
}

func milestoneSharedKey(spec Spec, art *prog.Artifact, mi int64) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Milestone = "milestone-shared", mi
	return rescache.Fingerprint(k)
}

func finalExactKey(spec Spec, art *prog.Artifact) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Regs, k.Track, k.Budget = "final-exact", spec.Regs, spec.Track, spec.Budget
	return rescache.Fingerprint(k)
}

// runCheckpointed simulates spec through the checkpoint store: serve the
// result outright if an exact final entry exists, otherwise resume from the
// deepest restorable milestone snapshot, simulate the remainder while
// capturing new milestones, and store the finished result. Every path
// produces a Result bit-identical to the cold run's. The machine is returned
// when one ran, so the caller can index the run as a pressure-free source.
func (s *Suite) runCheckpointed(spec Spec, art *prog.Artifact, cfg core.Config) (*core.Result, *core.Machine, error) {
	st := s.Checkpoints
	exactFinal := finalExactKey(spec, art)
	if res, ok := st.Result(exactFinal); ok {
		s.progressf("ckpt %-9s regs=%-4d %s: final (exact)", spec.Bench, spec.Regs, spec.Model)
		return res, nil, nil
	}

	ms := ckpt.Milestones(spec.Budget)
	var m *core.Machine
	next := 0
scan:
	for i := len(ms) - 1; i >= 0; i-- {
		if snap, ok := st.Snapshot(milestoneExactKey(spec, art, ms[i])); ok {
			if r, err := core.Resume(cfg, art, snap); err == nil {
				m, next = r, i+1
				break scan
			}
		}
		if spec.Track {
			continue
		}
		if snap, ok := st.Snapshot(milestoneSharedKey(spec, art, ms[i])); ok {
			if r, err := core.Resume(cfg, art, snap); err == nil {
				m, next = r, i+1
				break scan
			}
			// A shared snapshot the target cannot restore — typically a
			// watermark the smaller register file does not clear — is not
			// an error; an earlier milestone may still be servable.
		}
	}
	if m == nil {
		var err error
		if m, err = core.NewFromArtifact(cfg, art); err != nil {
			return nil, nil, err
		}
	} else {
		s.progressf("ckpt %-9s regs=%-4d %s: resumed at %d commits", spec.Bench, spec.Regs, spec.Model, ms[next-1])
	}
	s.sims.Add(1)

	var res *core.Result
	var err error
	// Capture policy: snapshots are taken only where reuse is possible.
	// Exact milestones pay off solely across processes (a later run of the
	// same spec at a different budget), so they are captured only into
	// persistent stores — for a memory-only store they would be pure
	// overhead on every simulated run. Shared milestones are what the
	// sweep's own siblings fast-forward over, so they are captured whenever
	// the run is still pressure-free; in memory they are put-if-absent
	// (any pressure-free source is an equally valid prefix).
	persist := st.Dir() != ""
	for i := next; i < len(ms); i++ {
		if res, err = m.Run(ms[i]); err != nil {
			return nil, nil, err
		}
		capture := persist
		sharedKey := ""
		if !spec.Track && m.PressureFreeSoFar() {
			sharedKey = milestoneSharedKey(spec, art, ms[i])
			if !persist {
				if _, ok := st.Snapshot(sharedKey); ok {
					sharedKey = ""
				}
			}
			capture = capture || sharedKey != ""
		}
		if !capture {
			continue
		}
		if snap, serr := m.Snapshot(); serr == nil {
			if persist {
				s.putSnapshot(st, milestoneExactKey(spec, art, ms[i]), snap, spec)
			}
			if sharedKey != "" {
				s.putSnapshot(st, sharedKey, snap, spec)
			}
		}
	}
	if res == nil {
		// Resumed from a snapshot at (or beyond) the budget itself — a
		// larger-budget run's milestone. Run is a no-op that finalizes.
		if res, err = m.Run(spec.Budget); err != nil {
			return nil, nil, err
		}
	}

	if perr := st.PutResult(exactFinal, res); perr != nil {
		s.progressf("ckpt put %s: %v", spec.Bench, perr)
	}
	return res, m, nil
}

func (s *Suite) putSnapshot(st *ckpt.Store, key string, snap *core.Snapshot, spec Spec) {
	if err := st.PutSnapshot(key, snap); err != nil {
		// Persistence is best effort: the in-memory entry is in place, and
		// a lost disk entry costs a future re-simulation, never the sweep.
		s.progressf("ckpt put %s: %v", spec.Bench, err)
	}
}
