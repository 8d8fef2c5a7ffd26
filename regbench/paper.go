package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/workload"
)

// paperSpecs lists the specs Table 1, Figure 3 and Figure 6 simulate (414 at
// nine benchmarks), built from the same exported axes the figure generators
// use. The benchmark reads the regenerated results back through Suite.Run
// with them, and samples them for the differential oracle.
func paperSpecs() []exper.Spec {
	var specs []exper.Spec
	for _, bench := range workload.Names() {
		for _, w := range exper.Widths {
			specs = append(specs, exper.Spec{Bench: bench, Width: w, Queue: exper.CostEffectiveQueue(w),
				Regs: exper.MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree})
		}
	}
	for _, w := range exper.Widths {
		for _, q := range exper.QueueSizes {
			for _, bench := range workload.Names() {
				specs = append(specs, exper.Spec{Bench: bench, Width: w, Queue: q,
					Regs: exper.MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Track: true})
			}
		}
	}
	for _, w := range exper.Widths {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			for _, regs := range exper.RegSizes {
				for _, bench := range workload.Names() {
					specs = append(specs, exper.Spec{Bench: bench, Width: w, Queue: exper.CostEffectiveQueue(w),
						Regs: regs, Model: model, Cache: cache.LockupFree})
				}
			}
		}
	}
	return specs
}

// regenerate produces Table 1, Figure 3 and Figure 6 on s and renders them
// as cmd/paper prints them. On a traced context each layer call is a span.
func regenerate(ctx context.Context, s *exper.Suite) ([]byte, *exper.Table1, error) {
	sp, _ := obs.StartSpan(ctx, "exper.table1")
	t1, err := s.Table1()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp, _ = obs.StartSpan(ctx, "exper.fig3")
	f3, err := s.Fig3()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp, _ = obs.StartSpan(ctx, "exper.fig6")
	f6, err := s.Fig6()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp, _ = obs.StartSpan(ctx, "exper.render")
	var buf bytes.Buffer
	t1.Print(&buf)
	fmt.Fprintln(&buf)
	f3.Print(&buf)
	fmt.Fprintln(&buf)
	f6.Print(&buf)
	sp.End()
	return buf.Bytes(), t1, nil
}

// newSuite returns the suite cmd/paper builds: the run's budget, one sweep
// job per CPU, and the given result store.
func newSuite(cfg config, store *rescache.Store) *exper.Suite {
	s := exper.NewSuite(cfg.budget)
	s.Jobs = cfg.jobs
	s.Cache = store
	return s
}

// coreClock sums the host time of every simulation a suite runs, from each
// run's final heartbeat, and records each run as a core.run span of the
// traced operation. Traced operations install it; its total is what
// sweep.parallel_eff divides by jobs × wall time.
type coreClock struct {
	total time.Duration
	tr    *tracer
	id    obs.TraceID
}

func (c *coreClock) attach(s *exper.Suite) {
	s.Heartbeat = func(p telemetry.Progress) {
		if !p.Done {
			return
		}
		c.total += p.Elapsed // heartbeats are serialised by the suite
		c.tr.graft(c.id, "", obs.SpanData{
			Name: "core.run", Start: time.Now().Add(-p.Elapsed), DurationUS: p.Elapsed.Microseconds(),
			Attrs: []obs.Attr{{Key: "spec", Value: p.Label}},
		})
	}
	s.HeartbeatEvery = 1 << 40 // only the final heartbeat of each run
}

// regenLoop is the timed phase both paper workloads share: regenerate until
// the run's time is up (at least twice), each time on a suite made by open,
// and check every rendering against want.
type regenLoop struct {
	ops, traced, untraced durations
	alloc                 uint64
	hits, misses          int64
	coreTime, tracedWall  time.Duration
	first                 *exper.Suite // suite of the first regeneration
	firstT1               *exper.Table1
	last                  *exper.Suite
}

// settle starts a set-up or a regeneration the way a fresh cmd/paper process
// would: on a collected heap rather than with the previous one's garbage, and
// with every dirty page written back (sync) rather than a varying part of it
// in flight. Callers run it before their stopwatch starts.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// run regenerates on the suite open returns. With timeOpen, open is part of
// the timed regeneration (opening the store is part of every cmd/paper run);
// without, it is set-up, run before settle and the stopwatch. When want is
// nil the first rendering becomes the reference.
func (l *regenLoop) run(ctx context.Context, cfg config, tr *tracer, rep *report, want []byte,
	timeOpen bool, open func(ctx context.Context) (*exper.Suite, error)) ([]byte, error) {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.duration; i++ {
		traced := tr.on && i%2 == 1
		var s *exper.Suite
		var err error
		if !timeOpen {
			if s, err = open(ctx); err != nil {
				return nil, err
			}
		}
		settle()
		a0 := allocBytes()
		root, rctx := tr.start(ctx, traced, "bench.regenerate")
		t0 := startWatch()
		if timeOpen {
			if s, err = open(rctx); err != nil {
				return nil, err
			}
		}
		var clock *coreClock
		if traced {
			clock = &coreClock{tr: tr, id: root.TraceID()}
			clock.attach(s)
		}
		r0 := time.Now()
		out, t1, err := regenerate(rctx, s)
		raw := time.Since(r0)
		el := t0.elapsed()
		root.End()
		l.alloc += allocBytes() - a0
		rep.check(err == nil, "regeneration %d: %v", i, err)
		if err != nil {
			break
		}
		l.ops = append(l.ops, el)
		if traced {
			l.traced = append(l.traced, el)
			l.coreTime += clock.total
			l.tracedWall += raw // heartbeat times are wall-clock too
		} else {
			l.untraced = append(l.untraced, el)
		}
		st := s.SweepStats()
		l.hits += st.CacheHits
		l.misses += st.CacheMisses
		if want == nil {
			want = out
		}
		rep.check(bytes.Equal(out, want), "regeneration %d renders differently from the reference", i)
		if l.first == nil {
			l.first, l.firstT1 = s, t1
		}
		l.last = s
	}
	if l.first == nil {
		return nil, fmt.Errorf("no regeneration completed")
	}
	return want, nil
}

// publish reports the loop's end-to-end metrics and the counts of its first
// regeneration.
func (l *regenLoop) publish(cfg config, rep *report, ref []byte) error {
	st := l.first.SweepStats()
	rep.layer("sweep.runs", float64(st.Runs))
	rep.layer("sweep.memo_hits", float64(st.MemoHits))
	var tot resultTotals
	for _, spec := range paperSpecs() {
		r, err := l.first.Run(spec)
		if err != nil {
			return err
		}
		tot.add(r)
	}
	tot.report(rep)
	ipc := map[string]float64{}
	for _, row := range l.firstT1.Rows {
		if row.Width == 4 {
			ipc[row.Bench] = row.CommitIPC
		}
	}
	errPct, err := ipcErrPct(ipc)
	if err != nil {
		return err
	}
	for _, op := range l.ops {
		rep.OpSeconds = append(rep.OpSeconds, op.Seconds())
	}
	n := float64(len(l.ops))
	wall := l.ops.sum()
	rep.e2e("sweep_s", l.ops.median())
	rep.e2e("sim_mips", float64(tot.committed)*n/wall/1e6)
	rep.e2e("req_per_s", float64(len(paperSpecs()))*n/wall)
	rep.e2e("p50_ms", 1e3*l.ops.median())
	tail, q := l.ops.tail()
	rep.e2e("p99_ms", 1e3*tail)
	rep.TailQ = q
	rep.e2e("alloc_mb", float64(l.alloc)/n/(1<<20))
	rep.e2e("peak_rss_mb", peakRSSMB())
	rep.e2e("ipc_err_pct", errPct)
	for _, m := range []string{"sweep_s", "sim_mips", "req_per_s", "p50_ms", "p99_ms", "alloc_mb"} {
		rep.Samples[m] = len(l.ops)
	}
	rep.layer("rescache.hit_ratio", ratio(l.hits, l.hits+l.misses))
	if l.tracedWall > 0 {
		rep.layer("sweep.parallel_eff", l.coreTime.Seconds()/(float64(cfg.jobs)*l.tracedWall.Seconds()))
	} else {
		rep.layer("sweep.parallel_eff", 0)
	}
	if len(l.traced) > 0 && len(l.untraced) > 0 {
		rep.layer("obs.trace_overhead_pct", 100*(l.traced.median()/l.untraced.median()-1))
	}
	sum := sha256.Sum256(ref)
	rep.Digest = hex.EncodeToString(sum[:])
	return nil
}

// runPaperCold is the first cmd/paper run: every regeneration gets a fresh
// Suite over an empty on-disk store, so the core simulates all 414 specs and
// the store only writes. Set-up, outside the regeneration's stopwatch, is
// what "rm -rf the cache dir" and the start of cmd/paper do: empty the store
// the previous regeneration filled, open it and build the suite. It starts
// settled, so every removal finds the previous store written back. The first
// regeneration has no store to remove, so its set-up is not in setup_s; the
// loop runs at least two, so store_mb always has the first one's store.
func runPaperCold(ctx context.Context, cfg config, tr *tracer, rep *report) (*runState, error) {
	var l regenLoop
	var setups durations
	var storeBytes int64
	dir := filepath.Join(cfg.tmp, "cold-store")
	setup := func() (*exper.Suite, time.Duration, error) {
		settle()
		t0 := startWatch()
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		store, err := rescache.Open(dir)
		if err != nil {
			return nil, 0, err
		}
		return newSuite(cfg, store), t0.elapsed(), nil
	}
	ref, err := l.run(ctx, cfg, tr, rep, nil, false, func(context.Context) (*exper.Suite, error) {
		_, err := os.Stat(dir)
		filled := err == nil // every regeneration but the first left a store
		if filled && storeBytes == 0 {
			if storeBytes, _, err = dirStats(dir); err != nil {
				return nil, err
			}
		}
		s, d, err := setup()
		if filled {
			setups = append(setups, d)
		}
		return s, err
	})
	if err != nil {
		return nil, err
	}
	// One set-up per regeneration is too few for a steady median of a step
	// this short, whose file-system cost varies widely from one removal to
	// the next. Time more of them, each removing a copy of the store the
	// last regeneration wrote (the first removes that store itself).
	filled := filepath.Join(cfg.tmp, "cold-copy")
	if err := os.CopyFS(filled, os.DirFS(dir)); err != nil {
		return nil, err
	}
	for i := 0; i < 4*cfg.setups; i++ {
		if i > 0 {
			if err := os.CopyFS(dir, os.DirFS(filled)); err != nil {
				return nil, err
			}
		}
		_, d, err := setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	rep.setup(setups)
	rep.e2e("store_mb", float64(storeBytes)/(1<<20))
	if err := l.publish(cfg, rep, ref); err != nil {
		return nil, err
	}
	checkOracle(cfg, rep, paperSpecs())
	return &runState{paper: l.last}, nil
}

// runPaperRerun is the second cmd/paper run: set-up fills a store with the
// same sweep (timed, cfg.setups times over fresh stores, each fill settled as
// a paper-cold regeneration is); the timed phase
// regenerates the three experiments over the reopened store, each time in a
// new Suite, so fingerprinting, rescache.Get, JSON decoding and the sweep
// engine do all the work. Every rendering must equal the cold one.
func runPaperRerun(ctx context.Context, cfg config, tr *tracer, rep *report) (*runState, error) {
	var setups durations
	var dir string
	var cold []byte
	for i := 0; i < cfg.setups; i++ {
		settle()
		t0 := startWatch()
		d, err := os.MkdirTemp(cfg.tmp, "rerun-")
		if err != nil {
			return nil, err
		}
		store, err := rescache.Open(d)
		if err != nil {
			return nil, err
		}
		out, _, err := regenerate(ctx, newSuite(cfg, store))
		if err != nil {
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
		setups = append(setups, t0.elapsed())
		if cold == nil {
			cold = out
		}
		rep.check(bytes.Equal(out, cold), "set-up %d renders differently from set-up 0", i)
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = d
	}
	rep.setup(setups)
	storeBytes, _, err := dirStats(dir)
	if err != nil {
		return nil, err
	}
	rep.e2e("store_mb", float64(storeBytes)/(1<<20))

	var l regenLoop
	_, err = l.run(ctx, cfg, tr, rep, cold, true, func(ctx context.Context) (*exper.Suite, error) {
		sp, _ := obs.StartSpan(ctx, "rescache.open")
		store, err := rescache.Open(dir)
		sp.End()
		if err != nil {
			return nil, err
		}
		return newSuite(cfg, store), nil
	})
	if err != nil {
		return nil, err
	}
	if err := l.publish(cfg, rep, cold); err != nil {
		return nil, err
	}
	checkOracle(cfg, rep, paperSpecs())
	return &runState{paper: l.last}, nil
}
