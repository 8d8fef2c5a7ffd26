package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/isa"
	"regsim/internal/obs"
	"regsim/internal/prog"
	"regsim/internal/ref"
	"regsim/internal/sweep/rescache"
	"regsim/internal/twin"
	"regsim/internal/workload"
)

// timeIt runs f inside a span named name and returns its duration.
func timeIt(ctx context.Context, name string, f func(context.Context) error) (time.Duration, error) {
	sp, sctx := obs.StartSpan(ctx, name)
	t0 := time.Now()
	err := f(sctx)
	el := time.Since(t0)
	sp.End()
	return el, err
}

// runProbes measures every layer from outside by timing calls into its
// public functions, on a seeded sample of the workload's own kind of input.
// It runs after the workload in traced runs only; its spans are kept apart
// from the workload's (see tracer.probe).
func runProbes(ctx context.Context, cfg config, tr *tracer, rep *report, state *runState) error {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x960be))
	root, ctx := tr.probe(ctx, "bench.probes")
	defer root.End()
	reps := 3
	if cfg.quick {
		reps = 1
	}

	// workload and prog: build each benchmark and predecode it.
	var builds, artTimes durations
	arts := map[string]*prog.Artifact{}
	for _, bench := range workload.Names() {
		for i := 0; i < reps; i++ {
			var p *prog.Program
			el, err := timeIt(ctx, "workload.build", func(context.Context) (err error) {
				p, err = workload.Build(bench)
				return err
			})
			if err != nil {
				return err
			}
			builds = append(builds, el)
			el, err = timeIt(ctx, "prog.artifact", func(context.Context) (err error) {
				arts[bench], err = prog.NewArtifact(p)
				return err
			})
			if err != nil {
				return err
			}
			artTimes = append(artTimes, el)
		}
	}
	rep.layer("workload.build_ms", 1e3*builds.median())
	rep.layer("prog.artifact_ms", 1e3*artTimes.median())

	// core: construct and run a seeded sample of Figure 3 and Figure 6 specs
	// directly, one at a time.
	var fig3, fig6 []exper.Spec
	for _, spec := range paperSpecs() {
		switch {
		case spec.Track:
			fig3 = append(fig3, spec)
		case spec.Regs < exper.MeasureRegs:
			fig6 = append(fig6, spec)
		}
	}
	var news, runs durations
	var alloc uint64
	var nruns int
	for _, group := range []struct {
		name  string
		specs []exper.Spec
	}{{"fig3", fig3}, {"fig6", fig6}} {
		var ns time.Duration
		var cycles int64
		for i := 0; i < 2*reps; i++ {
			spec := group.specs[rng.IntN(len(group.specs))]
			a0 := allocBytes()
			var m *core.Machine
			el, err := timeIt(ctx, "core.new", func(context.Context) (err error) {
				m, err = core.NewFromArtifact(spec.Config(), arts[spec.Bench])
				return err
			})
			if err != nil {
				return err
			}
			news = append(news, el)
			var r *core.Result
			el, err = timeIt(ctx, "core.run", func(context.Context) (err error) {
				r, err = m.Run(cfg.budget)
				return err
			})
			if err != nil {
				return err
			}
			alloc += allocBytes() - a0
			nruns++
			runs = append(runs, el)
			ns += el
			cycles += r.Cycles
		}
		rep.layer("core.ns_per_cycle."+group.name, float64(ns.Nanoseconds())/float64(cycles))
	}
	rep.layer("core.new_us", 1e6*news.median())
	rep.layer("core.run_ms", 1e3*runs.median())
	rep.layer("core.alloc_kb_per_run", float64(alloc)/float64(nruns)/1024)

	// ref: the commit checksum, fed a synthetic retired stream.
	n := 1 << 20
	if cfg.quick {
		n = 1 << 16
	}
	var sums durations
	var sum ref.Checksum
	for i := 0; i < reps; i++ {
		el, _ := timeIt(ctx, "ref.checksum", func(context.Context) error {
			for j := 0; j < n; j++ {
				sum.Add(uint64(j)<<3, isa.Op(j%isa.NumOps), uint64(j)*0x9e3779b97f4a7c15)
			}
			return nil
		})
		sums = append(sums, el)
	}
	rep.layer("ref.checksum_ns_per_instr", 1e9*sums.median()/float64(n))
	if sum.Value() == 0 {
		return fmt.Errorf("checksum probe folded nothing")
	}

	if err := probePaperSuite(ctx, cfg, rep, state, reps); err != nil {
		return err
	}
	if err := probeTwin(ctx, cfg, rep, rng); err != nil {
		return err
	}
	return probeServing(ctx, cfg, rep, state, rng)
}

// probePaperSuite measures the layers a paper rerun exercises — rendering a
// memoized suite, memo hits, fingerprints, result-store puts and gets, and
// Result JSON encoding — on the workload's regenerated paper results (a
// serving run regenerates them first).
func probePaperSuite(ctx context.Context, cfg config, rep *report, state *runState, reps int) error {
	s := state.paper
	if s == nil {
		s = newSuite(cfg, nil)
		if _, err := timeIt(ctx, "bench.paper_suite", func(ctx context.Context) error {
			_, _, err := regenerate(ctx, s)
			return err
		}); err != nil {
			return err
		}
	}
	var renders durations
	for i := 0; i < 2*reps+1; i++ {
		el, err := timeIt(ctx, "exper.memoized", func(ctx context.Context) error {
			_, _, err := regenerate(ctx, s)
			return err
		})
		if err != nil {
			return err
		}
		renders = append(renders, el)
	}
	rep.layer("exper.render_ms", 1e3*renders.median())

	specs := paperSpecs()
	results := make([]*core.Result, len(specs))
	var memo durations
	for i := 0; i < reps; i++ {
		el, err := timeIt(ctx, "sweep.memo_hits", func(context.Context) (err error) {
			for j, spec := range specs {
				if results[j], err = s.Run(spec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		memo = append(memo, el/time.Duration(len(specs)))
	}
	rep.layer("sweep.memo_hit_us", 1e6*memo.median())

	keys := make([]string, len(specs))
	var fps durations
	for i := 0; i < reps; i++ {
		el, _ := timeIt(ctx, "rescache.fingerprint", func(context.Context) error {
			for j, spec := range specs {
				spec.Budget = cfg.budget
				keys[j] = exper.Fingerprint(spec)
			}
			return nil
		})
		fps = append(fps, el/time.Duration(len(specs)))
	}
	rep.layer("rescache.fingerprint_us", 1e6*fps.median())

	var enc durations
	for _, r := range results {
		el, err := timeIt(ctx, "core.result_json", func(context.Context) error {
			_, err := json.Marshal(r)
			return err
		})
		if err != nil {
			return err
		}
		enc = append(enc, el)
	}
	rep.layer("core.result_json_us", 1e6*enc.median())

	dir := filepath.Join(cfg.tmp, "probe-store")
	store, err := rescache.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets durations
	for j, r := range results {
		el, err := timeIt(ctx, "rescache.put", func(context.Context) error { return store.Put(keys[j], r) })
		if err != nil {
			return err
		}
		puts = append(puts, el)
	}
	bytes, files, err := dirStats(dir)
	if err != nil {
		return err
	}
	reopened, err := rescache.Open(dir)
	if err != nil {
		return err
	}
	for j := range results {
		var r core.Result
		var hit bool
		el, _ := timeIt(ctx, "rescache.get", func(context.Context) error {
			hit = reopened.Get(keys[j], &r)
			return nil
		})
		rep.check(hit && r.Checksum == results[j].Checksum, "result store lost or altered %+v", specs[j])
		gets = append(gets, el)
	}
	rep.layer("rescache.put_us", 1e6*puts.median())
	rep.layer("rescache.get_us", 1e6*gets.median())
	rep.layer("rescache.entry_bytes", float64(bytes)/float64(max(files, 1)))
	return nil
}

// probeTwin calibrates one seeded (bench, 4-way) pair on a fresh suite and
// times warm estimates of random specs of that pair.
func probeTwin(ctx context.Context, cfg config, rep *report, rng *rand.Rand) error {
	model := twin.New(newSuite(cfg, nil))
	bench := workload.Names()[rng.IntN(len(workload.Names()))]
	el, err := timeIt(ctx, "twin.calibrate", func(ctx context.Context) error {
		_, err := model.Stats(ctx, bench, 4)
		return err
	})
	if err != nil {
		return err
	}
	rep.layer("twin.calibrate_s", el.Seconds())
	g := &gen{m: &mix{budget: cfg.budget}, rng: rng}
	var ests durations
	for i := 0; i < 500; i++ {
		spec := g.randomSpec(bench, 4)
		el, err := timeIt(ctx, "twin.estimate", func(ctx context.Context) error {
			_, err := model.EstimateContext(ctx, spec)
			return err
		})
		if err != nil {
			return err
		}
		ests = append(ests, el)
	}
	rep.layer("twin.estimate_us", 1e6*ests.median())
	return nil
}

// probeServing times requests sent straight to one worker against the same
// requests sent through the router, on the workload's serving stack (paper
// workloads start a small one). The routed-minus-direct medians are the
// router's hop cost.
func probeServing(ctx context.Context, cfg config, rep *report, state *runState, rng *rand.Rand) error {
	st, m := state.stack, state.mix
	if st == nil {
		m = newMix(cfg.seed, cfg.budget, 8)
		var err error
		if st, _, err = setupServing(ctx, cfg, filepath.Join(cfg.tmp, "probe-serve"), m, nil); err != nil {
			return err
		}
		defer st.close()
	}
	direct, routed := st.client(st.urls[0]), st.client(st.routerURL)
	warm := m.warm[:min(8, len(m.warm))]
	// Make worker 0 hold every probed spec and calibration, so its direct
	// answers are warm too.
	if _, err := direct.Sweep(ctx, warm); err != nil {
		return err
	}
	for _, p := range m.pairs {
		if _, err := direct.Estimate(ctx, p); err != nil {
			return err
		}
	}
	sw0, adm0, err := st.poolStats(ctx)
	if err != nil {
		return err
	}
	rounds := 100
	if cfg.quick {
		rounds = 10
	}
	g := &gen{m: m, rng: rng}
	var dSim, rSim, dSweep, rSweep, dEst durations
	for i := 0; i < rounds; i++ {
		spec := warm[i%len(warm)]
		el, err := timeIt(ctx, "server.simulate_warm", func(ctx context.Context) error {
			_, err := direct.Simulate(ctx, spec)
			return err
		})
		if err != nil {
			return err
		}
		dSim = append(dSim, el)
		if el, err = timeIt(ctx, "cluster.simulate_warm", func(ctx context.Context) error {
			_, err := routed.Simulate(ctx, spec)
			return err
		}); err != nil {
			return err
		}
		rSim = append(rSim, el)
		if i%4 == 0 {
			specs := []exper.Spec{warm[rng.IntN(len(warm))], warm[rng.IntN(len(warm))], warm[rng.IntN(len(warm))], warm[rng.IntN(len(warm))]}
			if el, err = timeIt(ctx, "server.sweep", func(ctx context.Context) error {
				_, err := direct.Sweep(ctx, specs)
				return err
			}); err != nil {
				return err
			}
			dSweep = append(dSweep, el)
			if el, err = timeIt(ctx, "cluster.sweep", func(ctx context.Context) error {
				_, err := routed.Sweep(ctx, specs)
				return err
			}); err != nil {
				return err
			}
			rSweep = append(rSweep, el)
		}
		p := m.pairs[i%len(m.pairs)]
		est := g.randomSpec(p.Bench, p.Width)
		if el, err = timeIt(ctx, "server.estimate", func(ctx context.Context) error {
			_, err := direct.Estimate(ctx, est)
			return err
		}); err != nil {
			return err
		}
		dEst = append(dEst, el)
	}
	sw1, adm1, err := st.poolStats(ctx)
	if err != nil {
		return err
	}
	// Cold simulates use register counts ≡ 2 (mod 4), which no warm spec,
	// calibration anchor or client cold spec has.
	var dCold durations
	for i := 0; i < 5; i++ {
		spec := g.randomSpec(workload.Names()[i%len(workload.Names())], 4)
		spec.Regs = 34 + 4*rng.IntN(120)
		el, err := timeIt(ctx, "server.simulate_cold", func(ctx context.Context) error {
			_, err := direct.Simulate(ctx, spec)
			return err
		})
		if err != nil {
			return err
		}
		dCold = append(dCold, el)
	}
	rep.layer("server.simulate_warm_ms", 1e3*dSim.median())
	rep.layer("server.sweep_ms", 1e3*dSweep.median())
	rep.layer("server.estimate_ms", 1e3*dEst.median())
	rep.layer("server.simulate_cold_ms", 1e3*dCold.median())
	rep.layer("cluster.hop_ms", 1e3*(rSim.median()-dSim.median()))
	rep.layer("cluster.sweep_hop_ms", 1e3*(rSweep.median()-dSweep.median()))
	if state.stack == nil {
		// Paper workloads serve nothing of their own: report the probe
		// stack's refusals and its routed warm requests' re-simulations.
		rep.layer("server.admission_rejected", float64(adm1.Rejected-adm0.Rejected))
		rep.layer("cluster.affinity_ratio", 1-float64(sw1.Runs-sw0.Runs)/float64(rounds+len(rSweep)*4))
	}
	return nil
}
