package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"regsim/internal/cache"
	"regsim/internal/cluster"
	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/rename"
	"regsim/internal/server"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/twin"
	"regsim/internal/workload"
)

// Serving topology and request mix. Two workers share the CPUs' sweep jobs
// and two closed-loop clients send the mix, so the process never runs more
// sweep jobs or client connections than nproc on the 2-CPU reference host.
// The shares are assumed, not taken from recorded traffic (README.md says
// what each follows): mostly warm simulates, and a cold share small enough
// that HTTP, routing and JSON work take most of the timed wall time, yet
// above 1% so p99 lands inside the cold requests rather than on the
// boundary between warm and cold.
const (
	numWorkers = 2
	numClients = 2
	warmSpecs  = 48 // distinct specs simulated during set-up
	sweepWidth = 4  // specs per /v1/sweep request
	pctCold    = 2  // requests that simulate a never-seen spec
	pctSweep   = 8
	pctEst     = 10
)

// Warm specs take register and queue sizes that are none of the twin's
// calibration anchors (registers 32–160 in steps of 16 or 32, and 2048), so
// calibrating during set-up never answers a warm spec from the memo and the
// set-up's run counts are exact whichever worker each spec lands on.
var (
	warmRegs   = []int{40, 56, 72, 88, 112, 144, 192, 256}
	warmQueues = []int{12, 24, 32, 48, 64, 96}
	cacheKinds = []cache.Kind{cache.LockupFree, cache.LockupFree, cache.Perfect, cache.Lockup}
)

// mix is the seeded request population: the warm specs set-up simulates and
// the (bench, width) pairs whose twin calibrations set-up runs.
type mix struct {
	warm   []exper.Spec
	pairs  []exper.Spec
	budget int64
}

func newMix(seed, budget int64, nwarm int) *mix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	m := &mix{budget: budget}
	names := workload.Names()
	seen := map[exper.Spec]bool{}
	for len(m.warm) < nwarm {
		spec := exper.Spec{
			Bench: names[rng.IntN(len(names))], Width: exper.Widths[rng.IntN(len(exper.Widths))],
			Queue: warmQueues[rng.IntN(len(warmQueues))], Regs: warmRegs[rng.IntN(len(warmRegs))],
			Model: rename.Model(rng.IntN(2)), Cache: cacheKinds[rng.IntN(len(cacheKinds))], Budget: budget,
		}
		if !seen[spec] {
			seen[spec] = true
			m.warm = append(m.warm, spec)
		}
	}
	for len(m.pairs) < 2 {
		p := exper.Spec{Bench: names[rng.IntN(len(names))], Width: exper.Widths[len(m.pairs)%2], Budget: budget}
		if len(m.pairs) == 0 || m.pairs[0].Bench != p.Bench {
			m.pairs = append(m.pairs, p)
		}
	}
	return m
}

// Request kinds of the mix.
type reqKind int

const (
	simWarm reqKind = iota
	simCold
	sweepReq
	estReq
	numKinds
)

var kindNames = [numKinds]string{"simulate_warm", "simulate_cold", "sweep", "estimate"}

type request struct {
	kind  reqKind
	specs []exper.Spec
}

// gen draws one client's request sequence. Cold specs use odd register
// counts congruent to 2·client+1 mod 4, so no two clients (and no warm spec
// or calibration anchor) ever share one.
type gen struct {
	m      *mix
	rng    *rand.Rand
	client int
	cold   map[exper.Spec]bool
}

func newGen(m *mix, seed int64, client int) *gen {
	return &gen{m: m, rng: rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)), client: client, cold: map[exper.Spec]bool{}}
}

func (g *gen) next() request {
	x := g.rng.IntN(100)
	switch {
	case x < pctCold:
		for {
			spec := g.randomSpec(workload.Names()[g.rng.IntN(len(workload.Names()))], exper.Widths[g.rng.IntN(2)])
			spec.Regs = 33 + 4*g.rng.IntN(120) + 2*g.client
			if !g.cold[spec] {
				g.cold[spec] = true
				return request{simCold, []exper.Spec{spec}}
			}
		}
	case x < pctCold+pctSweep:
		specs := make([]exper.Spec, sweepWidth)
		for i := range specs {
			specs[i] = g.m.warm[g.rng.IntN(len(g.m.warm))]
		}
		return request{sweepReq, specs}
	case x < pctCold+pctSweep+pctEst:
		p := g.m.pairs[g.rng.IntN(len(g.m.pairs))]
		return request{estReq, []exper.Spec{g.randomSpec(p.Bench, p.Width)}}
	default:
		return request{simWarm, []exper.Spec{g.m.warm[g.rng.IntN(len(g.m.warm))]}}
	}
}

func (g *gen) randomSpec(bench string, width int) exper.Spec {
	return exper.Spec{
		Bench: bench, Width: width, Queue: 8 + g.rng.IntN(249), Regs: 32 + g.rng.IntN(481),
		Model: rename.Model(g.rng.IntN(2)), Cache: cacheKinds[g.rng.IntN(len(cacheKinds))], Budget: g.m.budget,
	}
}

// stack is the serving topology: in-process workers (server.New, each with
// its own on-disk result store, as regsimd runs by default) behind one
// cluster router, all on loopback listeners.
type stack struct {
	servers   []*server.Server
	stores    []*rescache.Store
	router    *cluster.Router
	https     []*http.Server
	wg        sync.WaitGroup
	urls      []string // worker base URLs
	routerURL string
	transport *http.Transport // shared by the benchmark's clients
}

// workerJobs is each worker's share of the CPUs' sweep jobs.
func workerJobs(cfg config) int { return max(1, cfg.jobs/numWorkers) }

func startStack(cfg config, dir string, hb telemetry.ProgressFunc) (*stack, error) {
	st := &stack{transport: &http.Transport{MaxIdleConnsPerHost: numClients}}
	for i := 0; i < numWorkers; i++ {
		store, err := rescache.Open(filepath.Join(dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			st.close()
			return nil, err
		}
		suite := exper.NewSuite(cfg.budget)
		suite.Jobs = workerJobs(cfg)
		suite.Cache = store
		if hb != nil {
			suite.Heartbeat = hb
			suite.HeartbeatEvery = 1 << 40
		}
		srv, err := server.New(server.Config{Suite: suite})
		if err != nil {
			st.close()
			return nil, err
		}
		url, err := st.listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers, st.stores, st.urls = append(st.servers, srv), append(st.stores, store), append(st.urls, url)
	}
	rt, err := cluster.New(cluster.Config{Workers: st.urls, DefaultBudget: cfg.budget})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	if st.routerURL, err = st.listen(rt.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.https = append(st.https, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// client returns a typed client for base sharing the stack's transport.
func (st *stack) client(base string) *server.Client {
	return server.NewClient(base).WithHTTPClient(&http.Client{Transport: st.transport})
}

// close stops the router's prober and every listener, and waits for them.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	for _, hs := range st.https {
		c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		hs.Shutdown(c)
		cancel()
	}
	st.wg.Wait()
	st.transport.CloseIdleConnections()
}

// poolStats sums the workers' /v1/metrics sweep and admission counters.
func (st *stack) poolStats(ctx context.Context) (telemetry.SweepStats, server.AdmissionStats, error) {
	var sw telemetry.SweepStats
	var adm server.AdmissionStats
	for _, u := range st.urls {
		m, err := st.client(u).Metrics(ctx)
		if err != nil {
			return sw, adm, err
		}
		sw.Runs += m.Sweep.Runs
		sw.MemoHits += m.Sweep.MemoHits
		sw.CacheHits += m.Sweep.CacheHits
		sw.CacheMisses += m.Sweep.CacheMisses
		adm.Rejected += m.Admission.Rejected
	}
	return sw, adm, nil
}

// graft attaches the router's and workers' recorded trees for trace id.
func (st *stack) graft(ctx context.Context, tr *tracer, id obs.TraceID) {
	sp, _ := tr.start(ctx, true, "obs.graft")
	defer sp.End()
	if d, ok := st.router.Traces().Get(id.String()); ok {
		tr.graft(id, "cluster", d)
	}
	for _, s := range st.servers {
		if d, ok := s.Traces().Get(id.String()); ok {
			tr.graft(id, "server", d)
		}
	}
}

// served collects what clients received, keyed by spec, as canonical JSON:
// every later answer for a spec must equal the first, and the first must
// equal the in-process reference.
type served struct {
	mu        sync.Mutex
	results   map[exper.Spec]string
	estimates map[exper.Spec]string
}

func newServed() *served {
	return &served{results: map[exper.Spec]string{}, estimates: map[exper.Spec]string{}}
}

// add records one answer and reports whether it agrees with earlier ones.
func (s *served) add(m map[exper.Spec]string, spec exper.Spec, v any) (bool, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := m[spec]; ok {
		return prev == string(data), nil
	}
	m[spec] = string(data)
	return true, nil
}

// setupServing starts a stack, simulates the warm specs through the router
// and calibrates the twin for the mix's pairs — what a pool has done before
// it serves steady traffic. It returns the warm results in mix order.
func setupServing(ctx context.Context, cfg config, dir string, m *mix, hb telemetry.ProgressFunc) (*stack, []*core.Result, error) {
	st, err := startStack(cfg, dir, hb)
	if err != nil {
		return nil, nil, err
	}
	cl := st.client(st.routerURL)
	resp, err := cl.Sweep(ctx, m.warm)
	if err == nil && resp.Count != len(m.warm) {
		err = fmt.Errorf("warm sweep answered %d of %d specs", resp.Count, len(m.warm))
	}
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("warming the pool: %w", err)
	}
	warm := make([]*core.Result, len(resp.Results))
	for i := range resp.Results {
		warm[i] = resp.Results[i].Result
	}
	for _, p := range m.pairs {
		if _, err := cl.Estimate(ctx, p); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("calibrating the twin: %w", err)
		}
	}
	return st, warm, nil
}

// clientStats is one closed-loop client's record of the timed phase.
type clientStats struct {
	lat               [numKinds]durations
	traced, untraced  durations // warm simulates only, for the tracing overhead
	attempted, failed int
	failures          []string
	committed         int64
	warmSpecReqs      int // warm specs asked for, in simulates and sweeps
	coldReqs          int
}

// clientLoop sends g's requests back to back until deadline: each waits for
// its reply (closed loop), and every answer is checked against earlier ones.
func clientLoop(ctx context.Context, st *stack, g *gen, deadline time.Time, tr *tracer, sv *served) *clientStats {
	cs := &clientStats{}
	cl := st.client(st.routerURL)
	var pending obs.TraceID
	fail := func(format string, args ...any) {
		cs.failed++
		if len(cs.failures) < 10 {
			cs.failures = append(cs.failures, fmt.Sprintf(format, args...))
		}
	}
	record := func(m map[exper.Spec]string, spec exper.Spec, v any) {
		ok, err := sv.add(m, spec, v)
		if err != nil || !ok {
			fail("%+v: answer differs from an earlier one (%v)", spec, err)
		}
	}
	for i := 0; time.Now().Before(deadline); i++ {
		req := g.next()
		traced := tr.on && i%2 == 1
		root, rctx := tr.start(ctx, traced, "bench."+kindNames[req.kind])
		// The client's own encoding, decoding and transport are server
		// package work (its typed Client) outside any program span.
		wire, rctx := obs.StartSpan(rctx, "server.client")
		t0 := time.Now()
		var err error
		var answers []server.SimulateResponse
		var est *server.EstimateResponse
		switch req.kind {
		case simWarm, simCold:
			var r *server.SimulateResponse
			if r, err = cl.Simulate(rctx, req.specs[0]); err == nil {
				answers = []server.SimulateResponse{*r}
			}
		case sweepReq:
			var r *server.SweepResponse
			if r, err = cl.Sweep(rctx, req.specs); err == nil {
				answers = r.Results
			}
		case estReq:
			est, err = cl.Estimate(rctx, req.specs[0])
		}
		el := time.Since(t0)
		wire.End()
		root.End()
		cs.attempted++
		if err != nil {
			fail("%s %+v: %v", kindNames[req.kind], req.specs, err)
			continue
		}
		cs.lat[req.kind] = append(cs.lat[req.kind], el)
		if req.kind == simWarm {
			if traced {
				cs.traced = append(cs.traced, el)
			} else {
				cs.untraced = append(cs.untraced, el)
			}
		}
		switch req.kind {
		case simWarm:
			cs.warmSpecReqs++
		case simCold:
			cs.coldReqs++
		case sweepReq:
			cs.warmSpecReqs += len(req.specs)
		}
		if len(answers) != len(req.specs) && req.kind != estReq {
			fail("%s: %d answers for %d specs", kindNames[req.kind], len(answers), len(req.specs))
			continue
		}
		for j, a := range answers {
			if a.Spec != req.specs[j] {
				fail("%s: answer %d is for %+v, asked %+v", kindNames[req.kind], j, a.Spec, req.specs[j])
				continue
			}
			cs.committed += a.Result.Committed
			record(sv.results, a.Spec, a.Result)
		}
		if est != nil {
			if est.Spec != req.specs[0] {
				fail("estimate answered %+v, asked %+v", est.Spec, req.specs[0])
			} else {
				record(sv.estimates, est.Spec, est.Estimate)
			}
		}
		// The router and workers store a request's tree just after replying,
		// so each traced request is grafted once the next one is done.
		if pending != 0 {
			st.graft(ctx, tr, pending)
			pending = 0
		}
		if traced {
			pending = root.TraceID()
		}
	}
	if pending != 0 {
		st.graft(ctx, tr, pending)
	}
	return cs
}

// runServeRouted drives the routed serving mix; see the package comment.
func runServeRouted(ctx context.Context, cfg config, tr *tracer, rep *report) (*runState, error) {
	m := newMix(cfg.seed, cfg.budget, warmSpecs)
	var coreMu sync.Mutex
	var coreTime time.Duration
	var hb telemetry.ProgressFunc
	if tr.on {
		hb = func(p telemetry.Progress) {
			if p.Done {
				coreMu.Lock()
				coreTime += p.Elapsed
				coreMu.Unlock()
			}
		}
	}
	var setups durations
	var st *stack
	var warm []*core.Result
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
		}
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("serve-%d", i))
		settle()
		t0 := startWatch()
		var err error
		st, warm, err = setupServing(ctx, cfg, dir, m, hb)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t0.elapsed())
	}
	state := &runState{stack: st, mix: m}
	rep.setup(setups)
	var storeBytes int64
	for _, s := range st.stores {
		b, _, err := dirStats(s.Dir())
		if err != nil {
			state.close()
			return nil, err
		}
		storeBytes += b
	}
	rep.e2e("store_mb", float64(storeBytes)/(1<<20))
	var tot resultTotals
	for _, r := range warm {
		tot.add(r)
	}
	tot.report(rep)
	sw0, adm0, err := st.poolStats(ctx)
	if err != nil {
		state.close()
		return nil, err
	}
	rep.layer("sweep.runs", float64(sw0.Runs))
	rep.layer("sweep.memo_hits", float64(sw0.MemoHits))
	sv := newServed()
	for i, r := range warm {
		sv.add(sv.results, m.warm[i], r)
	}

	// Timed phase: numClients closed-loop clients until the deadline.
	coreMu.Lock()
	coreTime = 0
	coreMu.Unlock()
	a0 := allocBytes()
	watch := startWatch()
	deadline := watch.start.Add(cfg.duration)
	stats := make([]*clientStats, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = clientLoop(ctx, st, newGen(m, cfg.seed, c), deadline, tr, sv)
		}(c)
	}
	wg.Wait()
	elapsed, wall := watch.elapsed(), time.Since(watch.start)
	// Request latencies are wall-clock: scale them by the phase's share of
	// unstolen time, as the stopwatch does for whole intervals.
	unstolen := elapsed.Seconds() / wall.Seconds()
	alloc := allocBytes() - a0
	rep.e2e("peak_rss_mb", peakRSSMB())

	var all, traced, untraced durations
	var lat [numKinds]durations
	var requests, warmSpecReqs, coldReqs int
	var committed int64
	for _, cs := range stats {
		rep.Attempted += cs.attempted
		rep.Failed += cs.failed
		rep.Failures = append(rep.Failures, cs.failures...)
		for k := range lat {
			lat[k] = append(lat[k], cs.lat[k]...)
			all = append(all, cs.lat[k]...)
		}
		traced = append(traced, cs.traced...)
		untraced = append(untraced, cs.untraced...)
		requests += cs.attempted
		committed += cs.committed
		warmSpecReqs += cs.warmSpecReqs
		coldReqs += cs.coldReqs
	}
	rep.e2e("sweep_s", unstolen*lat[sweepReq].median())
	rep.e2e("sim_mips", float64(committed)/elapsed.Seconds()/1e6)
	rep.e2e("req_per_s", float64(requests)/elapsed.Seconds())
	rep.e2e("p50_ms", 1e3*unstolen*all.median())
	tail, q := all.tail()
	rep.e2e("p99_ms", 1e3*unstolen*tail)
	rep.TailQ = q
	rep.e2e("alloc_mb", float64(alloc)/float64(max(requests, 1))/(1<<20))
	rep.Samples["sweep_s"] = len(lat[sweepReq])
	for _, n := range []string{"sim_mips", "req_per_s", "p50_ms", "p99_ms", "alloc_mb"} {
		rep.Samples[n] = len(all)
	}

	sw1, adm1, err := st.poolStats(ctx)
	if err != nil {
		state.close()
		return nil, err
	}
	rep.layer("server.admission_rejected", float64(adm1.Rejected-adm0.Rejected))
	resim := float64(sw1.Runs-sw0.Runs) - float64(coldReqs)
	rep.layer("cluster.affinity_ratio", 1-max(0, resim)/float64(max(warmSpecReqs, 1)))
	rep.layer("rescache.hit_ratio", ratio(sw1.CacheHits-sw0.CacheHits, sw1.CacheHits-sw0.CacheHits+sw1.CacheMisses-sw0.CacheMisses))
	coreMu.Lock()
	rep.layer("sweep.parallel_eff", coreTime.Seconds()/(float64(numWorkers*workerJobs(cfg))*wall.Seconds()))
	coreMu.Unlock()
	if len(traced) > 0 && len(untraced) > 0 {
		rep.layer("obs.trace_overhead_pct", 100*(traced.median()/untraced.median()-1))
	}

	if err := checkServed(ctx, cfg, rep, st, m, sv); err != nil {
		state.close()
		return nil, err
	}
	return state, nil
}

// checkServed is the serving correctness gate, outside the timed window:
// every distinct served result and estimate must be byte-identical to an
// in-process Suite.Run (or twin estimate) of the same spec; the 4-way Table 1
// specs are fetched through the router for ipc_err_pct; and a seeded sample
// of the warm specs passes the differential oracle.
func checkServed(ctx context.Context, cfg config, rep *report, st *stack, m *mix, sv *served) error {
	ref := exper.NewSuite(cfg.budget)
	ref.Jobs = cfg.jobs
	var table1 []exper.Spec
	for _, bench := range workload.Names() {
		table1 = append(table1, exper.Spec{Bench: bench, Width: 4, Queue: exper.CostEffectiveQueue(4),
			Regs: exper.MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Budget: cfg.budget})
	}
	resp, err := st.client(st.routerURL).Sweep(ctx, table1)
	rep.check(err == nil, "Table 1 sweep through the router: %v", err)
	ipc := map[string]float64{}
	if err == nil {
		for i, a := range resp.Results {
			ipc[table1[i].Bench] = a.Result.CommitIPC()
			sv.add(sv.results, table1[i], a.Result)
		}
	}
	errPct, err := ipcErrPct(ipc)
	if err != nil {
		return err
	}
	rep.e2e("ipc_err_pct", errPct)

	specs := make([]exper.Spec, 0, len(sv.results))
	for spec := range sv.results {
		specs = append(specs, spec)
	}
	results, err := ref.RunAll(ctx, specs)
	if err != nil {
		return fmt.Errorf("reference runs: %w", err)
	}
	for i, r := range results {
		data, err := json.Marshal(r)
		rep.check(err == nil && string(data) == sv.results[specs[i]], "served result for %+v differs from Suite.Run", specs[i])
	}
	model := twin.New(ref)
	for spec, got := range sv.estimates {
		est, err := model.EstimateContext(ctx, spec)
		if err != nil {
			return fmt.Errorf("reference estimate: %w", err)
		}
		data, err := json.Marshal(est)
		rep.check(err == nil && string(data) == got, "served estimate for %+v differs from the in-process twin", spec)
	}
	checkOracle(cfg, rep, m.warm)
	return nil
}
