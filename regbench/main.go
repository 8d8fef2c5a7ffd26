// Command regbench is regsim's repository benchmark: one command that runs a
// named workload for a fixed time, checks every output it produced, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads (see README.md for why each exists):
//
//	paper-cold    regenerate Table 1, Fig 3 and Fig 6 with a fresh Suite over
//	              a fresh, empty on-disk result store (the first cmd/paper run)
//	paper-rerun   regenerate them over a result store filled during set-up
//	              (the second cmd/paper run)
//	serve-routed  two in-process regsimd workers behind one cluster router,
//	              driven by two closed-loop clients with a seeded request mix
//
// Usage:
//
//	regbench -workload paper-cold -seed 1 -seconds 20 -trace 0 [-state-dir dir]
//
// Every layer is measured from outside, by timing calls into its public
// functions; -trace 1 additionally records spans from this package around
// those calls and writes them, with a per-layer self-time table, under
// <state-dir>/trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"regsim/internal/exper"
)

// Commit budgets. The full budget is the one EXPERIMENTS.md sizes the paper
// sweeps at; the smoke test's quick mode shrinks it.
const (
	fullBudget  = 20_000
	quickBudget = 2_000
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	quick    bool
	stateDir string // result records and span files
	tmp      string // scratch for result stores, removed when the run ends

	budget int64 // commit budget of every simulation the workload asks for
	jobs   int   // sweep jobs (= client connections for serve-routed)
	setups int   // set-ups timed per run; setup_s is their median
	oracle int   // specs per run checked against the differential oracle
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper-cold, paper-rerun or serve-routed")
	seed := flag.Int64("seed", 1, "workload seed: drives the serving request sequence and the verification sample")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	stateDir := flag.String("state-dir", filepath.Join(".bench_build", "regbench"), "directory for result stores, span files and result records")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := newConfig(*workload, *seed, *seconds, *traceFlag == 1, false, *stateDir)
	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "regbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "regbench: %v\n", err)
		os.Exit(1)
	}
}

func newConfig(workload string, seed int64, seconds float64, trace, quick bool, stateDir string) config {
	cfg := config{
		workload: workload,
		seed:     seed,
		duration: time.Duration(seconds * float64(time.Second)),
		trace:    trace,
		quick:    quick,
		stateDir: stateDir,
		budget:   fullBudget,
		jobs:     runtime.NumCPU(),
		setups:   5,
		oracle:   3,
	}
	if quick {
		cfg.budget = quickBudget
		cfg.setups = 2
		cfg.oracle = 1
	}
	return cfg
}

// workloads maps each workload name to the function that runs it: set-up,
// the timed phase and the correctness checks, filling rep as it goes.
var workloads = map[string]func(context.Context, config, *tracer, *report) (*runState, error){
	"paper-cold":   runPaperCold,
	"paper-rerun":  runPaperRerun,
	"serve-routed": runServeRouted,
}

// runState is what a workload leaves for the traced run's layer probes: a
// suite holding the regenerated paper results, and the serving stack with
// its request population. close releases the stack.
type runState struct {
	paper *exper.Suite
	stack *stack
	mix   *mix
}

func (s *runState) close() {
	if s != nil && s.stack != nil {
		s.stack.close()
	}
}

// run executes one benchmark invocation and returns its report; the
// human-readable summary (and, traced, the self-time table) goes to out.
func run(ctx context.Context, cfg config, out io.Writer) (*report, error) {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper-cold, paper-rerun or serve-routed)", cfg.workload)
	}
	scratch := filepath.Join(cfg.stateDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	rep := newReport(cfg)
	tr := newTracer(cfg.trace)
	_, steal0, total0 := cpuTicks()
	state, err := runWorkload(ctx, cfg, tr, rep)
	if err != nil {
		return nil, err
	}
	if _, steal1, total1 := cpuTicks(); total1 > total0 {
		rep.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	defer state.close()
	if cfg.trace {
		if err := runProbes(ctx, cfg, tr, rep, state); err != nil {
			return nil, err
		}
		if err := tr.write(cfg, out); err != nil {
			return nil, err
		}
	}
	rep.summarize(out)
	if err := rep.record(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operation and failure counts, every
// metric, the sample counts behind the timing metrics, and the host.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   map[string]int    `json:"samples"`
	TailQ     float64           `json:"tailQuantile"`        // the quantile p99_ms reports
	StealPct  float64           `json:"stealPct"`            // CPU time stolen by the hypervisor during the workload
	OpSeconds []float64         `json:"opSeconds,omitempty"` // each timed regeneration
	SetupSecs []float64         `json:"setupSeconds"`        // each timed set-up
	Digest    string            `json:"digest,omitempty"`
	EndToEnd  map[string]metric `json:"endToEnd"`
	PerLayer  map[string]metric `json:"perLayer"`
}

func newReport(cfg config) *report {
	return &report{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Host:     currentHost(cfg),
		Samples:  map[string]int{},
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
	}
}

// check counts one checked operation; a failed one is recorded with its
// reason and fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setup reports setup_s, the median of the run's timed set-ups.
func (r *report) setup(d durations) {
	r.e2e("setup_s", d.median())
	r.Samples["setup_s"] = len(d)
	for _, s := range d {
		r.SetupSecs = append(r.SetupSecs, s.Seconds())
	}
}

func (r *report) e2e(name string, v float64)   { r.EndToEnd[name] = metric{v, unitOf(name)} }
func (r *report) layer(name string, v float64) { r.PerLayer[name] = metric{v, unitOf(name)} }

// errorRatio is failed or incorrect operations over those attempted. It is
// zero on a correct run, so it travels in the result line's attempted and
// failed fields rather than as a metric.
func (r *report) errorRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// summarize prints the human-readable block: host, every metric with its
// unit and sample count, and the failures.
func (r *report) summarize(w io.Writer) {
	fmt.Fprintf(w, "regbench %s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "  host: %s\n", r.Host)
	fmt.Fprintf(w, "  cpu steal during the workload: %.1f%%\n", r.StealPct)
	printAll := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("  %-30s %14.6g %s", n, m.Value, m.Unit)
			if c, ok := r.Samples[n]; ok {
				line += fmt.Sprintf("  (n=%d)", c)
			}
			if n == "p99_ms" {
				line += fmt.Sprintf("  (quantile %.3g)", r.TailQ)
			}
			fmt.Fprintln(w, line)
		}
	}
	printAll(r.EndToEnd)
	printAll(r.PerLayer)
	fmt.Fprintf(w, "  %-30s %14.6g ratio  (%d failed of %d attempted)\n", "error_ratio", r.errorRatio(), r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(w, "  rendered Table1+Fig3+Fig6 sha256 %s\n", r.Digest)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// record writes the full report, host included, as
// <state-dir>/results/<workload>-seed<n>-trace<t>.json.
func (r *report) record(cfg config) error {
	dir := filepath.Join(cfg.stateDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)), data, 0o644)
}

// write prints the result line: the end-to-end metrics, or with -trace 1 the
// per-layer ones.
func (r *report) write(w io.Writer) error {
	ms := r.EndToEnd
	if r.Trace {
		ms = r.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
