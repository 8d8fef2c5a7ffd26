package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"regsim/internal/core"
	"regsim/internal/workload"
)

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit, in the order BENCHMARK.json lists them. The smoke test checks that a
// run prints exactly these names with these units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"alloc_mb", "MB/op"},
	{"peak_rss_mb", "MB"},
	{"store_mb", "MB"},
	{"ipc_err_pct", "%"},
}

var perLayer = []struct{ name, unit string }{
	{"core.run_ms", "ms"},
	{"core.ns_per_cycle.fig3", "ns"},
	{"core.ns_per_cycle.fig6", "ns"},
	{"core.new_us", "us"},
	{"core.alloc_kb_per_run", "KB"},
	{"ref.checksum_ns_per_instr", "ns"},
	{"workload.build_ms", "ms"},
	{"prog.artifact_ms", "ms"},
	{"twin.calibrate_s", "s"},
	{"twin.estimate_us", "us"},
	{"sweep.parallel_eff", "ratio"},
	{"sweep.memo_hit_us", "us"},
	{"rescache.fingerprint_us", "us"},
	{"rescache.get_us", "us"},
	{"rescache.put_us", "us"},
	{"rescache.entry_bytes", "bytes"},
	{"rescache.hit_ratio", "ratio"},
	{"exper.render_ms", "ms"},
	{"core.result_json_us", "us"},
	{"server.simulate_warm_ms", "ms"},
	{"server.simulate_cold_ms", "ms"},
	{"server.sweep_ms", "ms"},
	{"server.estimate_ms", "ms"},
	{"server.admission_rejected", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.sweep_hop_ms", "ms"},
	{"cluster.affinity_ratio", "ratio"},
	{"core.sim_cycles", "count"},
	{"core.committed", "count"},
	{"rename.no_free_reg_frac", "ratio"},
	{"cache.load_miss_rate", "ratio"},
	{"bpred.misp_rate", "ratio"},
	{"sweep.runs", "count"},
	{"sweep.memo_hits", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// unitOf returns a metric's unit; an unlisted name is a programming error.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("regbench: unlisted metric " + name)
}

// durations is a timing sample.
type durations []time.Duration

// median returns the sample median in seconds (0 for an empty sample).
func (d durations) median() float64 { return d.quantile(0.5) }

// quantile returns the nearest-rank q-quantile in seconds.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i].Seconds()
}

// tail returns the 99th percentile in seconds where the sample has at least
// ten values beyond it, and otherwise the highest percentile that does (the
// median below 20 values), together with the quantile used.
func (d durations) tail() (float64, float64) {
	q := 0.99
	if n := float64(len(d)); n*(1-q) < 10 {
		q = max(0.5, 1-10/n)
	}
	return d.quantile(q), q
}

// sum returns the total in seconds.
func (d durations) sum() float64 {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t.Seconds()
}

// hostInfo identifies the machine a result was measured on. Results from
// different hosts are never compared (see spread.py).
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
	// Budgets are the commit budgets of the workload's simulations and of
	// the twin's calibration runs (which default to the suite budget).
	Budget      int64 `json:"budget"`
	CalibBudget int64 `json:"calibBudget"`
	// Versions are the simulator and workload revisions every result store
	// key includes.
	CoreVersion     string `json:"coreVersion"`
	WorkloadVersion string `json:"workloadVersion"`
}

func currentHost(cfg config) hostInfo {
	return hostInfo{
		NProc:           runtime.NumCPU(),
		CPU:             cpuModel(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		OS:              runtime.GOOS + "/" + runtime.GOARCH,
		Budget:          cfg.budget,
		CalibBudget:     cfg.budget,
		CoreVersion:     core.Version,
		WorkloadVersion: workload.Version,
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q gomaxprocs=%d %s %s budget=%d calib=%d %s %s",
		h.NProc, h.CPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Budget, h.CalibBudget, h.CoreVersion, h.WorkloadVersion)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is missing.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: ticks
// spent running (user, nice, system, irq, softirq), ticks stolen, and all
// ticks (zeros where /proc/stat is missing). On a virtual machine, steal is
// time a CPU of this machine wanted to run but the hypervisor ran another
// machine instead; an idle CPU accrues none.
func cpuTicks() (busy, steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, 0
		}
		total += v
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			busy += v
		case 7:
			steal = v
		}
	}
	return busy, steal, total
}

// stopwatch measures an interval as the wall-clock time the machine's
// runnable CPUs actually ran: wall time × busy/(busy+steal) over the
// interval. On a shared virtual machine steal comes in bursts of tens of
// percent and makes wall-clock runs of the same code differ by as much;
// scaling by the share of runnable time that ran removes it whether the
// interval kept one CPU busy or all of them. Without /proc/stat, or without
// steal, it measures plain wall-clock time.
type stopwatch struct {
	start       time.Time
	busy, steal int64
}

func startWatch() stopwatch {
	busy, steal, _ := cpuTicks()
	return stopwatch{time.Now(), busy, steal}
}

// elapsed returns the unstolen time since the start, never less than a tenth
// of the wall-clock time.
func (w stopwatch) elapsed() time.Duration {
	wall := time.Since(w.start)
	busy, steal, _ := cpuTicks()
	b, s := busy-w.busy, steal-w.steal
	if s <= 0 || b+s <= 0 {
		return wall
	}
	return max(time.Duration(float64(wall)*float64(b)/float64(b+s)), wall/10)
}

// allocBytes returns the Go heap bytes allocated so far by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// dirStats sums the sizes and counts the regular files under dir.
func dirStats(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}

// resultTotals sums the modelled counts of a set of results; its ratios are
// the per-layer rename/cache/bpred metrics.
type resultTotals struct {
	cycles, committed, noFree, loads, misses, condBr, misp int64
}

func (t *resultTotals) add(r *core.Result) {
	t.cycles += r.Cycles
	t.committed += r.Committed
	t.noFree += r.NoFreeRegCycles
	t.loads += r.IssuedLoads
	t.misses += r.LoadMisses
	t.condBr += r.IssuedCondBr
	t.misp += r.Mispredicts
}

// report publishes the totals as the exact-count per-layer metrics.
func (t resultTotals) report(rep *report) {
	rep.layer("core.sim_cycles", float64(t.cycles))
	rep.layer("core.committed", float64(t.committed))
	rep.layer("rename.no_free_reg_frac", ratio(t.noFree, t.cycles))
	rep.layer("cache.load_miss_rate", ratio(t.misses, t.loads))
	rep.layer("bpred.misp_rate", ratio(t.misp, t.condBr))
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ipcErrPct is the mean absolute percentage error of 4-way commit IPC
// against the paper's Table 1 (workload.Info.PaperCommitI4), over the given
// per-benchmark IPCs.
func ipcErrPct(ipc map[string]float64) (float64, error) {
	var sum float64
	for _, bench := range workload.Names() {
		info, err := workload.Get(bench)
		if err != nil {
			return 0, err
		}
		got, ok := ipc[bench]
		if !ok {
			return 0, fmt.Errorf("no 4-way Table 1 IPC for %s", bench)
		}
		d := got - info.PaperCommitI4
		if d < 0 {
			d = -d
		}
		sum += 100 * d / info.PaperCommitI4
	}
	return sum / float64(len(workload.Names())), nil
}
