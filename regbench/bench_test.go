package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// exactCounts are the per-layer metrics that are modelled counts, not
// timings: two runs with the same seed must print them bit for bit.
var exactCounts = []string{
	"core.sim_cycles", "core.committed", "rename.no_free_reg_frac",
	"cache.load_miss_rate", "bpred.misp_rate", "sweep.runs", "sweep.memo_hits",
}

// benchmarkJSON reads the metric definitions the benchmark is run against.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// quickRun runs one workload in quick mode and returns its report and
// printed result line.
func quickRun(t *testing.T, workload string, trace bool) (*report, map[string]metric) {
	t.Helper()
	cfg := newConfig(workload, 7, 1, trace, true, t.TempDir())
	rep, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d failed: %v", workload, rep.Failed, rep.Attempted, rep.Failures)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted != rep.Attempted {
		t.Fatalf("%s: result line %+v", workload, line)
	}
	return rep, line.Metrics
}

// checkNames fails unless got holds exactly the metrics of want, each with
// its unit.
func checkNames(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
}

// TestQuickSmoke runs every workload in quick mode, untraced and twice
// traced: every named metric must be printed with its unit, every check must
// pass, the exact counts must repeat, and the rerun must render Table 1,
// Fig 3 and Fig 6 byte-identically to the cold sweep.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkJSON(t)
	digests := map[string]string{}
	for name := range workloads {
		rep, got := quickRun(t, name, false)
		checkNames(t, name, got, e2e)
		digests[name] = rep.Digest

		_, first := quickRun(t, name, true)
		checkNames(t, name, first, layers)
		_, second := quickRun(t, name, true)
		for _, c := range exactCounts {
			if first[c].Value != second[c].Value {
				t.Errorf("%s: %s is %v then %v", name, c, first[c].Value, second[c].Value)
			}
		}
	}
	if digests["paper-cold"] == "" || digests["paper-cold"] != digests["paper-rerun"] {
		t.Errorf("rerun rendering %q differs from cold rendering %q", digests["paper-rerun"], digests["paper-cold"])
	}
}

// TestMetricTables keeps the code's metric list and BENCHMARK.json in step.
func TestMetricTables(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(e2e), len(layers), len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		if e2e[m.name] != m.unit {
			t.Errorf("end-to-end %s: code unit %q, BENCHMARK.json %q", m.name, m.unit, e2e[m.name])
		}
	}
	for _, m := range perLayer {
		if layers[m.name] != m.unit {
			t.Errorf("per-layer %s: code unit %q, BENCHMARK.json %q", m.name, m.unit, layers[m.name])
		}
	}
}
