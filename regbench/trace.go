package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"regsim/internal/obs"
)

// tracer keeps the spans of a traced run in memory and writes them out when
// the run ends. Spans come from this package, around each call into a layer
// (obs.StartTrace/StartSpan, so spans the program emits on a traced context
// nest underneath); request trees the router and workers recorded under the
// same trace ID are grafted in afterwards.
type tracer struct {
	on bool

	mu     sync.Mutex
	roots  []*obs.Span // the workload's traced operations
	probes []*obs.Span // the layer probes run after the workload
	grafts map[obs.TraceID][]obs.SpanData
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, grafts: map[obs.TraceID][]obs.SpanData{}}
}

// start opens a root span when the run is traced and this operation is one
// of the traced ones; otherwise it returns the context unchanged and a nil
// span, whose methods are no-ops.
func (t *tracer) start(ctx context.Context, traced bool, name string) (*obs.Span, context.Context) {
	if !t.on || !traced {
		return nil, ctx
	}
	sp, ctx := obs.StartTrace(ctx, name)
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp, ctx
}

// probe opens the root span of the layer probes. Probe spans are written
// out but kept out of the self-time table, which describes the workload.
func (t *tracer) probe(ctx context.Context, name string) (*obs.Span, context.Context) {
	sp, ctx := obs.StartTrace(ctx, name)
	t.mu.Lock()
	t.probes = append(t.probes, sp)
	t.mu.Unlock()
	return sp, ctx
}

// graft attaches a span tree recorded outside this trace under trace id. A
// non-empty layer renames its root "<layer>.request <name>", so a request
// tree's self time is charged to the server or router that recorded it.
func (t *tracer) graft(id obs.TraceID, layer string, d obs.SpanData) {
	if layer != "" {
		d.Name = layer + ".request " + d.Name
	}
	t.mu.Lock()
	t.grafts[id] = append(t.grafts[id], d)
	t.mu.Unlock()
}

// snapshot returns the recorded roots of spans, each grafted tree nested
// under the innermost span whose interval contains its start (a worker's
// tree under the router's route span, a simulation under the figure that
// asked for it).
func (t *tracer) snapshot(spans []*obs.Span) []obs.SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]obs.SpanData, 0, len(spans))
	for _, sp := range spans {
		d := sp.Snapshot()
		for _, g := range t.grafts[sp.TraceID()] {
			nest(&d, g)
		}
		out = append(out, d)
	}
	return out
}

func nest(d *obs.SpanData, g obs.SpanData) {
	for i := range d.Children {
		c := &d.Children[i]
		if !g.Start.Before(c.Start) && !g.Start.After(spanEnd(c)) {
			nest(c, g)
			return
		}
	}
	d.Children = append(d.Children, g)
}

func spanEnd(d *obs.SpanData) time.Time {
	return d.Start.Add(time.Duration(d.DurationUS) * time.Microsecond)
}

// layerOf maps a span name to the layer its self time is charged to: the
// text before the first dot, except for the unqualified names the server and
// router use for their phases.
func layerOf(name string) string {
	switch name {
	case "admission", "simulate":
		return "server"
	case "route", "shard":
		return "cluster"
	case "coalesce":
		return "sweep"
	}
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return name
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	SelfS float64 `json:"selfS"`
	Share float64 `json:"sharePct"`
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of its interval that its children cover.
func selfTimes(roots []obs.SpanData) []layerTime {
	byLayer := map[string]*layerTime{}
	var total float64
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		start, end := d.Start, spanEnd(d)
		type iv struct{ a, b time.Time }
		var ivs []iv
		for i := range d.Children {
			c := &d.Children[i]
			a, b := c.Start, spanEnd(c)
			if a.Before(start) {
				a = start
			}
			if b.After(end) {
				b = end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
			walk(c)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var covered time.Duration
		var cur iv
		for i, v := range ivs {
			switch {
			case i == 0:
				cur = v
			case v.a.After(cur.b):
				covered += cur.b.Sub(cur.a)
				cur = v
			case v.b.After(cur.b):
				cur.b = v.b
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		self := (end.Sub(start) - covered).Seconds()
		if self < 0 {
			self = 0
		}
		l := layerOf(d.Name)
		row := byLayer[l]
		if row == nil {
			row = &layerTime{Layer: l}
			byLayer[l] = row
		}
		row.Spans++
		row.SelfS += self
		total += self
	}
	for i := range roots {
		walk(&roots[i])
	}
	rows := make([]layerTime, 0, len(byLayer))
	for _, r := range byLayer {
		if total > 0 {
			r.Share = 100 * r.SelfS / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows
}

// write saves the span trees and the self-time table under
// <state-dir>/trace and prints the table to out.
func (t *tracer) write(cfg config, out io.Writer) error {
	dir := filepath.Join(cfg.stateDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	roots := t.snapshot(t.roots)
	rows := selfTimes(roots)
	spans, err := json.Marshal(struct {
		Workload []obs.SpanData `json:"workload"`
		Probes   []obs.SpanData `json:"probes"`
	}{roots, t.snapshot(t.probes)})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "self time by layer (%d traced operations)\n", len(roots))
	fmt.Fprintf(&b, "  %-10s %8s %12s %8s\n", "layer", "spans", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %8d %12.6f %7.2f%%\n", r.Layer, r.Spans, r.SelfS, r.Share)
	}
	table, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".selftime.json", table, 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(out, b.String())
	return err
}
