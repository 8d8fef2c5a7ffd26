package telemetry

import "fmt"

// SweepStats is the observability snapshot of one experiment sweep: the
// scheduler's execution/deduplication counters and the persistent result
// cache's hit/miss/error counters. internal/exper fills it from the sweep
// engine and rescache store; cmd/paper prints it after a verbose sweep.
type SweepStats struct {
	// Workers is the scheduler's worker-pool bound.
	Workers int `json:"workers"`
	// Active counts simulations executing at the moment of the snapshot
	// (Active/Workers is the pool's instantaneous utilization).
	Active int64 `json:"active"`
	// Runs counts simulations actually executed this process.
	Runs int64 `json:"runs"`
	// Shared counts specs answered from a pressure-free sibling run (a
	// copy of its Result, proved identical) instead of being simulated.
	Shared int64 `json:"shared"`
	// MemoHits counts requests answered from the in-memory memo.
	MemoHits int64 `json:"memoHits"`
	// Deduped counts requests that piggybacked on an in-flight execution
	// of the same spec (singleflight coalescing).
	Deduped int64 `json:"deduped"`
	// CacheHits/CacheMisses/CacheErrors are the persistent result-cache
	// counters; all zero when no cache is attached. Every error (corrupt
	// entry, unreadable file) is also counted as a miss and answered by
	// re-simulation.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheErrors int64 `json:"cacheErrors"`
	// CacheBytes is the persistent result cache's size on disk: the
	// records it indexed at open plus those appended since. The store is
	// append-only, so this only grows.
	CacheBytes int64 `json:"cacheBytes"`
}

// String renders the snapshot as a one-line summary.
func (s SweepStats) String() string {
	line := fmt.Sprintf("sweep: %d workers, %d simulated, %d shared, %d memo hits, %d deduped",
		s.Workers, s.Runs, s.Shared, s.MemoHits, s.Deduped)
	if s.CacheHits+s.CacheMisses+s.CacheErrors > 0 {
		line += fmt.Sprintf("; cache: %d hits, %d misses, %d errors, %d bytes",
			s.CacheHits, s.CacheMisses, s.CacheErrors, s.CacheBytes)
	}
	return line
}
