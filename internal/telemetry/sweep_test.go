package telemetry

import (
	"strings"
	"testing"
)

// TestSweepStatsCacheLine: the one-line summary carries the persistent
// cache's size next to its counters, and omits the cache part when no
// cache was consulted.
func TestSweepStatsCacheLine(t *testing.T) {
	s := SweepStats{Workers: 2, Runs: 1, CacheHits: 17, CacheMisses: 1, CacheErrors: 1, CacheBytes: 2638}
	if got, want := s.String(), "; cache: 17 hits, 1 misses, 1 errors, 2638 bytes"; !strings.HasSuffix(got, want) {
		t.Errorf("String() = %q, want suffix %q", got, want)
	}
	if got := (SweepStats{Workers: 2, Runs: 3}).String(); strings.Contains(got, "cache:") {
		t.Errorf("String() without a cache = %q", got)
	}
}
