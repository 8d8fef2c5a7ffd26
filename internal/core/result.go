package core

import (
	"regsim/internal/cache"
	"regsim/internal/rename"
)

// Version identifies the simulator's behavioural revision. It is folded
// into persistent result-cache fingerprints, so it MUST be bumped by any
// change that can alter a simulation's Result for the same configuration
// (pipeline rules, latencies, predictor details, statistics definitions).
const Version = "core-2"

// Result holds the statistics of one simulation run. Every field is
// exported and JSON-encodable: the wire protocol and the checkpoint store
// round-trip Results through JSON, so additions must remain losslessly
// serialisable (see TestResultJSONRoundTrip). The persistent result cache
// stores them in the binary codec of resultbin.go, so a new field must
// also join its counters or hists list (see TestResultBinaryRoundTrip).
type Result struct {
	// Cycles is the simulated run time.
	Cycles int64
	// Committed is the number of committed (architecturally retired)
	// instructions — the paper's "commit" count.
	Committed int64
	// Issued is the number of executed instructions, including
	// speculatively executed ones that were later squashed — the paper's
	// "executed" count.
	Issued int64

	// Class breakdowns of executed instructions.
	IssuedLoads  int64
	IssuedStores int64
	IssuedCondBr int64

	// Class breakdowns of committed instructions.
	CommittedLoads  int64
	CommittedCondBr int64

	// LoadMisses is the number of executed loads that missed in the data
	// cache (store-queue-forwarded loads never probe the cache).
	LoadMisses int64
	// ForwardedLoads received their value from an earlier uncommitted store.
	ForwardedLoads int64
	// Mispredicts is the number of executed conditional branches whose
	// predicted direction was wrong.
	Mispredicts int64

	// NoFreeRegCycles counts cycles during which the integer or the
	// floating-point free list was empty (Figure 6's register-pressure
	// metric: "the percentage of the run time for which there were no
	// free registers").
	NoFreeRegCycles int64
	// DispatchRegStalls counts cycles in which instruction insertion
	// actually stopped early for lack of a free register.
	DispatchRegStalls int64
	// DispatchQueueFullStalls counts cycles in which insertion stopped
	// because the dispatch queue was full.
	DispatchQueueFullStalls int64
	// WriteBufferStalls counts cycles in which commit stopped at a store
	// because a finite write buffer was full (always zero under the
	// paper's no-bandwidth assumption).
	WriteBufferStalls int64

	// Halted reports whether the program ran to its halt instruction
	// (rather than exhausting the commit budget).
	Halted bool
	// Checksum is the commit-stream checksum (see internal/ref).
	Checksum uint64

	// Live register histograms, only populated when
	// Config.TrackLiveRegisters is set. See LiveHist.
	Live [2]LiveHist // indexed by isa.RegFile

	// Ports holds per-cycle register-file port-usage histograms, populated
	// when Config.TrackLiveRegisters is set. The paper provisions 2×width
	// read and width write ports for the integer file (half each for FP)
	// "to prevent any write-port conflicts arising when registers are
	// filled on the resolution of a cache miss"; these distributions show
	// what the machine actually uses.
	Ports [2]PortHist // indexed by isa.RegFile

	// DCache is the data-cache activity counters.
	DCache cache.Stats
	// ICacheAccesses/ICacheMisses count instruction-cache activity.
	ICacheAccesses int64
	ICacheMisses   int64
}

// LiveHist records, for one register file, per-cycle histograms of the
// cumulative live-register category sums used by Figure 3's stacked regions:
//
//	Cum[0][n] — cycles with exactly n registers assigned to instructions
//	            still in the dispatch queue.
//	Cum[1][n] — ... n registers in the queue or in flight.
//	Cum[2][n] — ... plus registers waiting for the imprecise freeing
//	            conditions: the register count a machine with imprecise
//	            exceptions needs live.
//	Cum[3][n] — ... plus registers waiting only for the precise conditions:
//	            the total live count under precise exceptions.
//
// Counts include the hardwired zero register (in the wait-imprecise bucket
// and above), matching the paper's "at least 32 live registers" floor.
type LiveHist struct {
	Cum [rename.NumCategories][]int64
}

func newLiveHist(regsPerFile int) LiveHist {
	var h LiveHist
	for i := range h.Cum {
		h.Cum[i] = make([]int64, regsPerFile+2)
	}
	return h
}

func (h *LiveHist) record(counts [rename.NumCategories]int) {
	// The hardwired zero register is permanently live and can never be
	// freed under either model; count it with the wait-imprecise group.
	counts[rename.CatWaitImprecise]++
	sum := 0
	for c := 0; c < int(rename.NumCategories); c++ {
		sum += counts[c]
		h.Cum[c][sum]++
	}
}

// TotalLive returns the histogram of total live registers (the precise-model
// requirement; equal to Cum[3]).
func (h *LiveHist) TotalLive() []int64 { return h.Cum[rename.CatWaitPrecise] }

// CommitIPC returns committed instructions per cycle.
func (r *Result) CommitIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// IssueIPC returns executed instructions per cycle.
func (r *Result) IssueIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Issued) / float64(r.Cycles)
}

// LoadMissRate returns data-cache misses per executed load.
func (r *Result) LoadMissRate() float64 {
	if r.IssuedLoads == 0 {
		return 0
	}
	return float64(r.LoadMisses) / float64(r.IssuedLoads)
}

// MispredictRate returns mispredictions per executed conditional branch.
func (r *Result) MispredictRate() float64 {
	if r.IssuedCondBr == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.IssuedCondBr)
}

// NoFreeRegFraction returns the fraction of run time with an empty free list
// in either file.
func (r *Result) NoFreeRegFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.NoFreeRegCycles) / float64(r.Cycles)
}

// PortHist records, for one register file, histograms of ports used per
// cycle: Reads[n] counts cycles with exactly n operand reads at issue
// (hardwired-zero reads use no port), Writes[n] counts cycles with n result
// writes at completion (including cache-fill register writes).
type PortHist struct {
	Reads  []int64
	Writes []int64
}

func newPortHist() PortHist {
	return PortHist{Reads: make([]int64, portHistMax+1), Writes: make([]int64, portHistMax+1)}
}

// portHistMax caps the histograms: a cycle using more than 63 ports is
// counted in the last bucket rather than growing (or overrunning) the
// histogram. Reads per cycle are bounded by issue width × 2 operands, but
// completions are not bounded by issue width — a burst of cache fills
// arriving together can write arbitrarily many registers in one cycle — so
// the last bucket means "portHistMax or more". PortHist.Saturated reports
// whether that ever happened, and consumers (the metrics JSON dump) must
// treat the final bucket as open-ended.
const portHistMax = 63

// Saturated reports whether any cycle's port usage landed in the open-ended
// final bucket (portHistMax or more reads or writes), i.e. whether the
// histogram's tail under-reports true peak demand.
func (h *PortHist) Saturated() bool {
	if len(h.Reads) == 0 || len(h.Writes) == 0 {
		return false
	}
	return h.Reads[len(h.Reads)-1] > 0 || h.Writes[len(h.Writes)-1] > 0
}

func (h *PortHist) record(reads, writes int) {
	if reads > portHistMax {
		reads = portHistMax
	}
	if writes > portHistMax {
		writes = portHistMax
	}
	h.Reads[reads]++
	h.Writes[writes]++
}
