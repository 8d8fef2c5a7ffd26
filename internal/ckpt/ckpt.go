// Package ckpt is the checkpoint store behind sweep fast-forwarding: it
// holds full-fidelity machine snapshots (warm-up prefixes shared between
// configurations) and finished results, in memory and optionally on disk.
//
// The store is deliberately dumb: keys are opaque strings the experiment
// layer derives from config fingerprints, and the store never inspects what
// a key means. All sharing-soundness decisions (which configurations may
// serve which entries) live in internal/exper, next to the preservation
// argument in core.Resume and rename.RestoreUnit.
//
// Disk persistence reuses the rescache segment log (one CRC-checked record
// per entry, corruption-tolerant reads), storing a JSON ckpt envelope that
// carries the format version and entry kind; Decode over that inner
// envelope is total, so a corrupt or hostile file can only read as a miss.
package ckpt

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"regsim/internal/core"
	"regsim/internal/sweep/rescache"
)

// Version identifies the checkpoint entry format. It is folded into the
// experiment layer's cache fingerprints, so bumping it (for a snapshot
// layout change, or a sharing-rule fix that old entries predate) atomically
// invalidates every persisted checkpoint and result.
const Version = "ckpt-2"

// FormatVersion is the inner envelope's structural revision.
const FormatVersion = 1

// Kind discriminates the two entry types.
type Kind string

const (
	// KindSnapshot entries carry a machine snapshot (a resumable warm-up
	// prefix).
	KindSnapshot Kind = "snapshot"
	// KindResult entries carry a finished run's Result.
	KindResult Kind = "result"
)

// Envelope is the serialized checkpoint entry.
type Envelope struct {
	Format  int            `json:"format"`
	Version string         `json:"version"`
	Kind    Kind           `json:"kind"`
	Key     string         `json:"key"`
	Snap    *core.Snapshot `json:"snap,omitempty"`
	Result  *core.Result   `json:"result,omitempty"`
}

// Validate checks an envelope's structural sanity, delegating snapshot
// internals to core.Snapshot.Validate. It is total over decoded input.
func (e *Envelope) Validate() error {
	if e.Format != FormatVersion {
		return fmt.Errorf("ckpt: envelope format %d, want %d", e.Format, FormatVersion)
	}
	if e.Version != Version {
		return fmt.Errorf("ckpt: envelope version %q, want %q", e.Version, Version)
	}
	if e.Key == "" {
		return fmt.Errorf("ckpt: envelope has no key")
	}
	switch e.Kind {
	case KindSnapshot:
		if e.Snap == nil {
			return fmt.Errorf("ckpt: snapshot envelope has no snapshot")
		}
		return e.Snap.Validate()
	case KindResult:
		if e.Result == nil {
			return fmt.Errorf("ckpt: result envelope missing result")
		}
		return nil
	default:
		return fmt.Errorf("ckpt: unknown envelope kind %q", e.Kind)
	}
}

// Decode parses and validates a serialized envelope. It is total: any input
// bytes — truncated, corrupt, or hostile — produce an error, never a panic,
// and a nil error guarantees the envelope passed full structural validation
// (for snapshots, down through every component's Validate).
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Encode serializes an envelope (the inverse of Decode).
func Encode(e *Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// Store holds checkpoint entries. All methods are safe for concurrent use.
// Entries are immutable once stored: Snapshot returns the shared snapshot
// (which core.Resume never mutates), Result returns a deep copy.
type Store struct {
	mu      sync.Mutex
	snaps   map[string]*core.Snapshot
	results map[string]*core.Result

	disk *rescache.Store // nil for memory-only stores

	snapHits, snapMisses     atomic.Int64
	resultHits, resultMisses atomic.Int64
}

// NewStore returns a memory-only store (entries die with the process).
func NewStore() *Store {
	return &Store{
		snaps:   make(map[string]*core.Snapshot),
		results: make(map[string]*core.Result),
	}
}

// OpenStore returns a store that additionally persists entries under dir,
// sharing rescache's durability properties (torn-write safe appends,
// corruption-tolerant reads, multi-process safe). Entries read from disk are
// cached in memory.
func OpenStore(dir string) (*Store, error) {
	disk, err := rescache.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := NewStore()
	s.disk = disk
	return s, nil
}

// Dir returns the backing directory, or "" for a memory-only store.
func (s *Store) Dir() string {
	if s.disk == nil {
		return ""
	}
	return s.disk.Dir()
}

// diskKey suffixes the entry kind so snapshot and result entries for the
// same logical key never collide in the shared rescache namespace.
func diskKey(kind Kind, key string) string {
	if kind == KindSnapshot {
		return key + "-s"
	}
	return key + "-r"
}

// PutSnapshot stores a snapshot under key. Disk-write failures are
// returned but leave the in-memory entry in place: a full disk degrades
// persistence, not correctness.
func (s *Store) PutSnapshot(key string, snap *core.Snapshot) error {
	s.mu.Lock()
	s.snaps[key] = snap
	s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	dk := diskKey(KindSnapshot, key)
	return s.disk.Put(dk, &Envelope{
		Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: dk, Snap: snap,
	})
}

// Snapshot loads the snapshot stored under key, consulting memory first and
// then disk. The returned snapshot is shared and must be treated read-only
// (core.Resume copies out of it and never writes into it).
func (s *Store) Snapshot(key string) (*core.Snapshot, bool) {
	s.mu.Lock()
	snap, ok := s.snaps[key]
	s.mu.Unlock()
	if ok {
		s.snapHits.Add(1)
		return snap, true
	}
	if s.disk != nil {
		var e Envelope
		if s.disk.Get(diskKey(KindSnapshot, key), &e) && e.Validate() == nil && e.Kind == KindSnapshot {
			s.mu.Lock()
			s.snaps[key] = e.Snap
			s.mu.Unlock()
			s.snapHits.Add(1)
			return e.Snap, true
		}
	}
	s.snapMisses.Add(1)
	return nil, false
}

// PutResult stores a finished result under key. The result is deep-copied
// on the way in, so later mutation by the caller cannot corrupt the store.
func (s *Store) PutResult(key string, res *core.Result) error {
	res = res.Clone()
	s.mu.Lock()
	s.results[key] = res
	s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	dk := diskKey(KindResult, key)
	return s.disk.Put(dk, &Envelope{
		Format: FormatVersion, Version: Version, Kind: KindResult, Key: dk, Result: res,
	})
}

// Result loads the result stored under key, returning a deep copy (no
// caller may alias another's histograms).
func (s *Store) Result(key string) (*core.Result, bool) {
	s.mu.Lock()
	res, ok := s.results[key]
	s.mu.Unlock()
	if ok {
		s.resultHits.Add(1)
		return res.Clone(), true
	}
	if s.disk != nil {
		var e Envelope
		if s.disk.Get(diskKey(KindResult, key), &e) && e.Validate() == nil && e.Kind == KindResult {
			s.mu.Lock()
			s.results[key] = e.Result
			s.mu.Unlock()
			s.resultHits.Add(1)
			return e.Result.Clone(), true
		}
	}
	s.resultMisses.Add(1)
	return nil, false
}

// Stats is a point-in-time snapshot of the store's hit/miss counters.
type Stats struct {
	SnapshotHits   int64
	SnapshotMisses int64
	ResultHits     int64
	ResultMisses   int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		SnapshotHits:   s.snapHits.Load(),
		SnapshotMisses: s.snapMisses.Load(),
		ResultHits:     s.resultHits.Load(),
		ResultMisses:   s.resultMisses.Load(),
	}
}

// Milestones returns the snapshot-capture grid for a commit budget: powers
// of two from 1024 up to (exclusive) the budget, then the budget itself.
// The final milestone — the completed run's state — is what lets a larger-
// budget run resume where a smaller one finished, since milestone keys are
// budget-independent (a run's trajectory does not depend on where it will
// be told to stop).
func Milestones(budget int64) []int64 {
	var ms []int64
	for mi := int64(1024); mi < budget; mi <<= 1 {
		ms = append(ms, mi)
	}
	return append(ms, budget)
}
