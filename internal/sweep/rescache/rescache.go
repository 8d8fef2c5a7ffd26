// Package rescache is the persistent half of the sweep subsystem: an
// on-disk, content-addressed result store. Entries are keyed by a
// fingerprint of everything that could change a simulation's output (the
// full machine spec, the commit budget, and the simulator/workload version
// strings).
//
// The store is an append-only segment log. Each Store appends to a segment
// file of its own, created on its first Put and named
// <creation-time>-<random>.seg, so segments sort in creation order. A
// record is a fixed header (magic, format, codec, key length, value length,
// CRC-32C of key and value) followed by the key and the value, written with
// one write call. Values that implement encoding.BinaryMarshaler (such as
// core.Result) are stored in their binary form; everything else as JSON.
// Open scans every segment's record headers, skipping over the values, into
// an in-memory index of key → (segment, offset, length); a key recorded
// more than once resolves to its last record in segment order. Get reads
// one record with one positioned read and checks it before decoding.
//
// Durability properties:
//
//   - a record becomes visible to Get only after its write returns, so
//     readers never see a torn record; a torn final record left by a crash
//     is ignored by Open and counted once in Stats().Errors (so is a
//     damaged record header, which ends the scan of its segment: the
//     records after it read as misses);
//   - reads are corruption tolerant: a record that fails its checks (magic,
//     key, CRC, codec, decoding) is a miss plus an error tick and is never
//     served again; the next Put of the key supersedes it. A record of
//     another format version is a quiet miss;
//   - the store is safe for concurrent use by multiple goroutines and by
//     multiple processes sharing one directory, since each process appends
//     only to its own segment.
//
// A Store sees records appended by other processes only from its next Open.
// Superseded and corrupt records stay on disk. Entries of the earlier
// one-JSON-file-per-entry layout (format 1, ??/<key>.json) are ignored.
package rescache

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion is the on-disk record format. Bumping it invalidates every
// existing record: records of another format read as quiet misses.
const FormatVersion = 2

const (
	segExt    = ".seg"
	headerLen = 16
	// magic opens every record, so a scan that lands anywhere but a record
	// boundary stops instead of indexing garbage.
	magic = 0x6c726372 // "rcrl" little endian

	codecJSON   = 1
	codecBinary = 2

	// maxPooled caps the record buffers kept for reuse.
	maxPooled = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binaryAppender is implemented by values that can encode themselves into
// a caller's buffer, which lets Put encode the value straight into the
// record instead of copying it there.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// loc is where a key's current record lives.
type loc struct {
	off int64
	n   uint32
	seg uint32 // index into Store.segs
}

// Store is one cache directory. Construct with Open. A Store keeps its
// segment files open for as long as it lives, so a process opens one Store
// per directory and keeps it.
type Store struct {
	dir string

	mu    sync.RWMutex
	segs  []*os.File
	index map[string]loc

	// wmu serializes appends to own, the segment this Store writes.
	wmu     sync.Mutex
	own     *os.File
	ownSeg  uint32
	ownSize int64

	hits   atomic.Int64
	misses atomic.Int64
	errs   atomic.Int64
	bytes  atomic.Int64
}

// Open creates (if needed) and validates the cache directory, probing that
// it is writable so that misconfiguration surfaces at startup rather than
// as a silent per-entry write failure mid-sweep, then indexes every segment
// in it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("rescache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("rescache: directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]loc)}
	var buf []byte
	for _, e := range ents { // ReadDir sorts by name: creation order
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			s.errs.Add(1)
			continue
		}
		s.segs = append(s.segs, f)
		buf = s.scan(f, uint32(len(s.segs)-1), buf)
	}
	return s, nil
}

// scan indexes the records of one segment, reading the file through a
// window buffer and checking only headers and keys. A segment that ends in
// an incomplete record, or in bytes that are not a record, counts one error;
// everything before that point stays indexed.
func (s *Store) scan(f *os.File, seg uint32, buf []byte) []byte {
	if buf == nil {
		buf = make([]byte, 64<<10)
	}
	var base int64 // file offset of buf[0]
	var have int   // valid bytes in buf
	window := func(off int64, n int) []byte {
		if off >= base && off+int64(n) <= base+int64(have) {
			return buf[off-base:][:n]
		}
		if n > len(buf) {
			buf = make([]byte, n)
		}
		m, _ := f.ReadAt(buf, off)
		base, have = off, m
		if m < n {
			return nil
		}
		return buf[:n]
	}
	var off int64
	for {
		hdr := window(off, headerLen)
		if hdr == nil {
			if have > 0 {
				s.errs.Add(1) // torn header
			}
			return buf
		}
		h, ok := parseHeader(hdr)
		if !ok || h.size() > math.MaxUint32 {
			s.errs.Add(1)
			return buf
		}
		// Probe the record's last byte before reading its key (a window
		// read reuses buf): a torn value is as unusable as a torn key.
		if window(off+int64(h.size())-1, 1) == nil {
			s.errs.Add(1)
			return buf
		}
		if h.format == FormatVersion {
			key := window(off+headerLen, h.keyLen)
			s.index[string(key)] = loc{off: off, n: uint32(h.size()), seg: seg}
		}
		s.bytes.Add(int64(h.size()))
		off += int64(h.size())
	}
}

// header is a record's fixed prefix.
type header struct {
	format, codec byte
	keyLen        int
	valLen        int
	crc           uint32
}

func (h header) size() int { return headerLen + h.keyLen + h.valLen }

// parseHeader decodes a record header, reporting whether it opens with the
// record magic.
func parseHeader(b []byte) (header, bool) {
	if binary.LittleEndian.Uint32(b) != magic {
		return header{}, false
	}
	return header{
		format: b[4],
		codec:  b[5],
		keyLen: int(binary.LittleEndian.Uint16(b[6:])),
		valLen: int(binary.LittleEndian.Uint32(b[8:])),
		crc:    binary.LittleEndian.Uint32(b[12:]),
	}, true
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// bufPool holds the buffers Get reads records into and Put encodes them in.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		bufPool.Put(bp)
	}
}

// Get loads the entry for key into v, reporting whether it was present and
// intact. A record that fails any check — short read, bad magic, key
// mismatch, CRC mismatch, a codec v cannot decode, a value that does not
// decode — counts as a miss plus an error tick and is dropped from the
// index, so it is never served again; the next Put of key supersedes it. A
// record of another format version is a quiet miss.
func (s *Store) Get(key string, v any) bool {
	s.mu.RLock()
	l, ok := s.index[key]
	var f *os.File
	if ok {
		f = s.segs[l.seg]
	}
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return false
	}
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	if cap(*bp) < int(l.n) {
		*bp = make([]byte, l.n)
	}
	rec := (*bp)[:l.n]
	if _, err := f.ReadAt(rec, l.off); err != nil {
		return s.corrupt(key, l)
	}
	h, ok := parseHeader(rec)
	if !ok || h.size() != len(rec) || string(rec[headerLen:headerLen+h.keyLen]) != key {
		return s.corrupt(key, l)
	}
	if h.format != FormatVersion {
		s.drop(key, l)
		s.misses.Add(1)
		return false
	}
	if crc32.Checksum(rec[headerLen:], castagnoli) != h.crc {
		return s.corrupt(key, l)
	}
	val := rec[headerLen+h.keyLen:]
	var err error
	switch u, binOK := v.(encoding.BinaryUnmarshaler); {
	case h.codec == codecBinary && binOK:
		err = u.UnmarshalBinary(val)
	case h.codec == codecJSON:
		err = json.Unmarshal(val, v)
	default:
		err = fmt.Errorf("rescache: codec %d cannot decode into %T", h.codec, v)
	}
	if err != nil {
		return s.corrupt(key, l)
	}
	s.hits.Add(1)
	return true
}

// corrupt drops a defective record and counts it; it always reports a miss.
// A defect in this Store's own segment means the file was damaged under it,
// so later Puts go to a fresh segment rather than after the damage.
func (s *Store) corrupt(key string, l loc) bool {
	s.drop(key, l)
	s.errs.Add(1)
	s.misses.Add(1)
	s.wmu.Lock()
	if s.own != nil && l.seg == s.ownSeg {
		s.own = nil
	}
	s.wmu.Unlock()
	return false
}

// drop removes key from the index unless a Put has superseded l meanwhile.
func (s *Store) drop(key string, l loc) {
	s.mu.Lock()
	if s.index[key] == l {
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// Put appends v as the record for key with a single write to this Store's
// segment, creating the segment on first use. The record is indexed only
// once the write has returned. A failed write (a full disk, say) is cut
// back off the segment, so the records after it stay readable.
func (s *Store) Put(key string, v any) error {
	if len(key) > math.MaxUint16 {
		return fmt.Errorf("rescache: key of %d bytes is too long", len(key))
	}
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	rec, err := appendRecord((*bp)[:0], key, v)
	*bp = rec
	if err != nil {
		return fmt.Errorf("rescache: encode %s: %w", key, err)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.own == nil {
		if err := s.createSegment(); err != nil {
			return err
		}
	}
	off := s.ownSize
	if _, err := s.own.Write(rec); err != nil {
		// Cut the partial record off; if that fails too, leave the
		// segment to its torn tail and start a new one on the next Put.
		if s.own.Truncate(off) != nil {
			s.own = nil
		}
		return fmt.Errorf("rescache: write %s: %w", key, err)
	}
	s.ownSize += int64(len(rec))
	s.bytes.Add(int64(len(rec)))
	s.mu.Lock()
	s.index[key] = loc{off: off, n: uint32(len(rec)), seg: s.ownSeg}
	s.mu.Unlock()
	return nil
}

// appendRecord appends the record for key and v to b.
func appendRecord(b []byte, key string, v any) ([]byte, error) {
	b = append(b, make([]byte, headerLen)...)
	b = append(b, key...)
	codec := byte(codecBinary)
	var err error
	switch m := v.(type) {
	case binaryAppender:
		b, err = m.AppendBinary(b)
	case encoding.BinaryMarshaler:
		var val []byte
		if val, err = m.MarshalBinary(); err == nil {
			b = append(b, val...)
		}
	default:
		codec = codecJSON
		var val []byte
		if val, err = json.Marshal(v); err == nil {
			b = append(b, val...)
		}
	}
	if err != nil {
		return b, err
	}
	if len(b) > math.MaxUint32 {
		return b, fmt.Errorf("record of %d bytes is too large", len(b))
	}
	binary.LittleEndian.PutUint32(b, magic)
	b[4], b[5] = FormatVersion, codec
	binary.LittleEndian.PutUint16(b[6:], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(b)-headerLen-len(key)))
	binary.LittleEndian.PutUint32(b[12:], crc32.Checksum(b[headerLen:], castagnoli))
	return b, nil
}

// createSegment opens a fresh segment for this Store's appends. Its name
// leads with the creation time, so a later segment sorts after every
// segment that existed when this Store opened.
func (s *Store) createSegment() error {
	for {
		var rnd [4]byte
		rand.Read(rnd[:])
		name := fmt.Sprintf("%016x-%x%s", time.Now().UnixNano(), rnd, segExt)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("rescache: %w", err)
		}
		s.mu.Lock()
		s.segs = append(s.segs, f)
		s.ownSeg = uint32(len(s.segs) - 1)
		s.mu.Unlock()
		s.own, s.ownSize = f, 0
		return nil
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts Gets served from an intact record.
	Hits int64
	// Misses counts Gets that found no usable record (including every
	// corrupt or stale one).
	Misses int64
	// Errors counts defective records encountered: corrupt records read by
	// Get, and segments Open found unreadable or ending in a torn record.
	// Every corrupt record read is also counted as a miss.
	Errors int64
	// Bytes is the size of the complete records in the segments at Open
	// plus the bytes this Store has appended since. Superseded and corrupt
	// records are included: they stay on disk.
	Bytes int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Errors: s.errs.Load(), Bytes: s.bytes.Load()}
}

// Fingerprint derives a content address from any JSON-encodable value: the
// hex SHA-256 of its canonical encoding. Callers should pass a struct whose
// fields enumerate everything that can change the cached computation's
// output; two specs collide only if they encode identically.
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Fingerprint inputs are plain structs of scalars; an encoding
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("rescache: fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
