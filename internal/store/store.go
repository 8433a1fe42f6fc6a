// Package store is farosd's crash-safe persistent result tier: a
// content-addressed on-disk store keyed by the deterministic spec-derived
// cache key (samples.SpecHash plus mode/config, see pipeline.cacheKey).
// Analysis results are deterministic, so a stored entry is as good as a
// fresh run — a restarted farosd serves its whole corpus from disk with
// zero re-execution.
//
// Durability model:
//
//   - Every entry is one file, written atomically: temp file in the same
//     directory → write → fsync → close → rename → directory fsync. A
//     crash at any point leaves either the old state or the new state,
//     never a half-visible entry (a leftover temp file is swept at Open).
//   - Every entry carries a versioned header and a SHA-256 of its payload.
//     Open scans the directory, verifies every checksum, and quarantines
//     (moves aside, never serves) corrupt or torn entries; Get re-verifies
//     on every read, so post-scan damage is also caught before it can be
//     served.
//   - Garbage collection is TTL-based (entries expire by write time) and
//     size-based (oldest-first eviction when the store exceeds MaxBytes).
//
// The filesystem is injectable (FS); internal/faults supplies an
// implementation that injects torn writes, short writes, bit flips, and
// EIO on fsync/rename, which is how the crash-recovery tests prove the
// quarantine machinery works.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry file layout, version 1 (all integers big-endian):
//
//	offset  0: magic "FSTO" (4 bytes)
//	offset  4: format version (1 byte)
//	offset  5: written-at, unix nanoseconds (8 bytes)
//	offset 13: payload length (8 bytes)
//	offset 21: SHA-256 of payload (32 bytes)
//	offset 53: payload
const (
	magic       = "FSTO"
	version     = 1
	headerSize  = 4 + 1 + 8 + 8 + sha256.Size
	entrySuffix = ".fre" // "faros result entry"
	tmpMarker   = ".tmp-"

	// QuarantineDir is the subdirectory corrupt entries are moved to.
	QuarantineDir = "quarantine"
)

// Config tunes a Store.
type Config struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// FS overrides the filesystem (default: the real OS). Tests and the
	// chaos harness inject fault-producing implementations here.
	FS FS
	// MaxBytes bounds the store's total on-disk size (headers + payloads).
	// 0 = unbounded. When a Put pushes the store over the bound, the
	// oldest entries (by write time) are evicted until it fits.
	MaxBytes int64
	// TTL expires entries this long after they were written (0 = never).
	// Expired entries are dropped at Open and at Get.
	TTL time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Stats is a snapshot of the store's counters and gauges.
type Stats struct {
	// Entries and Bytes describe the live index.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// CorruptQuarantined counts entries that failed verification (at Open
	// or Get) and were moved to the quarantine directory.
	CorruptQuarantined uint64 `json:"corrupt_quarantined"`
	// GCEvicted counts entries dropped by TTL expiry or size eviction.
	GCEvicted uint64 `json:"gc_evicted"`
}

// entryInfo is one indexed entry's bookkeeping.
type entryInfo struct {
	size      int64 // full file size, header included
	writtenAt time.Time
}

// Store is a crash-safe content-addressed result store. All methods are
// safe for concurrent use.
type Store struct {
	dir      string
	fsys     FS
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time

	mu      sync.Mutex
	entries map[string]entryInfo
	bytes   int64
	hits    uint64
	misses  uint64
	corrupt uint64
	evicted uint64
	lastErr error // sticky last write-path failure; nil after a clean Put
}

// ErrBadKey is wrapped by key-validation failures.
var ErrBadKey = errors.New("store: invalid key")

// validKey accepts lowercase-hex keys only — the store's keys are spec
// hashes, and restricting the alphabet keeps every key a safe single path
// component (no traversal, no collisions with the tmp/quarantine names).
func validKey(key string) error {
	if len(key) < 8 || len(key) > 128 {
		return fmt.Errorf("%w: %q: length must be 8..128", ErrBadKey, key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: %q: lowercase hex only", ErrBadKey, key)
		}
	}
	return nil
}

// Open opens (creating if needed) the store at cfg.Dir and runs the
// recovery scan: leftover temp files from interrupted writes are removed,
// every entry's header and checksum are verified, corrupt or torn entries
// are quarantined, and TTL-expired entries are dropped. Only entries that
// verified clean are indexed and servable.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("store: Config.MaxBytes %d is negative", cfg.MaxBytes)
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("store: Config.TTL %v is negative", cfg.TTL)
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(cfg.Dir, QuarantineDir)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		fsys:     fsys,
		maxBytes: cfg.MaxBytes,
		ttl:      cfg.TTL,
		now:      now,
		entries:  make(map[string]entryInfo),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan is Open's recovery pass.
func (s *Store) scan() error {
	dirents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	now := s.now()
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, name)
		if strings.Contains(name, tmpMarker) {
			// A temp file is an interrupted write: the entry was never
			// renamed into place, so dropping it loses nothing.
			_ = s.fsys.Remove(path)
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || validKey(key) != nil {
			// Not one of ours; leave it alone.
			continue
		}
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			s.quarantineLocked(name)
			continue
		}
		writtenAt, _, err := decodeEntry(data)
		if err != nil {
			s.quarantineLocked(name)
			continue
		}
		if s.ttl > 0 && now.After(writtenAt.Add(s.ttl)) {
			_ = s.fsys.Remove(path)
			s.evicted++
			continue
		}
		s.entries[key] = entryInfo{size: int64(len(data)), writtenAt: writtenAt}
		s.bytes += int64(len(data))
	}
	s.gcSizeLocked("")
	return nil
}

// quarantineLocked moves a damaged entry file aside so it can never be
// served again but stays available for postmortem; s.mu must be held (or
// the store not yet published).
func (s *Store) quarantineLocked(name string) {
	src := filepath.Join(s.dir, name)
	dst := filepath.Join(s.dir, QuarantineDir, name)
	if err := s.fsys.Rename(src, dst); err != nil {
		// Even quarantine can fail under injected faults; removing the
		// file still guarantees it is never served.
		_ = s.fsys.Remove(src)
	}
	s.corrupt++
}

// encodeEntry frames a payload with the version-1 header.
func encodeEntry(writtenAt time.Time, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], magic)
	buf[4] = version
	binary.BigEndian.PutUint64(buf[5:13], uint64(writtenAt.UnixNano()))
	binary.BigEndian.PutUint64(buf[13:21], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[21:21+sha256.Size], sum[:])
	copy(buf[headerSize:], payload)
	return buf
}

// CorruptError reports an entry file that failed verification; Reason
// says how. Open and Get quarantine such files.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "store: " + e.Reason }

// corrupt returns a *CorruptError with a formatted reason.
func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// decodeEntry verifies an entry file and returns its payload. Any
// deviation — short file, bad magic, unknown version, truncated payload
// (torn write), trailing garbage, checksum mismatch (bit rot) — is a
// *CorruptError, and the caller quarantines the file.
func decodeEntry(data []byte) (writtenAt time.Time, payload []byte, err error) {
	if len(data) < headerSize {
		return time.Time{}, nil, corrupt("entry truncated: %d bytes < %d header", len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return time.Time{}, nil, corrupt("bad magic %q", data[0:4])
	}
	if data[4] != version {
		return time.Time{}, nil, corrupt("unknown entry version %d", data[4])
	}
	writtenAt = time.Unix(0, int64(binary.BigEndian.Uint64(data[5:13])))
	plen := binary.BigEndian.Uint64(data[13:21])
	if plen != uint64(len(data)-headerSize) {
		return time.Time{}, nil, corrupt("payload length %d, have %d bytes (torn write?)", plen, len(data)-headerSize)
	}
	payload = data[headerSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[21:21+sha256.Size]) {
		return time.Time{}, nil, corrupt("payload checksum mismatch")
	}
	return writtenAt, payload, nil
}

// entryPath returns the on-disk path for a key.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// Put durably stores payload under key, replacing any previous entry. The
// write is atomic (temp file + fsync + rename + directory fsync): a crash
// mid-Put leaves the previous state intact. A failed Put leaves no partial
// entry and records the error for Err.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	buf := encodeEntry(now, payload)
	if err := s.writeAtomicLocked(key, buf); err != nil {
		s.lastErr = err
		return err
	}
	s.lastErr = nil
	if old, ok := s.entries[key]; ok {
		s.bytes -= old.size
	}
	s.entries[key] = entryInfo{size: int64(len(buf)), writtenAt: now}
	s.bytes += int64(len(buf))
	s.gcSizeLocked(key)
	return nil
}

// writeAtomicLocked performs the temp-write-sync-rename sequence; s.mu
// must be held.
func (s *Store) writeAtomicLocked(key string, buf []byte) error {
	f, err := s.fsys.CreateTemp(s.dir, key+tmpMarker+"*")
	if err != nil {
		return fmt.Errorf("store: put %s: create temp: %w", key, err)
	}
	tmp := f.Name()
	cleanup := func(stage string, err error) error {
		_ = f.Close()
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("store: put %s: %s: %w", key, stage, err)
	}
	if n, err := f.Write(buf); err != nil {
		return cleanup("write", err)
	} else if n != len(buf) {
		return cleanup("write", fmt.Errorf("short write: %d of %d bytes", n, len(buf)))
	}
	if err := f.Sync(); err != nil {
		return cleanup("fsync", err)
	}
	if err := f.Close(); err != nil {
		return cleanup("close", err)
	}
	if err := s.fsys.Rename(tmp, s.entryPath(key)); err != nil {
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("store: put %s: rename: %w", key, err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		// The rename already happened; the entry is visible but its
		// durability across power loss is not guaranteed. Surface the
		// error (readiness reports it) but keep the entry indexed.
		return fmt.Errorf("store: put %s: sync dir: %w", key, err)
	}
	return nil
}

// Get returns the payload stored under key. The entry is re-verified on
// every read: a corrupt entry is quarantined and reported as a miss, never
// served. Expired entries are dropped.
func (s *Store) Get(key string) ([]byte, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	if s.ttl > 0 && s.now().After(info.writtenAt.Add(s.ttl)) {
		s.dropLocked(key)
		s.evicted++
		s.misses++
		return nil, false
	}
	data, err := s.fsys.ReadFile(s.entryPath(key))
	if err != nil {
		delete(s.entries, key)
		s.bytes -= info.size
		s.misses++
		return nil, false
	}
	if _, payload, err := decodeEntry(data); err == nil {
		s.hits++
		return append([]byte(nil), payload...), true
	}
	s.quarantineLocked(key + entrySuffix)
	delete(s.entries, key)
	s.bytes -= info.size
	s.misses++
	return nil, false
}

// dropLocked removes an indexed entry and its file; s.mu must be held.
func (s *Store) dropLocked(key string) {
	info, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	s.bytes -= info.size
	_ = s.fsys.Remove(s.entryPath(key))
}

// gcSizeLocked evicts oldest-first until the store fits MaxBytes, sparing
// the just-written key so a Put always lands; s.mu must be held.
func (s *Store) gcSizeLocked(spare string) {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key       string
		writtenAt time.Time
	}
	order := make([]aged, 0, len(s.entries))
	for k, info := range s.entries {
		order = append(order, aged{k, info.writtenAt})
	}
	sort.Slice(order, func(i, j int) bool {
		if !order[i].writtenAt.Equal(order[j].writtenAt) {
			return order[i].writtenAt.Before(order[j].writtenAt)
		}
		return order[i].key < order[j].key
	})
	for _, a := range order {
		if s.bytes <= s.maxBytes {
			return
		}
		if a.key == spare {
			continue
		}
		s.dropLocked(a.key)
		s.evicted++
	}
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys returns the live keys, sorted (tests and debugging).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Err returns the most recent write-path failure, or nil after a clean
// Put. The readiness endpoint surfaces it: a store that cannot persist is
// degraded even though reads keep working.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:            len(s.entries),
		Bytes:              s.bytes,
		Hits:               s.hits,
		Misses:             s.misses,
		CorruptQuarantined: s.corrupt,
		GCEvicted:          s.evicted,
	}
}

// Close flushes directory state. Individual entries are already durable
// (every Put fsyncs); Close exists so a clean shutdown leaves nothing
// pending even on filesystems that defer rename metadata.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fsys.SyncDir(s.dir)
}
