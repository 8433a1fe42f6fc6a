package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"faros/internal/store"
)

// Store is the content-addressed trace tier: encoded traces keyed by their
// own digest, persisted through internal/store so every entry gets the
// same crash-safety contract as results — atomic temp+fsync+rename writes,
// checksum verification on every read, quarantine of torn or bit-rotted
// files, TTL and size GC. On top of the inner store it adds full-format
// verification at ingest (a trace that does not decode end-to-end is never
// admitted), dedup by content address, and an in-memory header index so
// listing traces never decompresses event streams.
//
// All methods are safe for concurrent use.
type Store struct {
	inner *store.Store

	mu   sync.Mutex
	meta map[string]Info // digest -> parsed header; mirrors the inner index
}

// StoreConfig tunes a trace Store; the fields mirror store.Config.
type StoreConfig struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// FS overrides the filesystem (tests and the chaos harness).
	FS store.FS
	// MaxBytes bounds total on-disk size; 0 = unbounded.
	MaxBytes int64
	// TTL expires traces this long after ingest (0 = never).
	TTL time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Info describes one stored trace: its content address, header, and size.
type Info struct {
	Digest string `json:"digest"`
	Meta
	Bytes int64 `json:"bytes"`
}

// OpenStore opens (creating if needed) the trace store and indexes the
// headers of every entry that survived the inner store's recovery scan.
// An entry that passes the inner checksum but no longer parses as a trace
// (possible only if a foreign file was dropped in under a valid key) is
// dropped from the index rather than served.
func OpenStore(cfg StoreConfig) (*Store, error) {
	inner, err := store.Open(store.Config{
		Dir: cfg.Dir, FS: cfg.FS, MaxBytes: cfg.MaxBytes, TTL: cfg.TTL, Now: cfg.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("trace store: %w", err)
	}
	s := &Store{inner: inner, meta: make(map[string]Info)}
	for _, key := range inner.Keys() {
		data, ok := inner.Get(key)
		if !ok {
			continue
		}
		meta, err := ReadMeta(data)
		if err != nil || Digest(data) != key {
			continue // not a trace under its own digest; never index it
		}
		s.meta[key] = Info{Digest: key, Meta: meta, Bytes: int64(len(data))}
	}
	return s, nil
}

// Put ingests an encoded trace: the blob is decoded end-to-end (header,
// every chunk, event count, whole-file checksum) before a byte touches
// disk, so the store can never hold an entry that fails replay framing.
// The key is the trace's own digest; re-uploading an existing trace is a
// dedup no-op reported by created=false.
func (s *Store) Put(data []byte) (digest string, created bool, err error) {
	meta, _, err := DecodeBytes(data)
	if err != nil {
		return "", false, err
	}
	if len(meta.SpecWire) == 0 {
		return "", false, &CorruptError{Reason: "trace has no embedded spec; not replayable"}
	}
	digest = Digest(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.meta[digest]; ok {
		// Already ingested. The inner entry can only have vanished through
		// GC; re-verify presence so dedup never hides a lost trace.
		if _, ok := s.inner.Get(digest); ok {
			return digest, false, nil
		}
		delete(s.meta, digest)
	}
	if err := s.inner.Put(digest, data); err != nil {
		return "", false, fmt.Errorf("trace store: %w", err)
	}
	s.meta[digest] = Info{Digest: digest, Meta: meta, Bytes: int64(len(data))}
	return digest, true, nil
}

// Get returns the encoded trace stored under digest. The inner store
// re-verifies the entry checksum on every read.
func (s *Store) Get(digest string) ([]byte, bool) {
	data, ok := s.inner.Get(digest)
	if !ok {
		s.mu.Lock()
		delete(s.meta, digest) // quarantined or expired underneath us
		s.mu.Unlock()
		return nil, false
	}
	return data, true
}

// Stat returns the stored trace's header and size without touching its
// event stream.
func (s *Store) Stat(digest string) (Info, bool) {
	s.mu.Lock()
	info, ok := s.meta[digest]
	s.mu.Unlock()
	if !ok {
		return Info{}, false
	}
	// The index can outlive an entry the inner GC evicted; reconcile.
	if _, live := s.inner.Get(digest); !live {
		s.mu.Lock()
		delete(s.meta, digest)
		s.mu.Unlock()
		return Info{}, false
	}
	return info, true
}

// List returns every stored trace's Info, sorted by digest. Index entries
// whose files the inner store has GC'd or quarantined are reconciled away.
func (s *Store) List() []Info {
	live := make(map[string]bool)
	for _, k := range s.inner.Keys() {
		live[k] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.meta))
	for digest, info := range s.meta {
		if !live[digest] {
			delete(s.meta, digest)
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Len returns the number of indexed traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.meta)
}

// Stats snapshots the inner store's counters.
func (s *Store) Stats() store.Stats { return s.inner.Stats() }

// Err surfaces the inner store's sticky write-path error (readiness).
func (s *Store) Err() error { return s.inner.Err() }

// Close flushes the inner store.
func (s *Store) Close() error { return s.inner.Close() }
