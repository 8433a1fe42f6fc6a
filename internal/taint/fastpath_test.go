package taint

import (
	"math/rand"
	"slices"
	"testing"
)

// The range fast paths (MemSetRange, MemUnionFrom) and the
// page-granular live counters must be invisible: every operation has to
// produce bit-identical shadow state, identical interned ProvIDs, and an
// identical watch-event stream to the naive byte-at-a-time reference.
// These tests pin that equivalence down.

// TaintedPages returns the number of shadow pages carrying any taint.
func (s *Store) TaintedPages() int { return s.stats.TaintedPages }

// refModel is the per-byte reference: a plain map shadow with no pages, no
// live counters, and no skips. Unions go through the same Store so ProvIDs
// are comparable across the two models.
type refModel struct {
	s      *Store
	shadow map[uint64]ProvID
	events []watchEvent
}

type watchEvent struct {
	pa       uint64
	old, new ProvID
}

func (r *refModel) setRange(pa uint64, n int, id ProvID) {
	for i := 0; i < n; i++ {
		a := pa + uint64(i)
		old := r.shadow[a]
		if old != id {
			r.events = append(r.events, watchEvent{a, old, id})
		}
		if id == 0 {
			delete(r.shadow, a)
		} else {
			r.shadow[a] = id
		}
	}
}

func (r *refModel) unionFrom(acc ProvID, pa uint64, n int) ProvID {
	for i := 0; i < n; i++ {
		if id := r.shadow[pa+uint64(i)]; id != 0 {
			acc = r.s.Union(acc, id)
		}
	}
	return acc
}

func (r *refModel) taintedBytes() int { return len(r.shadow) }

func (r *refModel) taintedPages() int {
	pages := map[uint64]struct{}{}
	for pa := range r.shadow {
		pages[pa/shadowPageSize] = struct{}{}
	}
	return len(pages)
}

// TestRangeOpsMatchPerByteReference drives random workloads through the
// fast range operations and the per-byte reference in lockstep. Any
// divergence — a skipped write, a reordered union, a missed or spurious
// watch event, a drifting live counter — fails the run.
func TestRangeOpsMatchPerByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42)) // deterministic: failures reproduce
	s := NewStore(0)
	ref := &refModel{s: s, shadow: map[uint64]ProvID{}}
	var got []watchEvent
	s.SetWatch(func(pa uint64, old, new ProvID) {
		got = append(got, watchEvent{pa, old, new})
	})

	// A handful of interned lists to write, plus 0 (clear).
	ids := []ProvID{0}
	for i := 0; i < 6; i++ {
		id := s.Single(Tag{Type: TagProcess, Index: uint16(i)})
		id = s.Prepend(id, Tag{Type: TagNetflow, Index: uint16(i % 3)})
		ids = append(ids, id)
	}

	// Address pool straddles page boundaries and the dense/map split.
	addr := func() uint64 {
		base := []uint64{0, shadowPageSize - 7, 3 * shadowPageSize,
			maxDenseFrame * shadowPageSize, // spills into shadowHi
		}[rng.Intn(4)]
		return base + uint64(rng.Intn(64))
	}

	for op := 0; op < 5000; op++ {
		n := 1 + rng.Intn(48) // ranges cross page boundaries regularly
		switch rng.Intn(3) {
		case 0: // set / clear a range
			pa, id := addr(), ids[rng.Intn(len(ids))]
			s.MemSetRange(pa, n, id)
			ref.setRange(pa, n, id)
		case 1: // union over a range, with and without accumulator
			pa := addr()
			acc := ids[rng.Intn(len(ids))]
			if a, b := s.MemUnionFrom(acc, pa, n), ref.unionFrom(acc, pa, n); a != b {
				t.Fatalf("op %d: MemUnionFrom(%d, %#x, %d) = %d, reference %d", op, acc, pa, n, a, b)
			}
		case 2: // single-byte ops interleave with ranges
			pa, id := addr(), ids[rng.Intn(len(ids))]
			s.MemSet(pa, id)
			ref.setRange(pa, 1, id)
		}
	}

	// Shadow state: every byte the reference knows about, plus a sweep of
	// the whole touched window, must agree.
	for pa, want := range ref.shadow {
		if g := s.MemGet(pa); g != want {
			t.Fatalf("shadow[%#x] = %d, reference %d", pa, g, want)
		}
	}
	for _, base := range []uint64{0, shadowPageSize - 64, 3 * shadowPageSize, maxDenseFrame * shadowPageSize} {
		for i := uint64(0); i < 160; i++ {
			pa := base + i
			if g, want := s.MemGet(pa), ref.shadow[pa]; g != want {
				t.Fatalf("shadow[%#x] = %d, reference %d", pa, g, want)
			}
		}
	}

	// Watch streams must be identical, event for event, in order.
	if len(got) != len(ref.events) {
		t.Fatalf("watch events: store %d, reference %d", len(got), len(ref.events))
	}
	for i := range got {
		if got[i] != ref.events[i] {
			t.Fatalf("watch event %d: store %+v, reference %+v", i, got[i], ref.events[i])
		}
	}

	// Live accounting must agree with the reference's recount.
	if g, want := s.TaintedBytes(), ref.taintedBytes(); g != want {
		t.Fatalf("TaintedBytes = %d, reference %d", g, want)
	}
	if g, want := s.TaintedPages(), ref.taintedPages(); g != want {
		t.Fatalf("TaintedPages = %d, reference %d", g, want)
	}
}

// TestPageCounterBookkeeping walks the live counters through the full
// set → overwrite → clear cycle across two pages.
func TestPageCounterBookkeeping(t *testing.T) {
	s := NewStore(0)
	a := s.Single(Tag{Type: TagNetflow, Index: 1})
	b := s.Single(Tag{Type: TagProcess, Index: 2})

	if !s.FrameUntainted(0) || !s.FrameUntainted(1) {
		t.Fatal("fresh store: frames should be untainted")
	}

	// Set 4 bytes straddling the page-0/page-1 boundary.
	s.MemSetRange(shadowPageSize-2, 4, a)
	if s.TaintedBytes() != 4 || s.TaintedPages() != 2 {
		t.Fatalf("after set: bytes=%d pages=%d, want 4/2", s.TaintedBytes(), s.TaintedPages())
	}
	if s.FrameUntainted(0) || s.FrameUntainted(1) {
		t.Fatal("both frames should be tainted")
	}

	// Overwriting with a different list changes no counters.
	s.MemSetRange(shadowPageSize-2, 4, b)
	if s.TaintedBytes() != 4 || s.TaintedPages() != 2 {
		t.Fatalf("after overwrite: bytes=%d pages=%d, want 4/2", s.TaintedBytes(), s.TaintedPages())
	}

	// Clear page 0's half; page 0 goes untainted, page 1 keeps its bytes.
	s.MemSetRange(shadowPageSize-2, 2, 0)
	if !s.FrameUntainted(0) || s.FrameUntainted(1) {
		t.Fatalf("after partial clear: frame0 untainted=%v frame1 untainted=%v",
			s.FrameUntainted(0), s.FrameUntainted(1))
	}
	s.MemSetRange(shadowPageSize, 2, 0)
	if s.TaintedBytes() != 0 || s.TaintedPages() != 0 {
		t.Fatalf("after full clear: bytes=%d pages=%d, want 0/0", s.TaintedBytes(), s.TaintedPages())
	}
}

// TestLivePtrAndPageAllocs covers the engine-facing cache contract: LivePtr
// is stable for the page's lifetime, and a cached nil is valid exactly
// until PageAllocs moves.
func TestLivePtrAndPageAllocs(t *testing.T) {
	s := NewStore(0)
	id := s.Single(Tag{Type: TagFile, Index: 1})

	if s.LivePtr(5) != nil {
		t.Fatal("LivePtr on unallocated frame should be nil")
	}
	gen := s.PageAllocs()

	s.MemSet(5*shadowPageSize+10, id)
	if s.PageAllocs() == gen {
		t.Fatal("PageAllocs should move when a shadow page is allocated")
	}
	live := s.LivePtr(5)
	if live == nil || *live != 1 {
		t.Fatalf("LivePtr after taint: %v", live)
	}

	// Clearing drops the counter to zero but the pointer stays valid.
	s.MemSet(5*shadowPageSize+10, 0)
	if *live != 0 {
		t.Fatalf("live counter after clear = %d, want 0", *live)
	}
	if !s.FrameUntainted(5) {
		t.Fatal("frame should read as untainted through FrameUntainted too")
	}
	if s.LivePtr(5) != live {
		t.Fatal("LivePtr must be stable across clear/re-taint")
	}

	// No-op writes (same value) move neither ChangeCount nor the watch.
	s.MemSet(5*shadowPageSize+10, id)
	before := s.ChangeCount()
	fired := 0
	s.SetWatch(func(pa uint64, old, new ProvID) { fired++ })
	s.MemSet(5*shadowPageSize+10, id)
	if s.ChangeCount() != before {
		t.Fatal("no-op write must not bump ChangeCount")
	}
	if fired != 0 {
		t.Fatal("no-op write must not fire the watch")
	}
	s.MemSet(5*shadowPageSize+10, 0)
	if s.ChangeCount() != before+1 || fired != 1 {
		t.Fatalf("real write: changes moved %d, watch fired %d, want 1/1",
			s.ChangeCount()-before, fired)
	}
}

// TestUntaintedWritesCostNothing pins the no-op accounting: clearing memory
// that was never tainted allocates no pages, counts no shadow writes, and
// takes the whole-page skip.
func TestUntaintedWritesCostNothing(t *testing.T) {
	s := NewStore(0)
	s.MemSet(100, 0)
	s.MemSetRange(0, 3*shadowPageSize, 0)
	st := s.Stats()
	if st.ShadowWrites != 0 {
		t.Fatalf("ShadowWrites = %d, want 0 for untainted no-ops", st.ShadowWrites)
	}
	if s.PageAllocs() != 0 {
		t.Fatalf("PageAllocs = %d, want 0", s.PageAllocs())
	}
	if st.RangeFastSkips == 0 {
		t.Fatal("range ops over untainted pages should count fast-path skips")
	}
}

// TestPrependMemoHits verifies repeated stamps of the same tag onto the
// same list are answered from the memo table.
func TestPrependMemoHits(t *testing.T) {
	s := NewStore(0)
	base := s.Single(Tag{Type: TagNetflow, Index: 7})
	p := Tag{Type: TagProcess, Index: 3}
	first := s.Prepend(base, p)
	for i := 0; i < 10; i++ {
		if got := s.Prepend(base, p); got != first {
			t.Fatalf("memoized Prepend returned %d, want %d", got, first)
		}
	}
	st := s.Stats()
	if st.PrependMemoHits != 10 {
		t.Fatalf("PrependMemoHits = %d, want 10", st.PrependMemoHits)
	}
}

// TestSummariesMatchListWalk cross-checks the O(1) summary bits against a
// direct walk of every list interned by a small workload.
func TestSummariesMatchListWalk(t *testing.T) {
	s := NewStore(0)
	id := ProvID(0)
	tags := []Tag{
		{Type: TagNetflow, Index: 1},
		{Type: TagProcess, Index: 1},
		{Type: TagProcess, Index: 2},
		{Type: TagProcess, Index: 1}, // duplicate process
		{Type: TagFile, Index: 9},
		{Type: TagExportTable},
	}
	for _, tg := range tags {
		id = s.Prepend(id, tg)
	}
	u := s.Union(id, s.Single(Tag{Type: TagProcess, Index: 5}))

	for _, check := range []ProvID{id, u} {
		list := s.Tags(check)
		for tt := TagNetflow; tt <= TagExportTable; tt++ {
			want := false
			for _, tg := range list {
				if tg.Type == tt {
					want = true
				}
			}
			if got := s.Has(check, tt); got != want {
				t.Fatalf("Has(%d, %v) = %v, walk says %v", check, tt, got, want)
			}
		}
		distinct := map[uint16]struct{}{}
		for _, tg := range list {
			if tg.Type == TagProcess {
				distinct[tg.Index] = struct{}{}
			}
		}
		if got := s.DistinctProcessCount(check); got != len(distinct) {
			t.Fatalf("DistinctProcessCount(%d) = %d, walk says %d", check, got, len(distinct))
		}
	}
}

// TestMemSetRunMatchesPerByteStores holds MemSetRun to the block
// executor's per-byte store onto a page with a shadow page: skipped while
// the page is clean and the id is 0, else MemSame1 and, where that finds a
// different id, MemSet1. Over random pages (runs of a few lists, gaps, and
// pages whose only taint a run of zeros clears) the two must leave the
// same shadow bytes, Stats, change count and watch events, and MemSetRun
// must report the stores made before the page went clean.
func TestMemSetRunMatchesPerByteStores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var stores [2]*Store
		var events [2][]watchEvent
		watched := trial%2 == 1
		var ids []ProvID
		for k := range stores {
			s := NewStore(0)
			ids = []ProvID{0, s.Single(Tag{Type: TagNetflow, Index: 1}), s.Single(Tag{Type: TagNetflow, Index: 2})}
			if watched {
				k := k
				s.SetWatch(func(pa uint64, old, new ProvID) { events[k] = append(events[k], watchEvent{pa, old, new}) })
			}
			stores[k] = s
		}
		// One page: a few runs of ids, at least one tainted byte.
		const frame = 5
		base := uint64(frame * shadowPageSize)
		for off := 0; off < 256; {
			n, id := 1+rng.Intn(40), ids[rng.Intn(len(ids))]
			for _, s := range stores {
				s.MemSetRange(base+uint64(off), n, id)
			}
			off += n
		}
		one := base + uint64(rng.Intn(256))
		for _, s := range stores {
			s.MemSet(one, ids[1])
		}
		pa, n, id := base+uint64(rng.Intn(200)), 1+rng.Intn(100), ids[rng.Intn(len(ids))]
		if trial%4 == 0 {
			// A run of zeros over the page's only taint.
			k, only := 1+rng.Intn(30), ids[1+rng.Intn(2)]
			for _, s := range stores {
				s.MemSetRange(base, shadowPageSize, 0)
				s.MemSetRange(base+20, k, only)
			}
			pa, n, id = base+uint64(rng.Intn(20)), 60+rng.Intn(40), 0
		}
		events = [2][]watchEvent{}
		got := stores[0].MemSetRun(pa, n, id)
		ref, live, page := stores[1], stores[1].LivePtr(frame), stores[1].PageIDs(frame)
		want := 0
		for i := 0; i < n; i++ {
			if id == 0 && *live == 0 {
				continue
			}
			want = i + 1
			if !ref.MemSame1(pa+uint64(i), id, page) {
				ref.MemSet1(pa+uint64(i), id)
			}
		}
		if id != 0 {
			want = n
		}
		if got != want {
			t.Fatalf("trial %d: MemSetRun(%#x, %d, %d) = %d, per-byte stores made %d", trial, pa, n, id, got, want)
		}
		if a, b := stores[0].Stats(), ref.Stats(); a != b {
			t.Fatalf("trial %d: stats %+v, per-byte %+v", trial, a, b)
		}
		if a, b := stores[0].ChangeCount(), ref.ChangeCount(); a != b {
			t.Fatalf("trial %d: changes %d, per-byte %d", trial, a, b)
		}
		if a, b := stores[0].PageIDs(frame), page; !slices.Equal(a, b) {
			t.Fatalf("trial %d: shadow bytes diverged", trial)
		}
		if !slices.Equal(events[0], events[1]) {
			t.Fatalf("trial %d: watch events %v, per-byte %v", trial, events[0], events[1])
		}
	}
}
