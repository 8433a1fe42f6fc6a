// Package taint implements the provenance-tracking substrate of FAROS:
// typed provenance tags, interned provenance lists, the per-type tag hash
// maps of the paper's Figure 5, the 3-byte prov_tag encoding of Figure 6,
// and the shadow memory keyed by physical address.
//
// A provenance list records the chronology of a byte's life in the system,
// newest activity at the head (the paper "adds a process tag into the head
// of that byte's provenance list"). Lists are immutable and interned: a
// ProvID names a list, and all propagation operates on ProvIDs, so copying
// taint between a million bytes is a million 32-bit stores.
package taint

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// TagType identifies the kind of system activity a tag records.
type TagType uint8

// Tag types (Figure 6).
const (
	TagNetflow TagType = iota + 1
	TagProcess
	TagFile
	TagExportTable
)

// String returns the tag type name.
func (tt TagType) String() string {
	switch tt {
	case TagNetflow:
		return "NetFlow"
	case TagProcess:
		return "Process"
	case TagFile:
		return "File"
	case TagExportTable:
		return "ExportTable"
	}
	return fmt.Sprintf("TagType?%d", uint8(tt))
}

// Tag is the paper's prov_tag: one byte of type and a 16-bit index into the
// hash map for that type (Figure 6). Export-table tags carry no index.
type Tag struct {
	Type  TagType
	Index uint16
}

// NetflowTag identifies a network connection (Figure 5).
type NetflowTag struct {
	SrcIP   string
	SrcPort uint16
	DstIP   string
	DstPort uint16
}

// String renders the netflow in the paper's Table II style.
func (n NetflowTag) String() string {
	return fmt.Sprintf("{src ip,port: %s:%d, dest ip,port: %s:%d}", n.SrcIP, n.SrcPort, n.DstIP, n.DstPort)
}

// FileTag identifies a file and its access version (Figure 5).
type FileTag struct {
	Name    string
	Version uint32
}

// ProcessTag identifies a process by its CR3 value, which uniquely
// identifies a process at the architecture level (Figure 5). PID and name
// are carried for report rendering only.
type ProcessTag struct {
	CR3  uint32
	PID  uint32
	Name string
}

// ProvID names an interned provenance list. Zero is the empty list.
type ProvID uint32

// Stats counts taint activity for the performance evaluation and the
// overtainting ablation.
type Stats struct {
	ListsInterned   int    `json:"lists_interned"`
	Prepends        uint64 `json:"prepends"`
	PrependMemoHits uint64 `json:"prepend_memo_hits"`
	// Unions counts every union requested; UnionMemoHits counts the ones
	// answered without constructing a list (identity fast-outs and
	// memo-table hits).
	Unions         uint64 `json:"unions"`
	UnionMemoHits  uint64 `json:"union_memo_hits"`
	ShadowWrites   uint64 `json:"shadow_writes"`
	RangeFastSkips uint64 `json:"range_fast_skips"` // whole-page skips taken by the range fast paths
	TaintedBytes   int    `json:"tainted_bytes"`    // live count of non-empty shadow bytes
	TaintedPages   int    `json:"tainted_pages"`    // live count of shadow pages holding any taint
	TagsExhausted  uint64 `json:"tags_exhausted"`
	ListsTruncated uint64 `json:"lists_truncated"`
}

const shadowPageSize = 4096

// shadowPage is one frame's worth of per-byte provenance plus a live-taint
// counter. live == 0 lets every range operation treat the page as untainted
// with a single comparison instead of shadowPageSize map probes.
type shadowPage struct {
	ids  [shadowPageSize]ProvID
	live int32
}

// maxDenseFrame bounds the frame-indexed shadow slice (4 GiB of physical
// memory). Frames beyond it — only reachable from synthetic test addresses —
// spill into a map.
const maxDenseFrame = 1 << 20

// listSummary holds the per-list policy bits computed once at intern time,
// making Has and DistinctProcessCount O(1) on the policy hot path.
type listSummary struct {
	typeMask  uint8  // bit (Type-1) set when the list holds a tag of Type
	procCount uint16 // number of distinct process tag indices
}

// Store owns all taint state: interned lists, tag hash maps, and the shadow
// memory over physical frames. It is not safe for concurrent use (the VM is
// single-threaded and deterministic).
type Store struct {
	lists     [][]Tag       // ProvID → tags, newest first; lists[0] is nil
	summaries []listSummary // parallel to lists; summaries[0] is zero
	intern    map[string]ProvID
	keyBuf    []byte            // scratch for intern-key construction
	unions    map[uint64]ProvID // memo for Union(a,b)
	prepends  map[uint64]ProvID // memo for Prepend(id,t)
	scratch   []Tag             // reusable union work list

	netflows   []NetflowTag
	netflowIdx map[NetflowTag]uint16
	files      []FileTag
	fileIdx    map[FileTag]uint16
	procs      []ProcessTag
	procIdx    map[uint32]uint16 // by CR3

	shadow   []*shadowPage          // physical frame → shadow page (dense)
	shadowHi map[uint64]*shadowPage // frames ≥ maxDenseFrame
	// pageAllocs counts shadow-page allocations; see PageAllocs.
	pageAllocs uint32
	// changes counts every shadow byte mutation; see ChangeCount.
	changes uint64
	listCap int
	stats   Stats

	// watch, when set, observes every shadow byte change (core's
	// byte-lifecycle tests and the range-op oracle set it; production
	// never does). It fires only on actual changes and must not mutate
	// the store.
	watch func(pa uint64, old, new ProvID)
}

// DefaultListCap bounds provenance list length. When a list exceeds the cap
// the oldest (origin) tag is preserved and middle history is truncated,
// since the origin is what the analyst needs (where did this byte come
// from) and the head is the attack-relevant recent history.
const DefaultListCap = 16

// NewStore creates an empty taint store. listCap ≤ 0 selects DefaultListCap.
func NewStore(listCap int) *Store {
	if listCap <= 0 {
		listCap = DefaultListCap
	}
	if listCap < 2 {
		listCap = 2
	}
	return &Store{
		lists:      make([][]Tag, 1), // ProvID 0 = empty
		summaries:  make([]listSummary, 1),
		intern:     make(map[string]ProvID),
		unions:     make(map[uint64]ProvID),
		prepends:   make(map[uint64]ProvID),
		netflowIdx: make(map[NetflowTag]uint16),
		fileIdx:    make(map[FileTag]uint16),
		procIdx:    make(map[uint32]uint16),
		listCap:    listCap,
	}
}

// Stats returns a snapshot of taint activity counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.ListsInterned = len(s.lists) - 1
	return st
}

// --- tag hash maps (Figure 5) ---

const maxTagIndex = 0xFFFF

// InternNetflow returns the tag for a network connection, creating the hash
// map entry on first sight.
func (s *Store) InternNetflow(nf NetflowTag) Tag {
	if idx, ok := s.netflowIdx[nf]; ok {
		return Tag{Type: TagNetflow, Index: idx}
	}
	if len(s.netflows) > maxTagIndex {
		s.stats.TagsExhausted++
		return Tag{Type: TagNetflow, Index: maxTagIndex}
	}
	idx := uint16(len(s.netflows))
	s.netflows = append(s.netflows, nf)
	s.netflowIdx[nf] = idx
	return Tag{Type: TagNetflow, Index: idx}
}

// InternFile returns the tag for (file, version).
func (s *Store) InternFile(name string, version uint32) Tag {
	ft := FileTag{Name: name, Version: version}
	if idx, ok := s.fileIdx[ft]; ok {
		return Tag{Type: TagFile, Index: idx}
	}
	if len(s.files) > maxTagIndex {
		s.stats.TagsExhausted++
		return Tag{Type: TagFile, Index: maxTagIndex}
	}
	idx := uint16(len(s.files))
	s.files = append(s.files, ft)
	s.fileIdx[ft] = idx
	return Tag{Type: TagFile, Index: idx}
}

// InternProcess returns the tag for a process, keyed by CR3.
func (s *Store) InternProcess(cr3, pid uint32, name string) Tag {
	if idx, ok := s.procIdx[cr3]; ok {
		return Tag{Type: TagProcess, Index: idx}
	}
	if len(s.procs) > maxTagIndex {
		s.stats.TagsExhausted++
		return Tag{Type: TagProcess, Index: maxTagIndex}
	}
	idx := uint16(len(s.procs))
	s.procs = append(s.procs, ProcessTag{CR3: cr3, PID: pid, Name: name})
	s.procIdx[cr3] = idx
	return Tag{Type: TagProcess, Index: idx}
}

// ExportTableTag returns the singleton export-table tag. The paper's
// implementation keeps no hash map for it because the tag itself is the
// information.
func (s *Store) ExportTableTag() Tag { return Tag{Type: TagExportTable} }

// Netflow returns the netflow record behind a tag index.
func (s *Store) Netflow(idx uint16) (NetflowTag, bool) {
	if int(idx) >= len(s.netflows) {
		return NetflowTag{}, false
	}
	return s.netflows[idx], true
}

// File returns the file record behind a tag index.
func (s *Store) File(idx uint16) (FileTag, bool) {
	if int(idx) >= len(s.files) {
		return FileTag{}, false
	}
	return s.files[idx], true
}

// Process returns the process record behind a tag index.
func (s *Store) Process(idx uint16) (ProcessTag, bool) {
	if int(idx) >= len(s.procs) {
		return ProcessTag{}, false
	}
	return s.procs[idx], true
}

// --- provenance lists ---

// internList returns the ProvID for tags, interning a copy if new. tags is
// newest-first and must already respect the cap. The interning key is the
// concatenated 3-byte tag encodings, built in a reusable buffer so the
// common hit case allocates nothing.
func (s *Store) internList(tags []Tag) ProvID {
	if len(tags) == 0 {
		return 0
	}
	buf := s.keyBuf[:0]
	for _, t := range tags {
		buf = append(buf, byte(t.Type), byte(t.Index), byte(t.Index>>8))
	}
	s.keyBuf = buf
	if id, ok := s.intern[string(buf)]; ok { // no-alloc map lookup
		return id
	}
	cp := make([]Tag, len(tags))
	copy(cp, tags)
	id := ProvID(len(s.lists))
	s.lists = append(s.lists, cp)
	s.summaries = append(s.summaries, summarize(cp))
	s.intern[string(buf)] = id
	return id
}

// summarize computes the O(1) policy bits for a list: which tag types it
// holds and how many distinct processes touched it. Lists are capped, so
// the quadratic distinct-count scan is over a handful of entries and runs
// once per unique list ever interned.
func summarize(tags []Tag) listSummary {
	var sum listSummary
	for i, t := range tags {
		if t.Type >= 1 && t.Type <= 8 {
			sum.typeMask |= 1 << (t.Type - 1)
		}
		if t.Type != TagProcess {
			continue
		}
		dup := false
		for _, prev := range tags[:i] {
			if prev.Type == TagProcess && prev.Index == t.Index {
				dup = true
				break
			}
		}
		if !dup {
			sum.procCount++
		}
	}
	return sum
}

// capTags enforces the list cap, preserving the newest cap-1 tags and the
// oldest (origin) tag.
func (s *Store) capTags(tags []Tag) []Tag {
	if len(tags) <= s.listCap {
		return tags
	}
	s.stats.ListsTruncated++
	out := make([]Tag, 0, s.listCap)
	out = append(out, tags[:s.listCap-1]...)
	out = append(out, tags[len(tags)-1])
	return out
}

// Tags returns the list behind id, newest first. The returned slice must not
// be modified.
func (s *Store) Tags(id ProvID) []Tag {
	if id == 0 || int(id) >= len(s.lists) {
		return nil
	}
	return s.lists[id]
}

// Single returns the one-element list holding t.
func (s *Store) Single(t Tag) ProvID {
	return s.internList([]Tag{t})
}

// Prepend adds t at the head of list id (most recent activity). It is a
// no-op when t is already the head, which keeps tight loops from growing
// lists unboundedly. Results are memoized on (id, t): propagation loops
// stamping the same process tag onto the same list pay one map probe.
func (s *Store) Prepend(id ProvID, t Tag) ProvID {
	s.stats.Prepends++
	memo := uint64(id)<<24 | uint64(t.Type)<<16 | uint64(t.Index)
	if out, ok := s.prepends[memo]; ok {
		s.stats.PrependMemoHits++
		return out
	}
	cur := s.Tags(id)
	var out ProvID
	if len(cur) > 0 && cur[0] == t {
		out = id
	} else {
		tags := make([]Tag, 0, len(cur)+1)
		tags = append(tags, t)
		tags = append(tags, cur...)
		out = s.internList(s.capTags(tags))
	}
	s.prepends[memo] = out
	return out
}

// Union merges two lists (the computation-dependency rule of Table I):
// the result holds a's tags followed by b's tags not already present,
// preserving each side's internal chronology. Union is memoized. Every
// request counts toward stats.Unions — including the identity fast-outs
// (a==b, or one side empty), which previously returned before the counter
// and left workloads whose unions all hit the fast-outs reporting zero
// union activity. Identity fast-outs count as memo hits: like a memo-table
// hit, they answer without constructing a list.
func (s *Store) Union(a, b ProvID) ProvID {
	s.stats.Unions++
	if a == b || b == 0 {
		s.stats.UnionMemoHits++
		return a
	}
	if a == 0 {
		s.stats.UnionMemoHits++
		return b
	}
	memo := uint64(a)<<32 | uint64(b)
	if id, ok := s.unions[memo]; ok {
		s.stats.UnionMemoHits++
		return id
	}
	ta, tb := s.Tags(a), s.Tags(b)
	// Dedup via linear containment over the reusable scratch list: lists
	// are capped to a handful of tags, so the scan beats a throwaway map.
	out := s.scratch[:0]
	for _, t := range ta {
		if !containsTag(out, t) {
			out = append(out, t)
		}
	}
	for _, t := range tb {
		if !containsTag(out, t) {
			out = append(out, t)
		}
	}
	s.scratch = out
	id := s.internList(s.capTags(out))
	s.unions[memo] = id
	return id
}

// containsTag reports whether tags holds t.
func containsTag(tags []Tag, t Tag) bool {
	for _, have := range tags {
		if have == t {
			return true
		}
	}
	return false
}

// Has reports whether list id contains a tag of type tt. It reads the
// summary bits computed at intern time: one load, no list walk.
func (s *Store) Has(id ProvID, tt TagType) bool {
	if id == 0 || int(id) >= len(s.summaries) || tt < 1 || tt > 8 {
		return false
	}
	return s.summaries[id].typeMask&(1<<(tt-1)) != 0
}

// DistinctProcessCount returns the number of distinct process tags in list
// id, precomputed at intern time — the policy's two-process confluence test
// without walking the list.
func (s *Store) DistinctProcessCount(id ProvID) int {
	if id == 0 || int(id) >= len(s.summaries) {
		return 0
	}
	return int(s.summaries[id].procCount)
}

// FirstOfType returns the newest tag of type tt in list id.
func (s *Store) FirstOfType(id ProvID, tt TagType) (Tag, bool) {
	for _, t := range s.Tags(id) {
		if t.Type == tt {
			return t, true
		}
	}
	return Tag{}, false
}

// DistinctProcesses returns the distinct process tag indices in list id,
// newest first.
func (s *Store) DistinctProcesses(id ProvID) []uint16 {
	var out []uint16
	for _, t := range s.Tags(id) {
		if t.Type != TagProcess {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == t.Index {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t.Index)
		}
	}
	return out
}

// --- shadow memory (keyed by physical address) ---

// page returns the shadow page for a frame, or nil when none exists.
func (s *Store) page(frame uint64) *shadowPage {
	if frame < maxDenseFrame {
		if frame < uint64(len(s.shadow)) {
			return s.shadow[frame]
		}
		return nil
	}
	return s.shadowHi[frame]
}

// FrameUntainted reports whether no byte of the given physical frame
// carries taint. It is the engine-facing page summary: callers that learn a
// frame is untainted can skip shadow reads (and untainted shadow writes)
// for the whole page until the shadow state changes.
func (s *Store) FrameUntainted(frame uint64) bool {
	p := s.page(frame)
	return p == nil || p.live == 0
}

// LivePtr returns a pointer to the frame's live-taint counter, or nil when
// the frame has no shadow page yet. The pointer stays valid for the page's
// lifetime (pages are never freed or moved until Release), so an engine can
// cache it and answer "is this page untainted" with a single load — no
// epochs, no revalidation. A nil result is only stable until the next page
// allocation; gate cached nils on PageAllocs.
func (s *Store) LivePtr(frame uint64) *int32 {
	p := s.page(frame)
	if p == nil {
		return nil
	}
	return &p.live
}

// PageIDs returns the frame's shadow bytes as a slice, or nil when the
// frame has no shadow page yet. Shadow pages are never freed until Release,
// so the slice stays valid until then. READ-ONLY for callers: all writes
// must go through MemSet/MemSetRange, which keep the live counter and
// stats coherent.
func (s *Store) PageIDs(frame uint64) []ProvID {
	p := s.page(frame)
	if p == nil {
		return nil
	}
	return p.ids[:]
}

// PageAllocs counts shadow-page allocations ever made. Callers caching a
// nil LivePtr use it as the invalidation signal: unchanged count means no
// new shadow page can have appeared under them.
func (s *Store) PageAllocs() uint32 { return s.pageAllocs }

// shadowPool recycles the shadow pages of released stores across the
// process, the taint-side counterpart of the guest frame pool.
var shadowPool sync.Pool

// ensurePage returns the shadow page for a frame, allocating it (from a
// released store's pages when one is pooled, cleared before reuse) on
// first taint.
func (s *Store) ensurePage(frame uint64) *shadowPage {
	if page := s.page(frame); page != nil {
		return page
	}
	page, _ := shadowPool.Get().(*shadowPage)
	if page == nil {
		page = new(shadowPage)
	} else {
		*page = shadowPage{}
	}
	s.pageAllocs++
	if frame < maxDenseFrame {
		for uint64(len(s.shadow)) <= frame {
			s.shadow = append(s.shadow, nil)
		}
		s.shadow[frame] = page
	} else {
		if s.shadowHi == nil {
			s.shadowHi = make(map[uint64]*shadowPage)
		}
		s.shadowHi[frame] = page
	}
	return page
}

// Release hands every shadow page back to the process-wide pool for reuse
// by later stores and drops them from s, ending the store's use: pointers
// and slices from LivePtr and PageIDs must not be read afterwards.
func (s *Store) Release() {
	for _, page := range s.shadow {
		if page != nil {
			shadowPool.Put(page)
		}
	}
	for _, page := range s.shadowHi {
		shadowPool.Put(page)
	}
	s.shadow, s.shadowHi = nil, nil
}

// setInPage writes one shadow byte through a resolved page, maintaining the
// live counters and firing the watch. It is the single byte-store of every
// shadow mutation path, so the bookkeeping cannot drift between them.
func (s *Store) setInPage(page *shadowPage, pa uint64, id ProvID) {
	s.stats.ShadowWrites++
	off := pa % shadowPageSize
	old := page.ids[off]
	if old == id {
		return
	}
	if old == 0 {
		s.stats.TaintedBytes++
		if page.live == 0 {
			s.stats.TaintedPages++
		}
		page.live++
	} else if id == 0 {
		s.stats.TaintedBytes--
		page.live--
		if page.live == 0 {
			s.stats.TaintedPages--
		}
	}
	page.ids[off] = id
	s.changes++
	if s.watch != nil {
		s.watch(pa, old, id)
	}
}

// ChangeCount counts shadow byte mutations ever made. Engines caching
// derived provenance (e.g. the provenance of an instruction's bytes) use it
// as the invalidation signal: an unchanged count means no shadow byte moved
// under the cached value. Unlike the watch hook it costs nothing to
// maintain beyond the increment.
func (s *Store) ChangeCount() uint64 { return s.changes }

// MemGet returns the provenance of the byte at physical address pa.
func (s *Store) MemGet(pa uint64) ProvID {
	page := s.page(pa / shadowPageSize)
	if page == nil || page.live == 0 {
		return 0
	}
	return page.ids[pa%shadowPageSize]
}

// SetWatch installs (or clears, with nil) the shadow-change observer.
func (s *Store) SetWatch(fn func(pa uint64, old, new ProvID)) { s.watch = fn }

// MemSet sets the provenance of the byte at pa. The untainted write to an
// unallocated page is a no-op and deliberately not counted as shadow work.
func (s *Store) MemSet(pa uint64, id ProvID) {
	frame := pa / shadowPageSize
	page := s.page(frame)
	if page == nil {
		if id == 0 {
			return
		}
		page = s.ensurePage(frame)
	}
	s.setInPage(page, pa, id)
}

// MemSetRange sets n consecutive physical bytes to id, resolving each
// shadow page once. Clearing a page that holds no taint is skipped whole.
func (s *Store) MemSetRange(pa uint64, n int, id ProvID) {
	for n > 0 {
		chunk := shadowPageSize - int(pa%shadowPageSize)
		if chunk > n {
			chunk = n
		}
		frame := pa / shadowPageSize
		page := s.page(frame)
		if id == 0 && (page == nil || page.live == 0) {
			s.stats.RangeFastSkips++
		} else {
			if page == nil {
				page = s.ensurePage(frame)
			}
			if s.watch == nil {
				// Batched form of setInPage: identical bookkeeping per byte,
				// no per-byte call and no watch dispatch.
				off := pa % shadowPageSize
				s.stats.ShadowWrites += uint64(chunk)
				for i := 0; i < chunk; i++ {
					old := page.ids[off+uint64(i)]
					if old == id {
						continue
					}
					if old == 0 {
						s.stats.TaintedBytes++
						if page.live == 0 {
							s.stats.TaintedPages++
						}
						page.live++
					} else if id == 0 {
						s.stats.TaintedBytes--
						page.live--
						if page.live == 0 {
							s.stats.TaintedPages--
						}
					}
					page.ids[off+uint64(i)] = id
					s.changes++
				}
			} else {
				for i := 0; i < chunk; i++ {
					s.setInPage(page, pa+uint64(i), id)
				}
			}
		}
		pa += uint64(chunk)
		n -= chunk
	}
}

// MemSet1 is MemSetRange for a single byte — the tight-loop case (byte
// copies into tainted buffers), worth skipping the range machinery for.
// Bookkeeping is identical to one MemSetRange iteration.
func (s *Store) MemSet1(pa uint64, id ProvID) {
	page := s.page(pa / shadowPageSize)
	if id == 0 && (page == nil || page.live == 0) {
		s.stats.RangeFastSkips++
		return
	}
	if page == nil || s.watch != nil {
		s.MemSetRange(pa, 1, id)
		return
	}
	s.stats.ShadowWrites++
	off := pa % shadowPageSize
	old := page.ids[off]
	if old == id {
		return
	}
	if old == 0 {
		s.stats.TaintedBytes++
		if page.live == 0 {
			s.stats.TaintedPages++
		}
		page.live++
	} else if id == 0 {
		s.stats.TaintedBytes--
		page.live--
		if page.live == 0 {
			s.stats.TaintedPages--
		}
	}
	page.ids[off] = id
	s.changes++
}

// MemSame1 reports whether the shadow byte at pa already holds id, given
// the page's ids slice (from PageIDs), counting the no-op shadow store when
// it does — exactly MemSet1's old==id path with the page lookup hoisted
// into the caller's TLB. A false return means MemSet1 must run; watched
// stores always return false so the observer sees every write.
func (s *Store) MemSame1(pa uint64, id ProvID, ids []ProvID) bool {
	if s.watch != nil || ids[pa%shadowPageSize] != id {
		return false
	}
	s.stats.ShadowWrites++
	return true
}

// MemSetRun applies n single-byte stores of id, to pa, pa+1, and on, over
// a page that has a shadow page: each is MemSame1 then MemSet1, the block
// executor's store onto a tainted page, with the same bookkeeping and
// watch calls. A store of id 0 that clears the page's last taint ends the
// run, since the executor skips untainted stores onto a clean page;
// MemSetRun returns how many bytes it stored.
func (s *Store) MemSetRun(pa uint64, n int, id ProvID) int {
	page := s.page(pa / shadowPageSize)
	if id == 0 && page.live == 0 {
		return 0
	}
	ids := page.ids[pa%shadowPageSize:][:n]
	for i, old := range ids {
		if old == id {
			continue
		}
		if old == 0 {
			s.stats.TaintedBytes++
			if page.live == 0 {
				s.stats.TaintedPages++
			}
			page.live++
		} else if id == 0 {
			s.stats.TaintedBytes--
			if page.live--; page.live == 0 {
				s.stats.TaintedPages--
			}
		}
		ids[i] = id
		s.changes++
		if s.watch != nil {
			s.watch(pa+uint64(i), old, id)
		}
		if page.live == 0 {
			n = i + 1
			break
		}
	}
	s.stats.ShadowWrites += uint64(n)
	return n
}

// CountUnionHits counts n union requests answered from the memo table
// without making them: an engine that has just made a set of unions and
// would repeat them pass after pass with the same operands counts the
// repeats in bulk.
func (s *Store) CountUnionHits(n uint64) {
	s.stats.Unions += n
	s.stats.UnionMemoHits += n
}

// MemUnionFrom folds the provenance of n consecutive bytes into acc, left
// to right — the accumulator form lets callers chain page-sized chunks with
// exactly the per-byte union order, so the interned intermediate lists are
// identical to the byte-at-a-time reference. Untainted pages cost one
// comparison.
func (s *Store) MemUnionFrom(acc ProvID, pa uint64, n int) ProvID {
	for n > 0 {
		chunk := shadowPageSize - int(pa%shadowPageSize)
		if chunk > n {
			chunk = n
		}
		page := s.page(pa / shadowPageSize)
		if page == nil || page.live == 0 {
			s.stats.RangeFastSkips++
		} else {
			off := pa % shadowPageSize
			// Runs of the same list — the norm inside one tainted buffer —
			// fold to a single union: acc already holds the list's tags, so
			// Union(acc, id) would return acc unchanged.
			var last ProvID
			for i := 0; i < chunk; i++ {
				if id := page.ids[off+uint64(i)]; id != 0 && id != last {
					acc = s.Union(acc, id)
					last = id
				}
			}
		}
		pa += uint64(chunk)
		n -= chunk
	}
	return acc
}

// ForEachTainted calls fn for every shadow byte carrying taint, in
// ascending physical-address order. It is the canonical-snapshot walk used
// by equivalence tests comparing final taint state across dispatch modes.
func (s *Store) ForEachTainted(fn func(pa uint64, id ProvID)) {
	walk := func(frame uint64, page *shadowPage) {
		if page == nil || page.live == 0 {
			return
		}
		base := frame * shadowPageSize
		for off := 0; off < shadowPageSize; off++ {
			if id := page.ids[off]; id != 0 {
				fn(base+uint64(off), id)
			}
		}
	}
	for frame, page := range s.shadow {
		walk(uint64(frame), page)
	}
	if len(s.shadowHi) > 0 {
		frames := make([]uint64, 0, len(s.shadowHi))
		for frame := range s.shadowHi {
			frames = append(frames, frame)
		}
		sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
		for _, frame := range frames {
			walk(frame, s.shadowHi[frame])
		}
	}
}

// TaintedBytes returns the number of physical bytes carrying taint.
func (s *Store) TaintedBytes() int { return s.stats.TaintedBytes }

// --- rendering (Table II style) ---

// TagString renders one tag.
func (s *Store) TagString(t Tag) string {
	switch t.Type {
	case TagNetflow:
		if nf, ok := s.Netflow(t.Index); ok {
			return "NetFlow: " + nf.String()
		}
		return "NetFlow: ?"
	case TagProcess:
		if p, ok := s.Process(t.Index); ok {
			return "Process: " + p.Name
		}
		return "Process: ?"
	case TagFile:
		if f, ok := s.File(t.Index); ok {
			return fmt.Sprintf("File: %s (v%d)", f.Name, f.Version)
		}
		return "File: ?"
	case TagExportTable:
		return "ExportTable"
	}
	return "?"
}

// Render renders a provenance list in the paper's chronological style
// (oldest activity first): "NetFlow: {...} ->Process: a.exe ->Process:
// b.exe;".
func (s *Store) Render(id ProvID) string {
	tags := s.Tags(id)
	if len(tags) == 0 {
		return "<untainted>"
	}
	parts := make([]string, 0, len(tags))
	for i := len(tags) - 1; i >= 0; i-- { // stored newest first; render oldest first
		parts = append(parts, s.TagString(tags[i]))
	}
	return strings.Join(parts, " ->") + ";"
}
