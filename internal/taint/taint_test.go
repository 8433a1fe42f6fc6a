package taint

import (
	"strings"
	"testing"
	"testing/quick"
)

// MemUnion returns the union of the provenance of n consecutive bytes.
func (s *Store) MemUnion(pa uint64, n int) ProvID {
	return s.MemUnionFrom(0, pa, n)
}

func TestInterningIsStable(t *testing.T) {
	s := NewStore(0)
	nf := NetflowTag{SrcIP: "10.0.0.1", SrcPort: 4444, DstIP: "10.0.0.2", DstPort: 80}
	t1 := s.InternNetflow(nf)
	t2 := s.InternNetflow(nf)
	if t1 != t2 {
		t.Error("same netflow interned twice")
	}
	other := s.InternNetflow(NetflowTag{SrcIP: "10.0.0.3"})
	if other == t1 {
		t.Error("different netflows share a tag")
	}
	got, ok := s.Netflow(t1.Index)
	if !ok || got != nf {
		t.Errorf("Netflow(%d) = %+v, %v", t1.Index, got, ok)
	}

	ft1 := s.InternFile("a.txt", 1)
	ft2 := s.InternFile("a.txt", 2)
	if ft1 == ft2 {
		t.Error("file versions share a tag")
	}
	pt1 := s.InternProcess(0x100, 4, "a.exe")
	pt2 := s.InternProcess(0x100, 4, "a.exe")
	if pt1 != pt2 {
		t.Error("same CR3 interned twice")
	}
}

func TestSingleAndTags(t *testing.T) {
	s := NewStore(0)
	tag := s.InternProcess(1, 1, "x.exe")
	id := s.Single(tag)
	if id == 0 {
		t.Fatal("single list is empty id")
	}
	if id2 := s.Single(tag); id2 != id {
		t.Error("single list not interned")
	}
	tags := s.Tags(id)
	if len(tags) != 1 || tags[0] != tag {
		t.Errorf("Tags = %v", tags)
	}
	if s.Tags(0) != nil || s.Tags(9999) != nil {
		t.Error("bogus ids should yield nil")
	}
}

func TestPrependChronology(t *testing.T) {
	s := NewStore(0)
	nf := s.InternNetflow(NetflowTag{SrcIP: "1.1.1.1", SrcPort: 1, DstIP: "2.2.2.2", DstPort: 2})
	p1 := s.InternProcess(0x10, 1, "client.exe")
	p2 := s.InternProcess(0x20, 2, "notepad.exe")

	id := s.Single(nf)
	id = s.Prepend(id, p1)
	id = s.Prepend(id, p1) // no-op: already head
	id = s.Prepend(id, p2)

	tags := s.Tags(id)
	want := []Tag{p2, p1, nf} // newest first
	if len(tags) != len(want) {
		t.Fatalf("list = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Errorf("tag[%d] = %v, want %v", i, tags[i], want[i])
		}
	}
}

func TestPrependReentryKeepsChronology(t *testing.T) {
	// P1 → P2 → P1 again must record the re-entry (new head), not dedupe.
	s := NewStore(0)
	p1 := s.InternProcess(1, 1, "a")
	p2 := s.InternProcess(2, 2, "b")
	id := s.Single(p1)
	id = s.Prepend(id, p2)
	id = s.Prepend(id, p1)
	if got := len(s.Tags(id)); got != 3 {
		t.Errorf("len = %d, want 3 (chronology preserved)", got)
	}
	if len(s.DistinctProcesses(id)) != 2 {
		t.Error("distinct processes != 2")
	}
}

func TestCapPreservesOrigin(t *testing.T) {
	s := NewStore(4)
	origin := s.InternNetflow(NetflowTag{SrcIP: "9.9.9.9"})
	id := s.Single(origin)
	for i := 0; i < 20; i++ {
		id = s.Prepend(id, s.InternProcess(uint32(i+1)*0x100, uint32(i), "p"))
	}
	tags := s.Tags(id)
	if len(tags) > 4 {
		t.Fatalf("cap not enforced: len=%d", len(tags))
	}
	if tags[len(tags)-1] != origin {
		t.Errorf("origin tag lost: %v", tags)
	}
	if s.Stats().ListsTruncated == 0 {
		t.Error("truncation not counted")
	}
}

func TestUnionBasics(t *testing.T) {
	s := NewStore(0)
	a := s.Single(s.InternProcess(1, 1, "a"))
	b := s.Single(s.InternProcess(2, 2, "b"))
	if s.Union(a, 0) != a || s.Union(0, b) != b || s.Union(a, a) != a {
		t.Error("identity/idempotence broken")
	}
	ab := s.Union(a, b)
	if len(s.Tags(ab)) != 2 {
		t.Errorf("union = %v", s.Tags(ab))
	}
	// Memoized: same inputs, same answer.
	if s.Union(a, b) != ab {
		t.Error("union not stable")
	}
}

func tagSet(s *Store, id ProvID) map[Tag]bool {
	out := make(map[Tag]bool)
	for _, t := range s.Tags(id) {
		out[t] = true
	}
	return out
}

func setsEqual(a, b map[Tag]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestUnionSetProperties(t *testing.T) {
	s := NewStore(64)
	// Build a pool of interesting lists.
	var pool []ProvID
	pool = append(pool, 0)
	for i := 0; i < 8; i++ {
		id := s.Single(s.InternProcess(uint32(i+1), uint32(i), "p"))
		if i%2 == 0 {
			id = s.Prepend(id, s.InternFile("f", uint32(i)))
		}
		if i%3 == 0 {
			id = s.Prepend(id, s.ExportTableTag())
		}
		pool = append(pool, id)
	}
	f := func(ai, bi, ci uint8) bool {
		a := pool[int(ai)%len(pool)]
		b := pool[int(bi)%len(pool)]
		c := pool[int(ci)%len(pool)]
		// Commutative as a set.
		if !setsEqual(tagSet(s, s.Union(a, b)), tagSet(s, s.Union(b, a))) {
			return false
		}
		// Associative as a set.
		l := s.Union(s.Union(a, b), c)
		r := s.Union(a, s.Union(b, c))
		return setsEqual(tagSet(s, l), tagSet(s, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestHasAndQueries(t *testing.T) {
	s := NewStore(0)
	nf := s.InternNetflow(NetflowTag{SrcIP: "1.2.3.4", SrcPort: 4444})
	p := s.InternProcess(0x5, 5, "evil.exe")
	id := s.Prepend(s.Single(nf), p)
	if !s.Has(id, TagNetflow) || !s.Has(id, TagProcess) || s.Has(id, TagExportTable) {
		t.Error("Has broken")
	}
	got, ok := s.FirstOfType(id, TagNetflow)
	if !ok || got != nf {
		t.Errorf("FirstOfType = %v, %v", got, ok)
	}
	if _, ok := s.FirstOfType(id, TagFile); ok {
		t.Error("found absent type")
	}
	if s.Has(0, TagNetflow) {
		t.Error("empty list has tags")
	}
}

func TestShadowMemory(t *testing.T) {
	s := NewStore(0)
	id := s.Single(s.InternProcess(1, 1, "p"))
	if s.MemGet(0x1234) != 0 {
		t.Error("fresh shadow not empty")
	}
	s.MemSet(0x1234, id)
	if s.MemGet(0x1234) != id {
		t.Error("shadow set/get broken")
	}
	if s.TaintedBytes() != 1 {
		t.Errorf("tainted = %d", s.TaintedBytes())
	}
	s.MemSet(0x1234, 0)
	if s.TaintedBytes() != 0 {
		t.Errorf("tainted after clear = %d", s.TaintedBytes())
	}
	// Ranges crossing shadow page boundaries.
	s.MemSetRange(shadowPageSize-2, 4, id)
	if s.MemGet(shadowPageSize-1) != id || s.MemGet(shadowPageSize+1) != id {
		t.Error("range crossing page broken")
	}
	if got := s.MemUnion(shadowPageSize-2, 4); got != id {
		t.Errorf("MemUnion = %d, want %d", got, id)
	}
}

func TestMemUnionMixes(t *testing.T) {
	s := NewStore(0)
	a := s.Single(s.InternProcess(1, 1, "a"))
	b := s.Single(s.InternProcess(2, 2, "b"))
	s.MemSet(100, a)
	s.MemSet(101, b)
	got := s.MemUnion(100, 2)
	if len(s.Tags(got)) != 2 {
		t.Errorf("union of mixed bytes = %v", s.Tags(got))
	}
}

func TestRenderTableIIStyle(t *testing.T) {
	s := NewStore(0)
	nf := s.InternNetflow(NetflowTag{
		SrcIP: "169.254.26.161", SrcPort: 4444,
		DstIP: "169.254.57.168", DstPort: 49162,
	})
	id := s.Single(nf)
	id = s.Prepend(id, s.InternProcess(0x10, 1, "inject_client.exe"))
	id = s.Prepend(id, s.InternProcess(0x20, 2, "notepad.exe"))
	got := s.Render(id)
	want := "NetFlow: {src ip,port: 169.254.26.161:4444, dest ip,port: 169.254.57.168:49162} ->Process: inject_client.exe ->Process: notepad.exe;"
	if got != want {
		t.Errorf("Render:\n got %q\nwant %q", got, want)
	}
	if s.Render(0) != "<untainted>" {
		t.Error("empty render")
	}
	if !strings.Contains(s.Render(s.Single(s.ExportTableTag())), "ExportTable") {
		t.Error("export table render")
	}
	if !strings.Contains(s.Render(s.Single(s.InternFile("log.txt", 3))), "File: log.txt (v3)") {
		t.Error("file render")
	}
}

func TestRegBank(t *testing.T) {
	var rb RegBank
	if rb.AnyTainted() {
		t.Error("zero bank tainted")
	}
	rb[3] = 7
	if !rb.AnyTainted() {
		t.Error("tainted bank not detected")
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore(0)
	p := s.InternProcess(1, 1, "p")
	id := s.Single(p)
	s.Prepend(id, s.InternFile("f", 1))
	s.Union(id, s.Single(s.InternFile("f", 1)))
	s.MemSet(1, id)
	st := s.Stats()
	if st.Prepends == 0 || st.Unions == 0 || st.ShadowWrites == 0 || st.ListsInterned == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestUnionFixpoint: folding a list into a union that already holds it
// changes nothing while the union fits under the list cap:
// Union(Union(a, b), b) == Union(a, b). Past the cap it does not hold: the
// capped union keeps a's and b's newest tags and the very oldest, dropping
// some of b's middle ones; the next fold appends them again and the cap
// keeps another oldest tag. The fold then alternates between two lists, so
// a third fold is back at the first. Repeated folds are memo hits either
// way, but an accumulator can settle or alternate, which is why the
// engine's run-at-a-time loop batch (core's loopShadow) checks that the
// register bank settled instead of assuming it.
func TestUnionFixpoint(t *testing.T) {
	s := NewStore(0)
	var tags [3 * DefaultListCap]Tag
	for i := range tags {
		tags[i] = s.InternNetflow(NetflowTag{SrcIP: "10.0.0.1", SrcPort: uint16(i + 1)})
	}
	// list interns tags[from:to], newest first.
	list := func(from, to int) ProvID {
		var id ProvID
		for i := to - 1; i >= from; i-- {
			id = s.Prepend(id, tags[i])
		}
		return id
	}
	var settled, alternating int
	for la := 0; la <= DefaultListCap+4; la++ {
		for lb := 1; lb <= DefaultListCap; lb++ {
			for off := 0; off <= la; off++ {
				a, b := list(0, la), list(off, off+lb)
				ab := s.Union(a, b)
				abb := s.Union(ab, b)
				fits := max(la, off+lb) <= DefaultListCap
				switch {
				case abb == ab:
					settled++
				case fits:
					t.Fatalf("a=tags[0:%d] b=tags[%d:%d]: Union(Union(a,b),b) = %v, Union(a,b) = %v", la, off, off+lb, s.Tags(abb), s.Tags(ab))
				default:
					alternating++
				}
				if abbb := s.Union(abb, b); abbb != ab {
					t.Fatalf("a=tags[0:%d] b=tags[%d:%d]: a third fold gave %v, want %v", la, off, off+lb, s.Tags(abbb), s.Tags(ab))
				}
			}
		}
	}
	if alternating == 0 {
		t.Error("no union past the cap alternated: the engine's settle check may be dead weight")
	}
	t.Logf("%d folds settled, %d alternated past the cap", settled, alternating)
}
