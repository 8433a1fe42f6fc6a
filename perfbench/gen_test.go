package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"faros/internal/pipeline"
	"faros/internal/samples"
)

// encode is a request's canonical byte form.
func (r request) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s|%s|%s|%t|%s|", r.kind, r.target, r.shard, r.expectFlag, r.expectRule)
	b.Write(r.body)
	b.WriteByte('\n')
	return b.Bytes()
}

// listBytes renders the first n requests of a plan.
func listBytes(pl plan, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n && i < pl.n; i++ {
		b.Write(pl.at(i).encode())
	}
	return b.Bytes()
}

func testCorpus(t *testing.T) *corpus {
	t.Helper()
	c, err := newCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fakeTargets(c *corpus) []traceTarget {
	var out []traceTarget
	for i, b := range c.perf {
		out = append(out, traceTarget{digest: strings.Repeat(string(rune('a'+i)), 64), spec: b.spec})
	}
	return out
}

// plans builds every workload's plan for one seed from a fresh corpus.
func plans(t *testing.T, seed uint64) map[string]plan {
	c := testCorpus(t)
	return map[string]plan{
		"cold":  coldPlan(append(append([]baseSpec(nil), c.named...), c.perf...), seed, 3),
		"hot":   hotPlan(c.named, c.perf[0], seed),
		"trace": tracePlan(fakeTargets(c), seed, 20),
		"fleet": coldPlan(c.fleetSubset(), seed, 3),
	}
}

func TestSameSeedSameRequestList(t *testing.T) {
	a, b := plans(t, 7), plans(t, 7)
	for name, pa := range a {
		n := 3 * pa.pass
		if !bytes.Equal(listBytes(pa, n), listBytes(b[name], n)) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
	}
	other := plans(t, 8)
	for name, pa := range a {
		if bytes.Equal(listBytes(pa, pa.pass), listBytes(other[name], pa.pass)) {
			t.Errorf("%s: seeds 7 and 8 produced the same list", name)
		}
	}
}

// coldPass decodes one pass of cold requests: spec hash and base name of
// each, checking each request against the engine's own wire codec.
func coldPass(t *testing.T, pl plan, pass int) (hashes map[string]bool, bases []string) {
	t.Helper()
	hashes = make(map[string]bool)
	for i := pass * pl.pass; i < (pass+1)*pl.pass; i++ {
		req := pl.at(i)
		var ar pipeline.AnalyzeRequest
		if err := json.Unmarshal(req.body, &ar); err != nil {
			t.Fatal(err)
		}
		spec, err := samples.UnmarshalSpec(ar.Spec)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := samples.MarshalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, ar.Spec) {
			t.Fatalf("%s: spliced wire form is not canonical", spec.Name)
		}
		hash, err := samples.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		if hash != req.shard {
			t.Fatalf("%s: shard %s, spec hash %s", spec.Name, req.shard, hash)
		}
		if !ar.Wait {
			t.Fatalf("%s: cold request does not wait", spec.Name)
		}
		hashes[hash] = true
		base, _, _ := strings.Cut(spec.Name, ".")
		bases = append(bases, base)
	}
	sort.Strings(bases)
	return hashes, bases
}

func TestSeedsGiveDisjointHashesOverSameWork(t *testing.T) {
	c := testCorpus(t)
	bases := append(append([]baseSpec(nil), c.named...), c.perf...)
	p1, p2 := coldPlan(bases, 1, 2), coldPlan(bases, 2, 2)
	h1, b1 := coldPass(t, p1, 0)
	h2, b2 := coldPass(t, p2, 0)
	h1b, b1b := coldPass(t, p1, 1)
	if len(h1) != len(bases) || len(h1b) != len(bases) {
		t.Fatalf("a pass repeats a spec hash: %d and %d distinct of %d", len(h1), len(h1b), len(bases))
	}
	for h := range h1 {
		if h2[h] {
			t.Errorf("seeds 1 and 2 share spec hash %s", h)
		}
		if h1b[h] {
			t.Errorf("passes 0 and 1 of seed 1 share spec hash %s", h)
		}
	}
	if strings.Join(b1, ",") != strings.Join(b2, ",") || strings.Join(b1, ",") != strings.Join(b1b, ",") {
		t.Error("passes cover different base scenarios")
	}
	// The renamed spec is the base scenario's work: everything but the
	// name matches the base wire form.
	base := bases[0]
	renamed, err := samples.UnmarshalSpec(base.renamed(base.spec.Name + ".x"))
	if err != nil {
		t.Fatal(err)
	}
	renamed.Name = base.spec.Name
	got, _ := samples.MarshalSpec(renamed)
	want, _ := samples.MarshalSpec(base.spec)
	if !bytes.Equal(got, want) {
		t.Error("renaming changed more than the name")
	}
}

func TestHotPlanComposition(t *testing.T) {
	c := testCorpus(t)
	pl := hotPlan(c.named, c.perf[0], 3)
	counts := map[kind]int{}
	for i := 0; i < pl.n; i++ {
		req := pl.at(i)
		counts[req.kind]++
		if i%pl.pass == pl.pass-1 {
			if counts[kindCold] != (i+1)/pl.pass {
				t.Fatalf("pass %d: %d cold writes so far, want one per pass", i/pl.pass, counts[kindCold])
			}
		}
	}
	if headroom := 512 - len(c.named); counts[kindCold] > headroom {
		t.Errorf("%d cold writes exceed the cache headroom %d", counts[kindCold], headroom)
	}
	passes := pl.n / pl.pass
	if counts[kindNamed] != hotNamed*passes || counts[kindResult]+counts[kindProv] != (hotPass-hotNamed-1)*passes {
		t.Errorf("composition %v over %d passes", counts, passes)
	}
}
