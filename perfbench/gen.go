package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"faros"
	"faros/internal/samples"
)

// kind is the type of one generated request.
type kind int

const (
	// kindCold submits a never-seen spec in wire form (a cache miss).
	kindCold kind = iota
	// kindNamed resubmits a warmed scenario by name (a cache hit).
	kindNamed
	// kindResult reads a warmed result by its cache key.
	kindResult
	// kindProv reads a warmed result's provenance graph.
	kindProv
	// kindTrace replays a stored trace with the cache bypassed.
	kindTrace
)

func (k kind) String() string {
	return [...]string{"cold", "named", "result", "prov", "trace"}[k]
}

// request is one generated request. Reads name their target scenario; the
// client maps it to the cache key farosd returned during warm-up.
type request struct {
	kind   kind
	target string // scenario name (named, result, prov) or trace digest
	body   []byte // POST /analyze body; nil for reads
	// shard is the SpecHash of a cold spec: the key farosd's ring shards
	// on. Empty for other kinds.
	shard      string
	expectFlag bool
	expectRule string
}

// plan is a workload's fixed request list: request i is a pure function of
// the seed and i, so workers may generate requests concurrently. The list
// is cut into passes of equal composition; the timed phase stops only at a
// pass boundary, so every run measures whole passes of identical work.
type plan struct {
	n    int
	pass int
	at   func(i int) request
}

// rng is splitmix64: tiny, seedable, and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm is a Fisher-Yates permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// streamRNG derives an independent stream for one (seed, stream, index)
// triple, so pass p's order never depends on how much of pass p-1 ran.
func streamRNG(seed uint64, stream string, idx int) *rng {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench|%d|%s|%d", seed, stream, idx)))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return &rng{s: s}
}

// baseSpec is one scenario with its canonical wire form split around the
// name, so a renamed copy costs one splice instead of a re-marshal.
type baseSpec struct {
	spec samples.Spec
	tail []byte // wire form after the leading {"name":"..." member
}

func newBaseSpec(s samples.Spec) (baseSpec, error) {
	wire, err := samples.MarshalSpec(s)
	if err != nil {
		return baseSpec{}, err
	}
	head, err := json.Marshal(s.Name)
	if err != nil {
		return baseSpec{}, err
	}
	prefix := append([]byte(`{"name":`), head...)
	if !bytes.HasPrefix(wire, prefix) {
		return baseSpec{}, fmt.Errorf("spec %s: wire form does not start with its name", s.Name)
	}
	return baseSpec{spec: s, tail: wire[len(prefix):]}, nil
}

// renamed returns the canonical wire form of the spec under a new name.
// Names in this package are [a-z0-9_.] only, so no JSON escaping applies.
func (b baseSpec) renamed(name string) []byte {
	w := make([]byte, 0, len(b.tail)+len(name)+12)
	w = append(w, `{"name":"`...)
	w = append(w, name...)
	w = append(w, '"')
	return append(w, b.tail...)
}

// coldRequest renames a base spec with a seed- and index-derived suffix:
// the work is identical to the base scenario, the spec hash is new.
func coldRequest(b baseSpec, suffix string) request {
	wire := b.renamed(b.spec.Name + suffix)
	sum := sha256.Sum256(wire)
	body := make([]byte, 0, len(wire)+32)
	body = append(body, `{"spec":`...)
	body = append(body, wire...)
	body = append(body, `,"wait":true}`...)
	return request{
		kind:       kindCold,
		body:       body,
		shard:      hex.EncodeToString(sum[:]),
		expectFlag: b.spec.ExpectFlag,
		expectRule: b.spec.ExpectRule,
	}
}

// corpus is the scenario material every workload draws from.
type corpus struct {
	named []baseSpec // every built-in scenario, sorted by name
	perf  []baseSpec // the six Table V applications; Skype first
}

func newCorpus() (*corpus, error) {
	c := &corpus{}
	byName := faros.Scenarios()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := newBaseSpec(byName[n])
		if err != nil {
			return nil, err
		}
		c.named = append(c.named, b)
	}
	for _, w := range samples.PerfWorkloads() {
		b, err := newBaseSpec(w.Spec)
		if err != nil {
			return nil, err
		}
		c.perf = append(c.perf, b)
	}
	return c, nil
}

// fleetSubset is the JIT, benign, and malware-corpus scenarios: small
// jobs, so the forward hop is a large share of a forwarded job's latency.
func (c *corpus) fleetSubset() []baseSpec {
	keep := make(map[string]bool)
	for _, group := range [][]samples.Spec{samples.JITWorkloads(), samples.BenignPrograms(), samples.MalwareCorpus()} {
		for _, s := range group {
			keep[s.Name] = true
		}
	}
	var out []baseSpec
	for _, b := range c.named {
		if keep[b.spec.Name] {
			out = append(out, b)
		}
	}
	return out
}

// coldPlan submits every base spec once per pass, in a seeded order, each
// renamed with a (seed, pass) suffix.
func coldPlan(bases []baseSpec, seed uint64, passes int) plan {
	n := len(bases)
	return plan{
		n:    n * passes,
		pass: n,
		at: func(i int) request {
			p := i / n
			order := streamRNG(seed, "cold", p).perm(n)
			return coldRequest(bases[order[i%n]], fmt.Sprintf(".s%d.p%d", seed, p))
		},
	}
}

// Hot-lookup pass composition: of every hotPass requests one is a cold
// by-spec write, hotNamed are by-name resubmits, and the rest alternate
// between result and provenance reads.
//
// The 30:19 split between resubmits and reads is a chosen value, not one
// taken from a caller. farosd's in-repo callers (faros -server and
// farosbench -server) only POST by name or by spec and never read
// /results, so resubmits are the majority and p50 falls on them, that is
// on farosd's Resolve. Reads keep 38% of the pass so that the result and
// provenance encoders stay on the measured path. Changing the split moves
// p50 between those paths and needs a new baseline.
const (
	hotPass    = 50
	hotNamed   = 30
	hotMaxPass = 370 // one cold write per pass: below the 512-133 cache headroom
)

// hotSlots is one pass's request kinds before shuffling.
var hotSlots = func() []kind {
	slots := []kind{kindCold}
	for len(slots) <= hotNamed {
		slots = append(slots, kindNamed)
	}
	for len(slots) < hotPass {
		slots = append(slots, kindResult+kind(len(slots)%2))
	}
	return slots
}()

// hotPlan mixes cache-hit resubmits and result/provenance reads over the
// named scenarios with one cold write of the given spec per pass. The
// writes are the slowest 2% of requests, so p99 sits in the middle of the
// write path's latency instead of on a step between request types.
func hotPlan(named []baseSpec, write baseSpec, seed uint64) plan {
	return plan{
		n:    hotPass * hotMaxPass,
		pass: hotPass,
		at: func(i int) request {
			p := i / hotPass
			k := hotSlots[streamRNG(seed, "hot", p).perm(hotPass)[i%hotPass]]
			if k == kindCold {
				return coldRequest(write, fmt.Sprintf(".s%d.w%d", seed, p))
			}
			b := named[streamRNG(seed, "hot-target", i).intn(len(named))]
			req := request{kind: k, target: b.spec.Name, expectFlag: b.spec.ExpectFlag, expectRule: b.spec.ExpectRule}
			if k == kindNamed {
				req.body = []byte(fmt.Sprintf(`{"scenario":%q,"wait":true}`, b.spec.Name))
			}
			return req
		},
	}
}

// traceTarget is one stored trace and the verdict its spec expects.
type traceTarget struct {
	digest string
	spec   samples.Spec
}

// tracePlan replays every stored trace once per pass in a seeded order,
// with the cache bypassed so each request is a fresh analysis.
func tracePlan(targets []traceTarget, seed uint64, passes int) plan {
	n := len(targets)
	return plan{
		n:    n * passes,
		pass: n,
		at: func(i int) request {
			p := i / n
			t := targets[streamRNG(seed, "trace", p).perm(n)[i%n]]
			return request{
				kind:       kindTrace,
				target:     t.digest,
				body:       []byte(fmt.Sprintf(`{"trace":%q,"no_cache":true,"wait":true}`, t.digest)),
				expectFlag: t.spec.ExpectFlag,
				expectRule: t.spec.ExpectRule,
			}
		},
	}
}
