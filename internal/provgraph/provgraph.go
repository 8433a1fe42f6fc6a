// Package provgraph is the structured form of FAROS's headline artifact:
// the provenance of a byte as a first-class, queryable graph instead of a
// pre-rendered string. The paper presents provenance as rendered chains
// (Figs 7-10, Table II) — "NetFlow: {...} ->Process: a.exe ->Process:
// b.exe;" — but a service that can only return opaque text cannot answer
// the queries that motivate the tag design ("which netflow reached this
// region", "which processes touched this byte"). This package keeps the
// chains structured all the way up the stack:
//
//   - Node — a netflow endpoint, process, file, or the kernel export table,
//     deduplicated by canonical identity;
//   - Edge — one flow step between two nodes, carrying the destination tag
//     type, the byte extent of the flow that exhibited it, and the guest
//     instruction count at which it was first observed;
//   - Chain — one provenance list as an ordered node path (oldest activity
//     first), preserved verbatim so the paper-style text rendering stays
//     bit-identical to the list renderer it replaces.
//
// Graphs are built per finding, merged into whole-run graphs (node/edge
// union with deterministic conflict resolution), and encoded three ways:
// the existing paper text, JSON, and Graphviz DOT.
package provgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies what system entity a node stands for. The values mirror
// the taint tag types of the paper's Figure 6.
type Kind uint8

// Node kinds.
const (
	KindNetflow Kind = iota + 1
	KindProcess
	KindFile
	KindExportTable
)

// String returns the kind name (also its JSON encoding).
func (k Kind) String() string {
	switch k {
	case KindNetflow:
		return "netflow"
	case KindProcess:
		return "process"
	case KindFile:
		return "file"
	case KindExportTable:
		return "export_table"
	}
	return fmt.Sprintf("kind?%d", uint8(k))
}

// kindFromString is the inverse of Kind.String.
func kindFromString(s string) (Kind, bool) {
	switch s {
	case "netflow":
		return KindNetflow, true
	case "process":
		return KindProcess, true
	case "file":
		return KindFile, true
	case "export_table":
		return KindExportTable, true
	}
	return 0, false
}

// Netflow identifies a network connection (the Figure 5 netflow record).
type Netflow struct {
	SrcIP   string `json:"src_ip"`
	SrcPort uint16 `json:"src_port"`
	DstIP   string `json:"dst_ip"`
	DstPort uint16 `json:"dst_port"`
}

// Process identifies a process; CR3 is the architectural identity.
type Process struct {
	CR3  uint32 `json:"cr3"`
	PID  uint32 `json:"pid"`
	Name string `json:"name"`
}

// File identifies a file access version.
type File struct {
	Name    string `json:"name"`
	Version uint32 `json:"version"`
}

// Node is one provenance entity. Label is the paper-style rendering of the
// underlying tag (exactly what the text encoder joins with " ->"), and the
// kind-specific detail struct carries the queryable fields.
type Node struct {
	Kind    Kind     `json:"kind"`
	Label   string   `json:"label"`
	Netflow *Netflow `json:"netflow,omitempty"`
	Process *Process `json:"process,omitempty"`
	File    *File    `json:"file,omitempty"`
}

// Key returns the node's canonical identity: two nodes with equal keys are
// the same entity and merge into one graph node. The key embeds every
// identity-bearing field, so distinct processes that happen to share a name
// stay distinct.
func (n Node) Key() string {
	switch n.Kind {
	case KindNetflow:
		if n.Netflow != nil {
			f := n.Netflow
			return fmt.Sprintf("n|%s|%d|%s|%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
		}
	case KindProcess:
		if n.Process != nil {
			return fmt.Sprintf("p|%08x|%d|%s", n.Process.CR3, n.Process.PID, n.Process.Name)
		}
	case KindFile:
		if n.File != nil {
			return fmt.Sprintf("f|%s|%d", n.File.Name, n.File.Version)
		}
	case KindExportTable:
		return "x"
	}
	// Detail-less nodes (e.g. a tag whose hash-map entry was exhausted)
	// fall back to the label, which is still deterministic.
	return fmt.Sprintf("?|%d|%s", n.Kind, n.Label)
}

// Edge is one flow step: provenance moved From -> To. Type is the tag type
// of the destination step, Bytes the largest byte extent of any flow that
// exhibited the step, FirstSeen the smallest guest instruction count at
// which it was observed, and Count how many chains carry it.
type Edge struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	Type      Kind   `json:"type"`
	Bytes     int    `json:"bytes"`
	FirstSeen uint64 `json:"first_seen"`
	Count     int    `json:"count"`
}

// Chain roles used by the engine.
const (
	// RoleInstr is the provenance of a flagged instruction's own bytes.
	RoleInstr = "instr"
	// RoleTarget is the provenance of the bytes a flagged instruction read.
	RoleTarget = "target"
	// RoleRegion is the sampled provenance of a taint-map region.
	RoleRegion = "region"
)

// Chain is one provenance list as an ordered node path, oldest activity
// first (the paper's chronological rendering order).
type Chain struct {
	Role  string `json:"role"`
	Nodes []int  `json:"nodes"`
}

// Graph is a canonicalized provenance graph. Nodes are unique by Key,
// edges unique by (From, To), and both are sorted deterministically, so
// equal provenance always serializes to equal bytes regardless of the
// order it was discovered in.
type Graph struct {
	Nodes  []Node  `json:"nodes"`
	Edges  []Edge  `json:"edges"`
	Chains []Chain `json:"chains,omitempty"`
}

// chainKey is a chain's canonical identity: its role plus the key sequence
// of its nodes.
func (g *Graph) chainKey(c Chain) string {
	var sb strings.Builder
	sb.WriteString(c.Role)
	for _, ni := range c.Nodes {
		sb.WriteByte(0)
		sb.WriteString(g.Nodes[ni].Key())
	}
	return sb.String()
}

// Builder accumulates nodes, edges, and chains, deduplicating as it goes.
// It is the single construction path for graphs: per-finding graphs, the
// taint map's region graphs, and whole-run merges all flow through it, so
// the canonical form cannot drift between producers.
type Builder struct {
	g        Graph
	nodeIdx  map[string]int
	edgeIdx  map[[2]int]int
	chainSet map[string]struct{}
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		nodeIdx:  make(map[string]int),
		edgeIdx:  make(map[[2]int]int),
		chainSet: make(map[string]struct{}),
	}
}

// addNode interns a node by identity and returns its index.
func (b *Builder) addNode(n Node) int {
	key := n.Key()
	if i, ok := b.nodeIdx[key]; ok {
		return i
	}
	i := len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	b.nodeIdx[key] = i
	return i
}

// addEdge records one flow step, merging with an existing (from, to) edge:
// the merged edge keeps the earliest first-seen instruction count, the
// largest byte extent, and the summed chain count. Both resolutions are
// order-independent, which is what makes Merge commutative.
func (b *Builder) addEdge(from, to int, e Edge) {
	key := [2]int{from, to}
	if i, ok := b.edgeIdx[key]; ok {
		have := &b.g.Edges[i]
		if e.FirstSeen < have.FirstSeen {
			have.FirstSeen = e.FirstSeen
		}
		if e.Bytes > have.Bytes {
			have.Bytes = e.Bytes
		}
		have.Count += e.Count
		return
	}
	e.From, e.To = from, to
	b.edgeIdx[key] = len(b.g.Edges)
	b.g.Edges = append(b.g.Edges, e)
}

// AddChain records one provenance list as a chain: nodes oldest-first, one
// edge per consecutive pair, each carrying the destination step's tag type,
// the byte extent of the flow, and the instruction count it was first seen
// at. Duplicate chains (same role and node sequence) collapse, but their
// steps still reinforce the shared edges' counts.
func (b *Builder) AddChain(role string, nodes []Node, bytes int, firstSeen uint64) {
	idx := make([]int, len(nodes))
	for i, n := range nodes {
		idx[i] = b.addNode(n)
	}
	for i := 1; i < len(idx); i++ {
		b.addEdge(idx[i-1], idx[i], Edge{
			Type:      nodes[i].Kind,
			Bytes:     bytes,
			FirstSeen: firstSeen,
			Count:     1,
		})
	}
	c := Chain{Role: role, Nodes: idx}
	key := b.g.chainKey(c)
	if _, dup := b.chainSet[key]; dup {
		return
	}
	b.chainSet[key] = struct{}{}
	b.g.Chains = append(b.g.Chains, c)
}

// AddGraph merges another graph into the builder: nodes union by identity,
// edges merge under the addEdge resolution rules, chains dedup by role and
// node sequence.
func (b *Builder) AddGraph(g *Graph) {
	if g == nil {
		return
	}
	remap := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		remap[i] = b.addNode(n)
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(remap) || e.To < 0 || e.To >= len(remap) {
			continue // defensive: a validated graph never has these
		}
		b.addEdge(remap[e.From], remap[e.To], e)
	}
	for _, c := range g.Chains {
		nc := Chain{Role: c.Role, Nodes: make([]int, 0, len(c.Nodes))}
		ok := true
		for _, ni := range c.Nodes {
			if ni < 0 || ni >= len(remap) {
				ok = false
				break
			}
			nc.Nodes = append(nc.Nodes, remap[ni])
		}
		if !ok {
			continue
		}
		key := b.g.chainKey(nc)
		if _, dup := b.chainSet[key]; dup {
			continue
		}
		b.chainSet[key] = struct{}{}
		b.g.Chains = append(b.g.Chains, nc)
	}
}

// Graph returns the accumulated graph in canonical form: nodes sorted by
// identity key, edges by (From, To), chains by (role, node-key sequence),
// with every index remapped. The builder must not be reused afterwards.
func (b *Builder) Graph() *Graph {
	g := &b.g
	// Sort nodes by key and build old->new index remapping.
	order := make([]int, len(g.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Nodes[order[i]].Key() < g.Nodes[order[j]].Key()
	})
	remap := make([]int, len(g.Nodes))
	nodes := make([]Node, len(g.Nodes))
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		nodes[newIdx] = g.Nodes[oldIdx]
	}
	edges := make([]Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		e.From, e.To = remap[e.From], remap[e.To]
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	chains := make([]Chain, 0, len(g.Chains))
	for _, c := range g.Chains {
		nc := Chain{Role: c.Role, Nodes: make([]int, len(c.Nodes))}
		for i, ni := range c.Nodes {
			nc.Nodes[i] = remap[ni]
		}
		chains = append(chains, nc)
	}
	out := &Graph{Nodes: nodes, Edges: edges, Chains: chains}
	sort.SliceStable(out.Chains, func(i, j int) bool {
		return out.chainKey(out.Chains[i]) < out.chainKey(out.Chains[j])
	})
	return out
}

// Merge unions any number of graphs into one canonical whole-run graph:
// nodes by identity, edges under the earliest-seen/largest-extent/summed
// -count resolution, chains deduplicated. Merge() with no arguments returns
// the canonical empty graph (non-nil slices, so it serializes as [] rather
// than null).
func Merge(gs ...*Graph) *Graph {
	b := NewBuilder()
	for _, g := range gs {
		b.AddGraph(g)
	}
	return b.Graph()
}

// Contains reports whether every node, edge, and chain of sub is present
// in g (the subgraph-containment property a merge must preserve). Edge
// containment is by endpoint identity; the merged edge's extent and count
// may exceed sub's.
func (g *Graph) Contains(sub *Graph) bool {
	if sub == nil {
		return true
	}
	nodeIdx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		nodeIdx[n.Key()] = i
	}
	edgeSet := make(map[[2]int]Edge, len(g.Edges))
	for _, e := range g.Edges {
		edgeSet[[2]int{e.From, e.To}] = e
	}
	chainSet := make(map[string]struct{}, len(g.Chains))
	for _, c := range g.Chains {
		chainSet[g.chainKey(c)] = struct{}{}
	}
	for _, n := range sub.Nodes {
		if _, ok := nodeIdx[n.Key()]; !ok {
			return false
		}
	}
	for _, e := range sub.Edges {
		from, okF := nodeIdx[sub.Nodes[e.From].Key()]
		to, okT := nodeIdx[sub.Nodes[e.To].Key()]
		if !okF || !okT {
			return false
		}
		have, ok := edgeSet[[2]int{from, to}]
		if !ok || have.FirstSeen > e.FirstSeen || have.Bytes < e.Bytes || have.Count < e.Count {
			return false
		}
	}
	for _, c := range sub.Chains {
		if _, ok := chainSet[sub.chainKey(c)]; !ok {
			return false
		}
	}
	return true
}

// Validate checks structural invariants (index ranges, known kinds); the
// JSON decoder rejects graphs that fail it.
func (g *Graph) Validate() error {
	for i, n := range g.Nodes {
		if n.Kind < KindNetflow || n.Kind > KindExportTable {
			return fmt.Errorf("provgraph: node %d: invalid kind %d", i, n.Kind)
		}
	}
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("provgraph: edge %d: endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		if e.Type < KindNetflow || e.Type > KindExportTable {
			return fmt.Errorf("provgraph: edge %d: invalid type %d", i, e.Type)
		}
	}
	for i, c := range g.Chains {
		for _, ni := range c.Nodes {
			if ni < 0 || ni >= len(g.Nodes) {
				return fmt.Errorf("provgraph: chain %d: node index %d out of range", i, ni)
			}
		}
	}
	return nil
}
