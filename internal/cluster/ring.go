// Package cluster turns a set of farosd processes into one analysis
// fleet. Work is already content-addressed — every result and trace is
// keyed by a deterministic canonical hash — so the cluster shards those
// hashes across nodes with a consistent-hash ring, probes peer health
// against /readyz, and resolves each request to its owning node. The
// HTTP layer forwards non-owned work to the owner through the retrying
// client and backfills the answer into the local store, so repeat reads
// become cross-node cache hits; a down owner degrades to local
// execution (the analysis is deterministic on every node) rather than
// failing the request.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVirtualNodes is the ring points each node contributes. 64 keeps
// the assignment spread within a few percent of uniform for small fleets
// while the ring stays tiny (N*64 points).
const DefaultVirtualNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a deterministic consistent-hash ring over node IDs. The
// assignment depends only on the node ID set (never on insertion order),
// and removing one of N nodes remaps only ~1/N of the key space — the
// property that makes peer churn cheap for a content-addressed cache.
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	points []point
	nodes  []string // sorted, deduplicated
}

// ringPointHash places virtual node i of a node on the ring. The inputs
// are length-framed so (node, i) pairs can never collide by
// concatenation, and the domain tag keeps ring points and key hashes in
// separate hash domains.
func ringPointHash(node string, i int) uint64 {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(i))
	h := sha256.New()
	h.Write([]byte("faros-ring-v1\x00"))
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write(idx[:])
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}

// keyHash positions a shard key (spec hash, trace digest, cache key) on
// the ring.
func keyHash(key string) uint64 {
	h := sha256.New()
	h.Write([]byte("faros-key-v1\x00"))
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}

// NewRing builds a ring over the given node IDs with vnodes virtual
// nodes each (<=0 uses DefaultVirtualNodes). Duplicate IDs collapse;
// order does not matter. An empty node set yields an empty ring whose
// Owner returns "".
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make(map[string]struct{}, len(nodes))
	sorted := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if _, ok := uniq[n]; ok || n == "" {
			continue
		}
		uniq[n] = struct{}{}
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	r := &Ring{nodes: sorted}
	r.points = make([]point, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: ringPointHash(n, i), node: n})
		}
	}
	// Ties (astronomically unlikely with 64-bit sha256 prefixes, but the
	// ring must be a total order) break by node ID so the assignment
	// stays set-deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Len returns the number of distinct nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Points returns the total virtual-node count on the ring.
func (r *Ring) Points() int { return len(r.points) }

// walkFrom returns the index of the first ring point at or clockwise
// after the key's hash.
func (r *Ring) walkFrom(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

// Owner returns the node owning a shard key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.walkFrom(key)].node
}

// Replicas returns up to n distinct nodes for a key in ring-walk order —
// the owner first, then each next distinct node clockwise. The walk
// order is the replica-selection and failover order: a reader that
// misses the owner tries the rest of the walk.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	start := r.walkFrom(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
