// Package fleet turns dbpserved into a horizontally sharded cluster: one
// coordinator that owns all placement state, plus N stateless workers that
// only run simulations handed to them. Placement is a consistent-hash ring
// over the service's existing content-addressed run keys, so the same
// request always lands on the same worker (that worker's local
// singleflight then makes the dedup invariant fleet-wide), and membership
// changes move only the minimal key range. Workers consult each other's
// result and alone-baseline caches over HTTP before simulating, and the
// coordinator mirrors checkpoint blobs so a SIGKILLed worker's runs migrate
// and resume — bit-identically — anywhere in the cluster.
//
// The design borrows the paper's own thesis at cluster scale: partition the
// shared resource (sweep work) among competing consumers (workers) with a
// thin, predictable policy rather than a clever monolith.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per worker. 128 points per node keeps
// the load imbalance for realistic fleet sizes within a few percent while
// the ring stays small enough to rebuild on every membership change. It is
// a constant so the coordinator and every worker build identical rings.
const replicas = 128

// Ring is an immutable consistent-hash ring: build one with NewRing, build
// a new one when membership changes. Immutability is what makes placement
// reads lock-free for callers that swap the ring atomically.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, deduped
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given nodes with replicas virtual nodes
// each. Node order does not matter:
// any permutation of the same set yields an identical ring. An empty node
// set is a valid ring that owns nothing.
func NewRing(nodes ...string) *Ring {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*replicas)
	for _, n := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare, but the ring must be a pure
		// function of the node set): the lexically smaller node wins.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Owner maps a key to its owning node: the first virtual node clockwise
// from the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is a circle
	}
	return r.points[i].node
}

// Nodes returns the ring's member set, sorted. The slice is a copy.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// ringHash is the ring's point/key hash: the first 8 bytes of sha256.
// sha256 (over, say, FNV) buys uniformity over the structured run keys —
// they share long common prefixes (config hashes differ late, budgets sit
// at the tail), which weak multiplicative hashes cluster badly.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
