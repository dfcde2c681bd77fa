// Package cluster is the horizontal scaling layer above internal/serve:
// it partitions the terminal population across N engine nodes with a
// consistent-hash ring over TerminalID and routes report batches to the
// node owning each terminal, behind one Router interface: one router
// core (ring, membership migration, journal, scatter) over two
// transports — in-process (N serve.Engines in one process, for tests
// and single-box scaling) and TCP (the newline-JSON wire protocol to
// remote hoserve daemons).
//
// The load-bearing guarantee is determinism: because the ring assigns
// every terminal to exactly one node and submission order is preserved
// per terminal all the way through, a cluster of N nodes produces
// per-terminal decision sequences identical to a single engine on the
// same stream — at any node count, in every decision mode (exact,
// compiled, adaptive).  The equivalence tests pin this on the paper's
// scenario grid.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/serve"
)

// DefaultVirtualNodes is the ring's virtual-node count per member: large
// enough that load spreads within a few percent of fair and a future
// membership change moves ~1/N of the terminals, small enough that the
// ring stays a cache-resident sorted array.
const DefaultVirtualNodes = 128

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is a consistent-hash ring over TerminalID.  Terminals hash with
// serve.HashTerminal — the same SplitMix64 family the engine's shard
// store probes with — and are owned by the first virtual node clockwise
// from their hash.  Immutable once built; safe for concurrent use.
//
// Members are identified by arbitrary small integer IDs, and a member's
// ring points depend only on its own ID: a ring over {0,1,2} and a ring
// over {0,1,2,5} place the shared members' points identically, so
// adding or removing one member moves only the ~1/(N+1) of terminals
// whose owning arc changed.  Elastic membership (AddNode/RemoveNode) is
// built on exactly this property.
type Ring struct {
	points  []ringPoint
	members []int // sorted, unique
	vnodes  int   // virtual nodes per member
	// lut is the fast path of NodeOf: bucket b covers the hash prefix
	// range [b<<lutShift, (b+1)<<lutShift); when every hash in the bucket
	// resolves to one member the entry holds that member, otherwise -1
	// and the lookup falls back to binary search.  With the default ring
	// density well under 1% of buckets straddle a point boundary, so the
	// routing hot loop costs one shift and one load per report.
	lut []int16
}

// lutBits sizes the lookup table: 2^16 entries (128 KiB of int16) keeps
// straddling buckets rare at default density while staying cache-friendly.
const lutBits = 16

const lutShift = 64 - lutBits

// MaxMemberID bounds member IDs: the LUT stores members as int16 with
// -1 reserved as the straddle sentinel.
const MaxMemberID = 32766

// NewRing builds a ring of member IDs 0..nodes-1 with virtualNodes
// points each (0 selects DefaultVirtualNodes).
func NewRing(nodes, virtualNodes int) (*Ring, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: node count %d must be ≥ 1", nodes)
	}
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
	}
	return NewRingMembers(members, virtualNodes)
}

// NewRingMembers builds a ring over an explicit member-ID set with
// virtualNodes points per member (0 selects DefaultVirtualNodes).  IDs
// must be unique and within [0, MaxMemberID]; order does not matter.
func NewRingMembers(members []int, virtualNodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if virtualNodes == 0 {
		virtualNodes = DefaultVirtualNodes
	}
	if virtualNodes < 1 {
		return nil, fmt.Errorf("cluster: virtual node count %d must be ≥ 1 (0 selects the default %d)",
			virtualNodes, DefaultVirtualNodes)
	}
	sorted := make([]int, len(members))
	copy(sorted, members)
	sort.Ints(sorted)
	for i, m := range sorted {
		if m < 0 || m > MaxMemberID {
			return nil, fmt.Errorf("cluster: member ID %d outside [0, %d]", m, MaxMemberID)
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("cluster: duplicate member ID %d", m)
		}
	}
	r := &Ring{points: make([]ringPoint, 0, len(sorted)*virtualNodes), members: sorted, vnodes: virtualNodes}
	for _, m := range sorted {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tiebreak so equal-hash points (vanishingly rare)
		// cannot make two equally-configured rings disagree.
		return r.points[i].node < r.points[j].node
	})
	if len(sorted) > 1 {
		r.buildLUT()
	}
	return r, nil
}

// buildLUT fills the prefix lookup table from the sorted points.
func (r *Ring) buildLUT() {
	r.lut = make([]int16, 1<<lutBits)
	for b := range r.lut {
		lo := r.search(uint64(b) << lutShift)
		hi := r.search(uint64(b)<<lutShift | (1<<lutShift - 1))
		if lo == hi {
			// The whole bucket resolves past the same set of points to
			// one successor.
			r.lut[b] = int16(r.points[lo%len(r.points)].node)
		} else {
			r.lut[b] = -1
		}
	}
}

// pointHash derives the ring position of member node's virtual node v:
// two rounds of the SplitMix64 finalizer over a (node, v) blend that is
// unique across members.  The second round matters — a single round over
// small blends would place node 0's points exactly on the hashes of
// terminal IDs 0..virtualNodes-1 (identical inputs to HashTerminal), and
// every low terminal would systematically land on node 0.
//
//fuzzyho:deterministic
func pointHash(node, v int) uint64 {
	h := serve.HashTerminal(serve.TerminalID(uint64(node)<<32 + uint64(v)))
	return serve.HashTerminal(serve.TerminalID(h))
}

// Nodes returns the member count.
//
//fuzzyho:nolockio
func (r *Ring) Nodes() int { return len(r.members) }

// Members returns the member IDs in ascending order (a copy).
//
//fuzzyho:nolockio
//fuzzyho:deterministic
func (r *Ring) Members() []int {
	out := make([]int, len(r.members))
	copy(out, r.members)
	return out
}

// NodeOf returns the member owning the terminal: the node of the first
// ring point at or clockwise past the terminal's hash.  Runs per report
// under the router's membership read lock: hot, deterministic (the
// equivalence pins route on it) and never blocking.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:nolockio
func (r *Ring) NodeOf(id serve.TerminalID) int {
	if r.lut == nil {
		return r.members[0] // single member owns everything
	}
	h := serve.HashTerminal(id)
	if n := r.lut[h>>lutShift]; n >= 0 {
		return int(n)
	}
	return r.points[r.search(h)%len(r.points)].node
}

// search returns the index of the first point with hash ≥ h (== len when
// h is past the last point; callers wrap with % len).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:nolockio
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
