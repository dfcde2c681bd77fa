package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/serve"
)

func TestNewRingValidates(t *testing.T) {
	if _, err := NewRing(0, 0); err == nil {
		t.Error("accepted 0 nodes")
	}
	if _, err := NewRing(3, -1); err == nil {
		t.Error("accepted negative virtual nodes")
	}
	r, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.points) != 3*DefaultVirtualNodes || r.Nodes() != 3 {
		t.Errorf("ring has %d points for %d nodes", len(r.points), r.Nodes())
	}
}

// TestRingDeterministic: two equally-configured rings agree on every
// terminal — the property that lets a router and a test (or two router
// processes) partition identically.
func TestRingDeterministic(t *testing.T) {
	a, _ := NewRing(5, 64)
	b, _ := NewRing(5, 64)
	for id := serve.TerminalID(0); id < 10000; id++ {
		if a.NodeOf(id) != b.NodeOf(id) {
			t.Fatalf("rings disagree on terminal %d", id)
		}
	}
}

// TestRingBalance: with the default virtual-node count, load spreads
// within a reasonable factor of fair share across members.
func TestRingBalance(t *testing.T) {
	const nodes, terminals = 4, 100000
	r, _ := NewRing(nodes, 0)
	counts := make([]int, nodes)
	for id := serve.TerminalID(0); id < terminals; id++ {
		counts[r.NodeOf(id)]++
	}
	fair := float64(terminals) / nodes
	for n, c := range counts {
		if dev := math.Abs(float64(c)-fair) / fair; dev > 0.35 {
			t.Errorf("node %d owns %d of %d terminals (%.0f%% from fair share %g)",
				n, c, terminals, 100*dev, fair)
		}
	}
}

// TestRingLowIDsSpread is the regression pin for the point-hash
// collision: a single SplitMix64 round over raw (node, v) blends placed
// node 0's virtual points exactly on the hashes of terminal IDs
// 0..virtualNodes-1, so every low terminal landed on node 0.  Dense
// low IDs — the common population shape — must spread across members.
func TestRingLowIDsSpread(t *testing.T) {
	for _, nodes := range []int{2, 3, 4} {
		r, _ := NewRing(nodes, 0)
		seen := map[int]bool{}
		for id := serve.TerminalID(0); id < 64; id++ {
			seen[r.NodeOf(id)] = true
		}
		if len(seen) != nodes {
			t.Errorf("%d nodes: terminals 0..63 reached only %d member(s)", nodes, len(seen))
		}
	}
}

// TestRingMembershipStability: growing the cluster from N to N+1 members
// moves roughly 1/(N+1) of the terminals — the consistent-hashing
// property that makes future membership changes cheap — and never moves a
// terminal between two nodes that exist in both rings.
func TestRingMembershipStability(t *testing.T) {
	const terminals = 100000
	old, _ := NewRing(3, 0)
	grown, _ := NewRing(4, 0)
	moved := 0
	for id := serve.TerminalID(0); id < terminals; id++ {
		was, now := old.NodeOf(id), grown.NodeOf(id)
		if was == now {
			continue
		}
		moved++
		if now != 3 {
			t.Fatalf("terminal %d moved %d → %d, not to the new member", id, was, now)
		}
	}
	frac := float64(moved) / terminals
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("grow 3→4 moved %.1f%% of terminals, want ≈25%%", 100*frac)
	}
}

// TestRingLUTMatchesSearch: the prefix lookup table is an optimization,
// never a semantic: every terminal must resolve to exactly the node the
// pure binary search yields.
func TestRingLUTMatchesSearch(t *testing.T) {
	for _, nodes := range []int{2, 3, 7} {
		r, _ := NewRing(nodes, 0)
		for i := 0; i < 200000; i++ {
			// Mix dense low IDs with scattered high ones.
			id := serve.TerminalID(i)
			if i%2 == 1 {
				id = serve.TerminalID(uint64(i) * 0x9E3779B97F4A7C15)
			}
			h := serve.HashTerminal(id)
			want := r.points[r.search(h)%len(r.points)].node
			if got := r.NodeOf(id); got != want {
				t.Fatalf("nodes=%d terminal %d: LUT says %d, search says %d", nodes, id, got, want)
			}
		}
	}
}

// searchLUT is the lookup table built bucket by bucket with two binary
// searches, the reference buildLUT's single pass must reproduce: a
// bucket whose first and last hash resolve to the same point takes that
// point's member, any other is -1.
func searchLUT(r *Ring) []int16 {
	lut := make([]int16, 1<<lutBits)
	for b := range lut {
		lo := r.search(uint64(b) << lutShift)
		hi := r.search(uint64(b)<<lutShift | (1<<lutShift - 1))
		if lo == hi {
			lut[b] = int16(r.points[lo%len(r.points)].node)
		} else {
			lut[b] = -1
		}
	}
	return lut
}

// TestRingLUTMatchesSearchConstruction compares whole lookup tables
// against the two-search construction, over member sets and virtual-node
// counts from sparse to dense, plus hand-placed points on bucket
// boundaries and at both ends of the hash space.
func TestRingLUTMatchesSearchConstruction(t *testing.T) {
	check := func(name string, r *Ring) {
		t.Helper()
		want := searchLUT(r)
		for b := range want {
			if r.lut[b] != want[b] {
				t.Fatalf("%s: bucket %d is %d, two searches give %d", name, b, r.lut[b], want[b])
			}
		}
	}
	for _, members := range [][]int{{0, 1}, {0, 1, 2}, {1, 2}, {0, 5, 9, 300}, {3, 4, 5, 6, 7, 8, 9, 10}} {
		for _, vnodes := range []int{1, 2, 7, 128, 1000} {
			r, err := NewRingMembers(members, vnodes)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("members %v, %d virtual nodes", members, vnodes), r)
		}
	}
	const mask = 1<<lutShift - 1
	r := &Ring{points: []ringPoint{
		{0, 1}, {mask - 1, 2}, {mask, 3}, {5 << lutShift, 4}, {5<<lutShift | mask, 5},
		{7<<lutShift | mask, 6}, {8 << lutShift, 7}, {math.MaxUint64, 8},
	}}
	r.buildLUT()
	check("boundary points", r)
}

// TestRingMatchesRouterNodeOf: both backends must expose the ring's
// assignment unchanged.
func TestRingMatchesRouterNodeOf(t *testing.T) {
	l, err := NewLocal(LocalConfig{Nodes: 3, Engine: serveConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, _ := NewRing(3, 0)
	for id := serve.TerminalID(0); id < 5000; id++ {
		if l.NodeOf(id) != r.NodeOf(id) {
			t.Fatalf("Local disagrees with ring on terminal %d", id)
		}
	}
}

func serveConfig(shards int) serve.Config {
	return serve.Config{Shards: shards, QueueDepth: 64}
}
