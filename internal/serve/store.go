package serve

// terminalStore is the shard's purpose-built replacement for a
// map[TerminalID]*terminal: an open-addressing hash table over dense
// terminal slabs, tuned for the serving loop's access pattern — lookups
// dominate, inserts happen once per terminal, deletes only on membership
// migrations (a terminal's authority moving to another node).
//
// Layout.  The index is two parallel power-of-two arrays: keys[i] holds
// the terminal ID and refs[i] a 1-based reference into the slab arena
// (0 marks an empty bucket, so the zero value needs no initialisation
// sweep and TerminalID 0 stays a valid key).  Probing is linear from the
// SplitMix64 hash of the ID — the finalizer decorrelates dense ID ranges,
// so linear probing's cache-friendliness comes without its clustering
// pathology.  Terminal state itself lives in fixed-size slabs
// ([]terminal blocks): state of terminals created together is
// cache-adjacent, and growth reallocates only the small index arrays —
// slab entries never move, so *terminal pointers handed out by acquire
// stay valid for the life of the store, which is what lets the batch
// router resolve slots once and commit against them later.
//
// Deletion uses backward-shift repair instead of tombstones: probe
// chains stay exactly as long as live occupancy warrants, so a store
// that has churned through many migrations probes like one that never
// deleted.  Freed slab slots are recycled through a free list.
//
// The store is single-writer by construction (only the owning shard
// goroutine touches it) and never shrinks its index.
type terminalStore struct {
	keys []TerminalID
	refs []uint32
	mask uint64
	// live is the number of occupied buckets (== live terminals); growAt
	// is the occupancy that triggers the next index doubling.
	live   int
	growAt int
	slabs  [][]terminal
	// nextRef is the next never-used slab slot (0-based); freeRefs holds
	// slots freed by remove, reused LIFO so churn stays cache-warm.
	nextRef  uint32
	freeRefs []uint32
}

const (
	// storeMinBuckets sizes the initial index: small enough that an
	// 8-shard engine serving a handful of terminals stays cheap, large
	// enough that typical populations skip the first few doublings.
	storeMinBuckets = 128
	// slabBits sizes the terminal slabs (1<<slabBits terminals each):
	// big enough to amortize slab allocation, small enough that a tiny
	// shard does not commit megabytes up front.
	slabBits = 9
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
)

func newTerminalStore() *terminalStore {
	return &terminalStore{
		keys: make([]TerminalID, storeMinBuckets),
		refs: make([]uint32, storeMinBuckets),
		mask: storeMinBuckets - 1,
		// 3/4 load factor keeps linear-probe runs short.
		growAt: storeMinBuckets * 3 / 4,
	}
}

// count returns the number of terminals in the store.
func (ts *terminalStore) count() int { return ts.live }

// at resolves a slab reference (0-based) to its terminal.
//
//fuzzyho:hotpath
func (ts *terminalStore) at(ref uint32) *terminal {
	return &ts.slabs[ref>>slabBits][ref&slabMask]
}

// probeStart folds the high hash bits into the probe origin: shard
// selection consumed the low bits (mix64(id) % shards), so within one
// shard those are correlated — at power-of-two shard counts every
// terminal of a shard shares its low log2(shards) bits, and probing from
// `hashed & mask` directly would start every chain on a stride-of-shards
// subset of buckets, inflating linear-probe runs by roughly the shard
// count.  (routeBatch's grouping table buckets on high bits for the same
// reason.)
//
//fuzzyho:hotpath
func (ts *terminalStore) probeStart(hashed uint64) uint64 {
	return (hashed ^ hashed>>32) & ts.mask
}

// lookup returns the terminal for id, or nil if the store has never seen
// it.  hashed is mix64(uint64(id)) — callers on the batch path already
// have it.
//
//fuzzyho:hotpath
func (ts *terminalStore) lookup(id TerminalID, hashed uint64) *terminal {
	i := ts.probeStart(hashed)
	for {
		r := ts.refs[i]
		if r == 0 {
			return nil
		}
		if ts.keys[i] == id {
			return ts.at(r - 1)
		}
		i = (i + 1) & ts.mask
	}
}

// acquire returns the terminal for id, creating it zero-valued if absent;
// created reports whether this call made it.  The returned pointer is
// stable: index growth rehashes buckets, never moves slab entries.
//
//fuzzyho:hotpath
func (ts *terminalStore) acquire(id TerminalID, hashed uint64) (t *terminal, created bool) {
	i := ts.probeStart(hashed)
	for {
		r := ts.refs[i]
		if r == 0 {
			break
		}
		if ts.keys[i] == id {
			return ts.at(r - 1), false
		}
		i = (i + 1) & ts.mask
	}
	if ts.live >= ts.growAt {
		//fuzzyho:allow index growth is amortized O(1) and stops at the population high-water mark; steady state (pinned by TestServeSteadyStateBytesPerShardCount) never takes this branch
		ts.grow()
		// Re-probe in the doubled index for the insertion bucket.
		i = ts.probeStart(hashed)
		for ts.refs[i] != 0 {
			i = (i + 1) & ts.mask
		}
	}
	var ref uint32
	if n := len(ts.freeRefs); n > 0 {
		ref = ts.freeRefs[n-1]
		ts.freeRefs = ts.freeRefs[:n-1]
	} else {
		ref = ts.nextRef
		if int(ref)>>slabBits == len(ts.slabs) {
			//fuzzyho:allow slab growth happens once per slabSize new terminals and never in steady state, where every report hits an existing slot
			ts.slabs = append(ts.slabs, make([]terminal, slabSize))
		}
		ts.nextRef++
	}
	ts.keys[i] = id
	ts.refs[i] = ref + 1
	ts.live++
	return ts.at(ref), true
}

// remove deletes id from the store, zeroing and recycling its slab slot.
// It reports whether the terminal was present.  The probe chain is
// repaired by backward shifting: every entry past the hole whose home
// bucket lies at or cyclically before the hole moves into it, so no
// tombstones accumulate and lookup never needs a "deleted" marker.
func (ts *terminalStore) remove(id TerminalID, hashed uint64) bool {
	i := ts.probeStart(hashed)
	for {
		r := ts.refs[i]
		if r == 0 {
			return false
		}
		if ts.keys[i] == id {
			break
		}
		i = (i + 1) & ts.mask
	}
	ref := ts.refs[i] - 1
	*ts.at(ref) = terminal{} // acquire hands recycled slots out zero-valued
	ts.freeRefs = append(ts.freeRefs, ref)
	j := i
	for {
		j = (j + 1) & ts.mask
		if ts.refs[j] == 0 {
			break
		}
		k := ts.probeStart(mix64(uint64(ts.keys[j])))
		// Entry j may fill hole i only if its probe distance from home k
		// reaches at least as far as i — otherwise moving it would strand
		// it before its home and lookups would miss it.
		if (j-k)&ts.mask >= (j-i)&ts.mask {
			ts.keys[i], ts.refs[i] = ts.keys[j], ts.refs[j]
			i = j
		}
	}
	ts.keys[i] = 0
	ts.refs[i] = 0
	ts.live--
	return true
}

// forEach visits every live terminal in index-bucket order.  The visit
// function must not insert or remove (single-writer shard code never
// needs to).
func (ts *terminalStore) forEach(fn func(id TerminalID, t *terminal)) {
	for i, r := range ts.refs {
		if r != 0 {
			fn(ts.keys[i], ts.at(r-1))
		}
	}
}

// grow doubles the index and reinserts every occupied bucket.  Slab
// entries are untouched.
func (ts *terminalStore) grow() {
	oldKeys, oldRefs := ts.keys, ts.refs
	n := uint64(len(oldKeys)) * 2
	ts.keys = make([]TerminalID, n)
	ts.refs = make([]uint32, n)
	ts.mask = n - 1
	ts.growAt = int(n) * 3 / 4
	for j, r := range oldRefs {
		if r == 0 {
			continue
		}
		id := oldKeys[j]
		i := ts.probeStart(mix64(uint64(id)))
		for ts.refs[i] != 0 {
			i = (i + 1) & ts.mask
		}
		ts.keys[i] = id
		ts.refs[i] = r
	}
}
