package sketch

import (
	"container/heap"
	"encoding/binary"
	"math/rand"
	"testing"
)

// heapMirror is the heap reference holding exactly what ss holds: entries,
// stamps, total and clock. It is how the reference follows the
// stream-summary through a Merge or a Restore, which it has no code for:
// what is compared from there on is how the two evict and count, given one
// starting state.
func heapMirror(ss *SpaceSaving) *HeapSpaceSaving {
	or := NewHeapSpaceSaving(ss.k)
	for i := 0; i < ss.n; i++ {
		n := ss.nodes[i]
		or.index[n.key] = i
		or.entries = append(or.entries, heapEntry{key: n.key, count: n.count, err: n.err, stamp: n.stamp})
	}
	heap.Init(or)
	or.total, or.clock = ss.total, ss.clock
	return or
}

// firstKeys returns the keys 0..n-1, every key the tests below draw from,
// as requireIdentical's probes.
func firstKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// diffUpdate applies one update to both and holds the stream-summary to
// the reference's eviction: when the key is new and the table full, the
// entry the heap is about to evict — least (count, stamp) — must be the
// one gone from ss afterwards, and the newcomer must have inherited the
// same count and error.
func diffUpdate(t *testing.T, tag string, ss *SpaceSaving, or *HeapSpaceSaving, key uint64, w int64) {
	t.Helper()
	_, tracked := or.index[key]
	evicts := !tracked && or.Len() == or.k
	var victim uint64
	if evicts {
		victim = or.entries[0].key
	}
	ss.Update(key, w)
	or.Update(key, w)
	if evicts {
		if _, still := ss.Lookup(victim); still {
			t.Fatalf("%s: Update(%d, %d) should have evicted key %d (count %d), which is still monitored",
				tag, key, w, victim, or.entries[0].count)
		}
	}
	if g, want := ss.Estimate(key), or.Estimate(key); g != want {
		t.Fatalf("%s: after Update(%d, %d) Estimate = %d, oracle %d", tag, key, w, g, want)
	}
	if g, want := ss.ErrorBound(key), or.ErrorBound(key); g != want {
		t.Fatalf("%s: after Update(%d, %d) ErrorBound = %d, oracle %d", tag, key, w, g, want)
	}
	if ss.Len() != or.Len() {
		t.Fatalf("%s: Len %d, oracle %d", tag, ss.Len(), or.Len())
	}
}

// TestSpaceSavingRebaseOrder holds the placement rebuild to the order the
// (count, stamp) sort gave, on the update sequences that rebuild the ring
// most: weights far beyond ringSlots — what a coalescing block hands down —
// so that every evicted entry leaves the ring at once; weights from a
// handful of multiples, so that counts coincide and a bucket is rebuilt
// out of several entries whose stamps are in no node order; and both on
// summaries fresh from a merge, whose stamps run against node order. Each
// is diffed against the heap reference eviction for eviction and, at
// checkpoints, entry for entry, through at least three rebuilds.
func TestSpaceSavingRebaseOrder(t *testing.T) {
	const k, universe, updates = 64, 600, 30000
	blockSums := func(rng *rand.Rand) int64 { return int64(3000 + rng.Intn(200000)) }
	equalRuns := func(rng *rand.Rand) int64 { return int64(1+rng.Intn(3)) * 2 * ringSlots }
	fresh := func(*rand.Rand, func(*rand.Rand) int64) *SpaceSaving { return NewSpaceSaving(k) }
	merged := func(rng *rand.Rand, weight func(*rand.Rand) int64) *SpaceSaving {
		a, b := NewSpaceSaving(k), NewSpaceSaving(k)
		for i := 0; i < 4000; i++ {
			a.Update(uint64(rng.Intn(universe)), weight(rng))
			b.Update(uint64(rng.Intn(universe)), weight(rng))
		}
		a.Merge(b)
		return a
	}
	for _, tc := range []struct {
		name   string
		start  func(*rand.Rand, func(*rand.Rand) int64) *SpaceSaving
		weight func(*rand.Rand) int64
	}{
		{"block-sums", fresh, blockSums},
		{"equal-runs", fresh, equalRuns},
		{"merged/block-sums", merged, blockSums},
		{"merged/equal-runs", merged, equalRuns},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			ss := tc.start(rng, tc.weight)
			or := heapMirror(ss)
			probes := firstKeys(universe)
			requireIdentical(t, "start", ss, or, probes)
			rebuilds, base := 0, ss.base
			for i := 0; i < updates; i++ {
				diffUpdate(t, tc.name, ss, or, uint64(rng.Intn(universe)), tc.weight(rng))
				if ss.base != base {
					rebuilds, base = rebuilds+1, ss.base
				}
				if i%1000 == 999 {
					requireIdentical(t, tc.name, ss, or, probes)
				}
			}
			if rebuilds < 3 {
				t.Fatalf("%d ring rebuilds in %d updates: the case does not reach rebase", rebuilds, updates)
			}
			t.Logf("%d ring rebuilds", rebuilds)
		})
	}
}

// FuzzSpaceSavingVsHeap drives the stream-summary and the heap reference
// through one arbitrary sequence of weighted updates — weights up to 2²⁰,
// far outside the ring's window — with Resets and Merges in between, and
// requires the same evictions and, at the end, the same entries. Four
// bytes make an operation: a selector, a key and a 16-bit weight that the
// selector's high bits shift left by up to four.
func FuzzSpaceSavingVsHeap(f *testing.F) {
	seed := make([]byte, 0, 4*600)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 600; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, rng.Uint32())
	}
	f.Add(seed, uint8(8))
	f.Add(seed[:400], uint8(1))
	f.Add([]byte{2, 1, 0, 16, 2, 2, 0, 16, 1, 0, 0, 0, 0x42, 3, 0xff, 0xff, 0, 0, 0, 0, 0x42, 3, 1, 0}, uint8(2))
	// Entry counts that cross every growth step, minEntries, 2·minEntries,
	// … up to k, then evict, in two fillings with a Reset between: by
	// updates alone, and with a merge of three new keys every three updates
	// (so that some steps are crossed by an update, some by a merge). For
	// a capacity the doubling meets and one it overshoots.
	for _, capacity := range []uint8{31, 23} {
		for _, merges := range []bool{false, true} {
			var ops []byte
			op := func(sel byte, key int) {
				ops = append(ops, sel, byte(key), byte(1+rng.Intn(255)), byte(rng.Intn(4)))
			}
			k, side := 1+int(capacity%32), 48
			for fill := 0; fill < 2; fill++ {
				for key := 0; key < k+8; key++ {
					op(3, key)
					if merges && key%3 == 2 {
						for j := 0; j < 3; j++ {
							op(2, side)
							side++
						}
						op(1, 0)
					}
				}
				op(0, 0)
			}
			f.Add(ops, capacity)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte, capacity uint8) {
		k := 1 + int(capacity%32)
		ss, side := NewSpaceSaving(k), NewSpaceSaving(k)
		or := NewHeapSpaceSaving(k)
		for ; len(ops) >= 4; ops = ops[4:] {
			key := uint64(ops[1] % 96)
			w := int64(binary.LittleEndian.Uint16(ops[2:])) << ((ops[0] >> 4) % 5)
			switch ops[0] & 15 {
			case 0:
				ss.Reset()
				or.Reset()
			case 1: // the reference has no merge: it takes the merged state and goes on from it
				ss.Merge(side)
				or = heapMirror(ss)
			case 2:
				side.Update(key, w)
			default:
				diffUpdate(t, "fuzz", ss, or, key, w)
			}
			if ss.Min() != or.Min() || ss.Total() != or.Total() {
				t.Fatalf("Min %d Total %d, oracle Min %d Total %d", ss.Min(), ss.Total(), or.Min(), or.Total())
			}
		}
		requireIdentical(t, "end", ss, or, firstKeys(96))
	})
}
