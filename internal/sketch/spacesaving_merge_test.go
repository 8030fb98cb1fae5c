package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// mergeStream is one synthetic weighted stream: zipf-ish keys, packet-like
// weights, reproducible under seed.
func mergeStream(seed int64, n, keys int) [][2]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int64, n)
	for i := range out {
		// Quadratic skew concentrates weight on low keys, the regime
		// Space-Saving is designed for.
		k := int64(float64(keys) * rng.Float64() * rng.Float64())
		w := int64(40 + rng.Intn(1460))
		out[i] = [2]int64{k, w}
	}
	return out
}

func feed(s *SpaceSaving, ex *Exact, stream [][2]int64) {
	for _, kw := range stream {
		s.Update(uint64(kw[0]), kw[1])
		if ex != nil {
			ex.Update(uint64(kw[0]), kw[1])
		}
	}
}

// TestSpaceSavingMergeBounds checks the merged summary's per-key
// guarantees against exact counts of the combined stream: the lower bound
// (count-err) never exceeds the true count, the count never falls below
// it, total is the combined weight, and the overestimate stays within the
// summed N/k bound.
func TestSpaceSavingMergeBounds(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		name      string
		na, nb    int
		keys      int
		seedA, sB int64
	}{
		{"balanced", 20000, 20000, 400, 1, 2},
		{"skewSizes", 30000, 5000, 300, 3, 4},
		{"fewKeysExact", 8000, 8000, 40, 5, 6}, // fits in k: no error at all
		{"manyKeys", 25000, 25000, 5000, 7, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewSpaceSaving(k), NewSpaceSaving(k)
			exact := NewExact(1024)
			sa := mergeStream(tc.seedA, tc.na, tc.keys)
			sb := mergeStream(tc.sB, tc.nb, tc.keys)
			feed(a, exact, sa)
			feed(b, exact, sb)

			bound := a.Total()/int64(k) + b.Total()/int64(k)
			wantTotal := a.Total() + b.Total()
			a.Merge(b)
			if a.Total() != wantTotal {
				t.Fatalf("merged total = %d, want %d", a.Total(), wantTotal)
			}
			if a.Len() > k {
				t.Fatalf("merged len %d exceeds capacity %d", a.Len(), k)
			}
			a.ForEachTracked(func(key uint64, count, errUB int64) {
				truth := exact.Estimate(key)
				if count < truth {
					t.Errorf("key %d: merged estimate %d underestimates true %d", key, count, truth)
				}
				if count-errUB > truth {
					t.Errorf("key %d: merged lower bound %d exceeds true %d", key, count-errUB, truth)
				}
				if count-truth > bound {
					t.Errorf("key %d: overestimate %d exceeds summed bound %d", key, count-truth, bound)
				}
			})
			// Unmonitored keys must still be upper-bounded by the estimate.
			exact.ForEach(func(key uint64, truth int64) {
				if est := a.Estimate(key); est < truth {
					t.Errorf("key %d: estimate %d below true %d", key, est, truth)
				}
			})
			// The merged summary must keep monitoring every key that could
			// exceed the summed error bound (no false negatives).
			exact.ForEach(func(key uint64, truth int64) {
				if truth > bound {
					if a.idxFind(key) == nilIdx {
						t.Errorf("key %d with true count %d > bound %d not monitored after merge", key, truth, bound)
					}
				}
			})
		})
	}
}

// TestSpaceSavingMergeEmptyIdentity checks both identity directions:
// merging an empty summary changes nothing, and merging into an empty
// summary copies the other side entry for entry.
func TestSpaceSavingMergeEmptyIdentity(t *testing.T) {
	const k = 32
	stream := mergeStream(11, 15000, 500)

	full := NewSpaceSaving(k)
	feed(full, nil, stream)
	ref := NewSpaceSaving(k)
	feed(ref, nil, stream)

	entries := func(s *SpaceSaving) map[uint64][2]int64 {
		m := map[uint64][2]int64{}
		s.ForEachTracked(func(key uint64, count, errUB int64) {
			m[key] = [2]int64{count, errUB}
		})
		return m
	}

	full.Merge(NewSpaceSaving(k))
	if got, want := entries(full), entries(ref); len(got) != len(want) {
		t.Fatalf("merge with empty changed entry count: %d != %d", len(got), len(want))
	} else {
		for key, w := range want {
			if got[key] != w {
				t.Fatalf("merge with empty changed key %d: %v != %v", key, got[key], w)
			}
		}
	}
	if full.Total() != ref.Total() {
		t.Fatalf("merge with empty changed total: %d != %d", full.Total(), ref.Total())
	}

	empty := NewSpaceSaving(k)
	empty.Merge(ref)
	if got, want := entries(empty), entries(ref); len(got) != len(want) {
		t.Fatalf("merge into empty dropped entries: %d != %d", len(got), len(want))
	} else {
		for key, w := range want {
			if got[key] != w {
				t.Fatalf("merge into empty changed key %d: %v != %v", key, got[key], w)
			}
		}
	}
	if empty.Total() != ref.Total() {
		t.Fatalf("merge into empty total: %d != %d", empty.Total(), ref.Total())
	}
}

// TestSpaceSavingMergeDisjointPartition checks the sharded-pipeline
// telescoping property: hash-partitioning one stream across K summaries
// and merging them keeps the error within the single-summary N/k bound.
func TestSpaceSavingMergeDisjointPartition(t *testing.T) {
	const k = 64
	for _, K := range []int{2, 4, 8} {
		stream := mergeStream(21, 40000, 800)
		exact := NewExact(1024)
		shards := make([]*SpaceSaving, K)
		for i := range shards {
			shards[i] = NewSpaceSaving(k)
		}
		var total int64
		for _, kw := range stream {
			exact.Update(uint64(kw[0]), kw[1])
			shards[uint64(kw[0])%uint64(K)].Update(uint64(kw[0]), kw[1])
			total += kw[1]
		}
		merged := NewSpaceSaving(k)
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.Total() != total {
			t.Fatalf("K=%d: merged total %d != %d", K, merged.Total(), total)
		}
		bound := total / int64(k) // telescoped: sum of Ni/k over the partition
		merged.ForEachTracked(func(key uint64, count, errUB int64) {
			truth := exact.Estimate(key)
			if count < truth {
				t.Errorf("K=%d key %d: underestimate %d < %d", K, key, count, truth)
			}
			if count-truth > bound {
				t.Errorf("K=%d key %d: overestimate %d exceeds telescoped bound %d", K, key, count-truth, bound)
			}
		})
	}
}

// TestSpaceSavingMergeUsableAfter verifies a merged summary keeps
// functioning as a live stream summary: updates, evictions and queries
// after a merge behave identically to a summary rebuilt from scratch
// state (structure invariants hold, no panics, bounds persist).
func TestSpaceSavingMergeUsableAfter(t *testing.T) {
	const k = 48
	a, b := NewSpaceSaving(k), NewSpaceSaving(k)
	exact := NewExact(1024)
	feed(a, exact, mergeStream(31, 12000, 600))
	feed(b, exact, mergeStream(32, 12000, 600))
	a.Merge(b)
	// Keep streaming into the merged summary.
	post := mergeStream(33, 12000, 600)
	feed(a, exact, post)
	bound := a.Total() / int64(k) * 2 // two k-counter summaries' worth of error
	a.ForEachTracked(func(key uint64, count, errUB int64) {
		truth := exact.Estimate(key)
		if count < truth {
			t.Errorf("key %d: post-merge underestimate %d < %d", key, count, truth)
		}
		if count-truth > bound {
			t.Errorf("key %d: post-merge overestimate %d > %d", key, count-truth, bound)
		}
	})
	if a.Len() != k {
		t.Fatalf("post-merge summary not full: %d != %d", a.Len(), k)
	}
}

// refMergeAll is the K-way merge written the slow way: every key any
// summary of the round monitors gets the sum of the round's upper bounds
// (its count where monitored, the summary's floor where not) and of its
// error bounds on the same terms; the rows are sorted count-descending,
// key-ascending and cut to k. Nil and empty summaries take no part.
func refMergeAll(k int, round []*SpaceSaving) (rows []KV, total int64) {
	type view struct {
		floor   int64
		entries map[uint64]KV
	}
	var views []view
	union := map[uint64]bool{}
	for _, o := range round {
		if o == nil || o.Len() == 0 {
			continue
		}
		v := view{entries: map[uint64]KV{}}
		minCount := int64(math.MaxInt64)
		for _, e := range o.Tracked() {
			v.entries[e.Key] = e
			union[e.Key] = true
			minCount = min(minCount, e.Count)
		}
		if o.Len() == o.Capacity() {
			v.floor = minCount
		}
		views = append(views, v)
		total += o.Total()
	}
	for key := range union {
		row := KV{Key: key}
		for _, v := range views {
			if e, ok := v.entries[key]; ok {
				row.Count += e.Count
				row.ErrUB += e.ErrUB
			} else {
				row.Count += v.floor
				row.ErrUB += v.floor
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Count != rows[b].Count {
			return rows[a].Count > rows[b].Count
		}
		return rows[a].Key < rows[b].Key
	})
	return rows[:min(len(rows), k)], total
}

// sameNodes fails unless s holds exactly want, node for node, and total.
func sameNodes(t *testing.T, what string, s *SpaceSaving, want []KV, total int64) {
	t.Helper()
	if got := s.Tracked(); !slices.Equal(got, want) {
		t.Fatalf("%s: %d nodes, want %d; first difference at %d\n got  %v\n want %v",
			what, len(got), len(want), firstDiff(got, want), head(got), head(want))
	}
	if s.Total() != total {
		t.Fatalf("%s: total %d, want %d", what, s.Total(), total)
	}
	if !s.Ordered() {
		t.Fatalf("%s: merged summary does not report itself ordered", what)
	}
}

func firstDiff(a, b []KV) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func head(kvs []KV) []KV { return kvs[:min(len(kvs), 6)] }

// fed builds a k-counter summary of a synthetic stream.
func fed(k int, seed int64, n, keys int) *SpaceSaving {
	s := NewSpaceSaving(k)
	feed(s, nil, mergeStream(seed, n, keys))
	return s
}

// TestMergeAllMatchesReference holds the K-way kernel to the map-based
// reference entry for entry, node order included: every K the pipeline
// and the Aggregator use, capacities that differ from the receiver's on
// both sides, nil and empty sources among the others, and a receiver that
// is itself one of the round.
func TestMergeAllMatchesReference(t *testing.T) {
	// One goroutine: the merges all run in the pool's one scratch, through
	// every shape, so nothing may leak between merges.
	for _, K := range []int{1, 2, 3, 4, 8} {
		for _, tc := range []struct {
			name     string
			k        int   // the receiver's capacity
			caps     []int // the sources' capacities, cycled
			receiver bool  // the receiver holds a stream of its own
			holes    bool  // nil and empty sources in between
		}{
			{"equal", 64, []int{64}, false, false},
			{"equal-receiver", 64, []int{64}, true, false},
			{"unequal", 48, []int{64, 16, 100}, false, true},
			{"unequal-receiver", 32, []int{20, 64}, true, true},
			{"not-full", 256, []int{256}, true, false},
		} {
			t.Run(fmt.Sprintf("%d-way/%s", K, tc.name), func(t *testing.T) {
				recv := NewSpaceSaving(tc.k)
				if tc.receiver {
					feed(recv, nil, mergeStream(int64(900+K), 9000, 700))
				}
				round := []*SpaceSaving{recv}
				var srcs []*SpaceSaving
				for i := 0; i < K; i++ {
					if tc.holes && i%2 == 1 {
						srcs = append(srcs, nil, NewSpaceSaving(8))
					}
					o := fed(tc.caps[i%len(tc.caps)], int64(100*K+i), 6000+1000*i, 150+90*i)
					srcs = append(srcs, o)
					round = append(round, o)
				}
				want, total := refMergeAll(tc.k, round)
				recv.MergeAll(srcs)
				sameNodes(t, "merged", recv, want, total)
				for _, o := range round[1:] {
					if o.Ordered() {
						t.Fatal("a live source reports itself ordered after the merge")
					}
				}
			})
		}
	}
}

// TestMergeOneSourceIntoEmpty pins the one-source case to what the
// pairwise Merge into an empty summary always gave: the source's entries
// in the canonical order, cut to the receiver's capacity, its total.
func TestMergeOneSourceIntoEmpty(t *testing.T) {
	src := NewSpaceSaving(8)
	for _, kw := range [][2]int64{{5, 10}, {3, 20}, {9, 20}, {1, 7}, {4, 0}, {2, 20}} {
		src.Update(uint64(kw[0]), kw[1])
	}
	canonical := []KV{{Key: 2, Count: 20}, {Key: 3, Count: 20}, {Key: 9, Count: 20}, {Key: 5, Count: 10}, {Key: 1, Count: 7}, {Key: 4, Count: 0}}
	whole := NewSpaceSaving(8)
	whole.Merge(src)
	sameNodes(t, "same capacity", whole, canonical, 77)
	cut := NewSpaceSaving(2)
	cut.Merge(src)
	sameNodes(t, "smaller receiver", cut, canonical[:2], 77)
	// Merging nothing changes nothing but the order, to the canonical one.
	src.MergeAll([]*SpaceSaving{nil, NewSpaceSaving(4)})
	sameNodes(t, "nothing merged", src, canonical, 77)
}

// TestMergeAllOrderFree: the merged nodes are a function of the round as
// a multiset — every permutation of the sources, and every choice of
// which summary of the round receives the others, leaves the same nodes
// in the same places.
func TestMergeAllOrderFree(t *testing.T) {
	const k = 40
	mk := func() []*SpaceSaving {
		return []*SpaceSaving{fed(k, 1, 7000, 300), fed(k, 2, 5000, 900), fed(k, 3, 9000, 120), fed(k, 4, 300, 30)}
	}
	want, total := refMergeAll(k, mk())
	var permute func(order []int, n int)
	permute = func(order []int, n int) {
		if n == len(order) {
			round := mk()
			srcs := make([]*SpaceSaving, len(order))
			for i, j := range order {
				srcs[i] = round[j]
			}
			acc := NewSpaceSaving(k)
			acc.MergeAll(srcs)
			sameNodes(t, fmt.Sprint("into empty ", order), acc, want, total)
			srcs[0].MergeAll(srcs[1:])
			sameNodes(t, fmt.Sprint("first receives ", order), srcs[0], want, total)
			return
		}
		for i := n; i < len(order); i++ {
			order[n], order[i] = order[i], order[n]
			permute(order, n+1)
			order[n], order[i] = order[i], order[n]
		}
	}
	permute([]int{0, 1, 2, 3}, 0)
}

// TestMergeAllGuarantees checks the three Space-Saving guarantees on the
// merged summary against exact counts of the combined stream, with zero
// slack: no estimate below the truth (monitored or not), no overestimate
// above the sum of Ni/ki — N/k for hash-partitioned shards of one stream —
// and every key heavier than that bound monitored.
func TestMergeAllGuarantees(t *testing.T) {
	const k = 64
	for _, K := range []int{2, 3, 4, 8} {
		for _, partitioned := range []bool{true, false} {
			exact := NewExact(1024)
			shards := make([]*SpaceSaving, K)
			for i := range shards {
				shards[i] = NewSpaceSaving(k)
			}
			for n, kw := range mergeStream(int64(40+K), 60000, 1500) {
				key := uint64(kw[0])
				i := n % K // overlapping: every shard sees every key
				if partitioned {
					i = int(key % uint64(K))
				}
				shards[i].Update(key, kw[1])
				exact.Update(key, kw[1])
			}
			var bound int64
			for _, sh := range shards {
				bound += sh.Total() / k
			}
			if partitioned {
				bound = exact.Total() / k // the terms telescope
			}
			merged := NewSpaceSaving(k)
			merged.MergeAll(shards)
			if merged.Total() != exact.Total() || merged.Len() != k {
				t.Fatalf("K=%d: total %d of %d, %d entries", K, merged.Total(), exact.Total(), merged.Len())
			}
			if merged.Min() > bound {
				t.Errorf("K=%d partitioned=%v: minimum %d above the bound %d", K, partitioned, merged.Min(), bound)
			}
			merged.ForEachTracked(func(key uint64, count, errUB int64) {
				truth := exact.Estimate(key)
				if count < truth || count-errUB > truth {
					t.Errorf("K=%d key %d: [%d, %d] does not bracket the true %d", K, key, count-errUB, count, truth)
				}
				if count-truth > bound {
					t.Errorf("K=%d partitioned=%v key %d: overestimate %d above the bound %d", K, partitioned, key, count-truth, bound)
				}
			})
			exact.ForEach(func(key uint64, truth int64) {
				if est := merged.Estimate(key); est < truth {
					t.Errorf("K=%d key %d: estimate %d below the true %d", K, key, est, truth)
				}
				if _, ok := merged.Lookup(key); truth > bound && !ok {
					t.Errorf("K=%d key %d: true count %d above the bound %d, not monitored", K, key, truth, bound)
				}
			})
		}
	}
}

// restored builds a k-counter summary holding exactly entries.
func restored(t *testing.T, k int, total int64, entries []KV) *SpaceSaving {
	t.Helper()
	s := NewSpaceSaving(k)
	if err := s.Restore(total, len(entries), func(i int) KV { return entries[i] }); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMergeAllHostileShapes feeds the ordering the tables least like the
// traffic it was sized on, each held to the reference: every count equal,
// so one run is the whole table and the cut falls inside it (the smallest
// keys stay); counts whose significant digits reach past 2^40 and up to
// MaxInt64 (every radix pass runs); zero-weight entries; one key every
// source monitors; long runs of equal counts between distinct ones.
func TestMergeAllHostileShapes(t *testing.T) {
	check := func(name string, k int, srcs ...*SpaceSaving) *SpaceSaving {
		t.Helper()
		acc := NewSpaceSaving(k)
		want, total := refMergeAll(k, srcs)
		acc.MergeAll(srcs)
		sameNodes(t, name, acc, want, total)
		return acc
	}

	var a, b []KV
	for i := 0; i < 300; i++ {
		a = append(a, KV{Key: uint64(1000 + 7*i%300), Count: 40})
		b = append(b, KV{Key: uint64(7 * i % 300), Count: 40}) // 0..299, shuffled
	}
	acc := check("all equal", 256, restored(t, 512, 40*300, a), restored(t, 512, 40*300, b))
	for i, e := range acc.Tracked() {
		if e.Key != uint64(i) {
			t.Fatalf("all equal: node %d holds key %d; the cut must keep the smallest keys", i, e.Key)
		}
	}

	var big, huge []KV
	var bigTotal, hugeTotal int64
	for i := 0; i < 100; i++ {
		c := int64(1)<<40 + int64(i%7)<<33 + int64(i)
		big = append(big, KV{Key: uint64(i), Count: c, ErrUB: c / 3})
		bigTotal += c
	}
	for i := 0; i < 3; i++ {
		c := int64(math.MaxInt64)/4 - int64(i)
		huge = append(huge, KV{Key: uint64(50 + 100*i), Count: c, ErrUB: int64(i)})
		hugeTotal += c
	}
	check("wide counts", 64, restored(t, 128, bigTotal, big), restored(t, 4, hugeTotal, huge))
	check("max count", 4, restored(t, 4, math.MaxInt64, []KV{{Key: 1, Count: math.MaxInt64, ErrUB: 5}, {Key: 2, Count: 0}}))

	zero := NewSpaceSaving(16)
	for i := 0; i < 12; i++ {
		zero.Update(uint64(100-i), 0)
	}
	check("zero weights", 8, zero, fed(16, 5, 200, 10))

	var shared []*SpaceSaving
	for i := 0; i < 8; i++ {
		s := fed(24, int64(60+i), 3000, 200+50*i)
		s.Update(424242, int64(1000*(i+1)))
		shared = append(shared, s)
	}
	acc = check("shared key", 24, shared...)
	if c, ok := acc.Lookup(424242); !ok || c < 36000 {
		t.Fatalf("shared key: merged count %d, monitored %v; the eight sources gave it 36000", c, ok)
	}

	var runs []KV
	for i := 0; i < 400; i++ {
		runs = append(runs, KV{Key: uint64(1<<63 - 1 - 7919*i%400), Count: int64(40 * (1 + i%3))})
	}
	check("long runs", 300, restored(t, 512, 40*3*400, runs), fed(64, 9, 5000, 300))
}

// TestMergeSaturates is the overflow fix: two summaries a wire frame can
// carry, one entry of 2^62+1 each, merged to count = total = MinInt64.
// The sums stop at MaxInt64 — counts, error bounds and total — and an
// entry that does not overflow keeps its exact sum.
func TestMergeSaturates(t *testing.T) {
	const c = int64(1)<<62 + 1
	mk := func(small uint64) *SpaceSaving {
		return restored(t, 4, c, []KV{{Key: 1, Count: c, ErrUB: c}, {Key: small, Count: 5, ErrUB: 1}})
	}
	a := mk(2)
	a.Merge(mk(3))
	want := []KV{{Key: 1, Count: math.MaxInt64, ErrUB: math.MaxInt64}, {Key: 2, Count: 5, ErrUB: 1}, {Key: 3, Count: 5, ErrUB: 1}}
	sameNodes(t, "two-way", a, want, math.MaxInt64)
	// Saturated values are values: a further merge keeps them there.
	a.MergeAll([]*SpaceSaving{mk(2), mk(3)})
	want[1], want[2] = KV{Key: 2, Count: 10, ErrUB: 2}, KV{Key: 3, Count: 10, ErrUB: 2}
	sameNodes(t, "again", a, want, math.MaxInt64)

	// What lets the merge check the totals alone: no entry above its total.
	if err := NewSpaceSaving(4).Restore(c-1, 1, func(int) KV { return KV{Key: 1, Count: c} }); err == nil {
		t.Fatal("Restore accepted an entry heavier than the summary's total")
	}
}

// TestOrderedFlag: a summary knows when its nodes stand in non-increasing
// count order — after a merge, after a Restore whose entries arrive that
// way, and when empty — and forgets it at the first Update, whatever the
// update does to the order.
func TestOrderedFlag(t *testing.T) {
	s := NewSpaceSaving(8)
	if !s.Ordered() {
		t.Fatal("a new summary is not ordered")
	}
	s.Update(1, 10)
	if s.Ordered() {
		t.Fatal("an Update left the flag set")
	}
	s.Reset()
	if !s.Ordered() {
		t.Fatal("Reset did not set the flag")
	}
	inOrder := []KV{{Key: 9, Count: 30}, {Key: 2, Count: 30}, {Key: 5, Count: 7}, {Key: 4, Count: 0}}
	s = restored(t, 8, 100, inOrder) // ties need not be in key order
	if !s.Ordered() || s.Floor() != 0 {
		t.Fatal("an in-order Restore is not ordered")
	}
	s = restored(t, 4, 100, inOrder)
	s.Update(5, 0) // a zero-weight update of a monitored key moves nothing, and still clears it
	if s.Ordered() {
		t.Fatal("an Update left the flag set")
	}
	shuffled := []KV{{Key: 5, Count: 7}, {Key: 9, Count: 30}, {Key: 2, Count: 30}}
	if s = restored(t, 3, 100, shuffled); s.Ordered() || s.Floor() != 7 {
		t.Fatalf("out-of-order Restore: ordered %v, floor %d", s.Ordered(), s.Floor())
	}
	s.Merge(NewSpaceSaving(3)) // even of nothing: it orders the receiver
	if !s.Ordered() || s.Entry(0).Count != 30 {
		t.Fatal("a merge did not set the flag")
	}
}

// TestRestoreFailureLeavesEmpty: a Restore that fails part-way leaves the
// summary empty in earnest — Reset skips clearing the index of a summary
// with no nodes, so the nodes installed before the failure must count.
func TestRestoreFailureLeavesEmpty(t *testing.T) {
	s := NewSpaceSaving(8)
	dup := []KV{{Key: 1, Count: 9}, {Key: 2, Count: 8}, {Key: 1, Count: 7}}
	if err := s.Restore(100, len(dup), func(i int) KV { return dup[i] }); err == nil {
		t.Fatal("Restore accepted a duplicate key")
	}
	if _, ok := s.Lookup(2); ok || s.Len() != 0 || s.Total() != 0 || s.Estimate(1) != 0 {
		t.Fatalf("failed Restore left %d entries, total %d", s.Len(), s.Total())
	}
	s.Update(2, 5)
	s.Reset()
	if _, ok := s.Lookup(2); ok {
		t.Fatal("Reset left a key in the index")
	}
}

// TestRestoreRefusesCollidingDuplicate: Restore finds a duplicate key on
// the index walk that places the entry, so a duplicate must be refused
// when another key sits at the home slot they share — whichever comes
// first — and entries whose keys share a home slot without being equal
// must all be kept, keys with one whole 32-bit hash included.
func TestRestoreRefusesCollidingDuplicate(t *testing.T) {
	s := NewSpaceSaving(8)
	home := uint64(8)
	for ssHash(home)&s.mask != ssHash(7)&s.mask {
		home++
	}
	a, b := collidingPair(t)
	for _, pair := range [][2]uint64{{7, home}, {a, b}} {
		a, b := pair[0], pair[1]
		restore := func(kvs ...KV) error { return s.Restore(100, len(kvs), func(i int) KV { return kvs[i] }) }
		if err := restore(KV{Key: a, Count: 9}, KV{Key: b, Count: 8}, KV{Key: 3, Count: 4}); err != nil || s.Len() != 3 {
			t.Fatalf("keys sharing a home slot: %v, %d entries", err, s.Len())
		}
		if c, _ := s.Lookup(b); c != 8 {
			t.Fatalf("restored Lookup(%#x) = %d, want 8", b, c)
		}
		for _, dup := range [][]KV{
			{{Key: a, Count: 9}, {Key: b, Count: 8}, {Key: b, Count: 7}}, // b walks past a to b
			{{Key: a, Count: 9}, {Key: b, Count: 8}, {Key: a, Count: 7}}, // a is found at home
			{{Key: b, Count: 9}, {Key: a, Count: 8}, {Key: a, Count: 7}},
		} {
			if err := restore(dup...); err == nil || s.Len() != 0 {
				t.Fatalf("%v: duplicate accepted (%v), %d entries left", dup, err, s.Len())
			}
		}
	}
}

// TestMergeAllConcurrent: merges on distinct receivers, run at once from
// several goroutines, each leave what the same merge leaves run alone —
// every merge takes a scratch of its own from the pool. Run it under -race.
func TestMergeAllConcurrent(t *testing.T) {
	const workers, reps = 4, 50
	entries := func(s *SpaceSaving) []KV {
		out := make([]KV, s.Len())
		for i := range out {
			out[i] = s.Entry(i)
		}
		return out
	}
	rounds := make([][]*SpaceSaving, workers)
	wants := make([][]KV, workers)
	for g := range rounds {
		for i := 0; i <= g+1; i++ { // 2 to workers+1 sources, so the scratches differ in size
			rounds[g] = append(rounds[g], fed(64, int64(10*g+i), 4000, 300+100*g))
		}
		want := NewSpaceSaving(64)
		want.MergeAll(rounds[g])
		wants[g] = entries(want)
	}
	var wg sync.WaitGroup
	for g := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := NewSpaceSaving(64)
			for r := 0; r < reps; r++ {
				acc.Reset()
				acc.MergeAll(rounds[g])
				if got := entries(acc); !slices.Equal(got, wants[g]) {
					t.Errorf("worker %d, merge %d: %d entries differ from the lone merge's %d", g, r, len(got), len(wants[g]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
