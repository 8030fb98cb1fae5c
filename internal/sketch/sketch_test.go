package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// zipfStream draws n weighted updates over a key universe with a skewed
// (heavy-tailed) distribution, the regime sketches are designed for.
func zipfStream(n int, universe int, seed int64) []KV {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(universe-1))
	out := make([]KV, n)
	for i := range out {
		out[i] = KV{Key: z.Uint64(), Count: int64(40 + rng.Intn(1460))}
	}
	return out
}

func exactOf(stream []KV) map[uint64]int64 {
	m := map[uint64]int64{}
	for _, kv := range stream {
		m[kv.Key] += kv.Count
	}
	return m
}

func totalOf(stream []KV) int64 {
	var t int64
	for _, kv := range stream {
		t += kv.Count
	}
	return t
}

func TestExactBasics(t *testing.T) {
	e := NewExact(0)
	e.Update(1, 10)
	e.Update(2, 20)
	e.Update(1, 5)
	if e.Estimate(1) != 15 || e.Estimate(2) != 20 || e.Estimate(3) != 0 {
		t.Error("exact estimates wrong")
	}
	if e.Total() != 35 || e.Len() != 2 {
		t.Errorf("total=%d len=%d", e.Total(), e.Len())
	}
	if len(e.Tracked()) != 2 {
		t.Error("Tracked size")
	}
	e.Remove(1, 15)
	if e.Len() != 1 || e.Total() != 20 {
		t.Error("Remove did not delete zeroed key")
	}
	e.Reset()
	if e.Len() != 0 || e.Total() != 0 {
		t.Error("Reset")
	}
}

func TestExactZeroValue(t *testing.T) {
	var e Exact
	e.Update(7, 3)
	if e.Estimate(7) != 3 {
		t.Error("zero-value Exact must be usable")
	}
}

func TestExactRemovePanics(t *testing.T) {
	e := NewExact(0)
	e.Update(1, 5)
	defer func() {
		if recover() == nil {
			t.Error("Remove below zero should panic")
		}
	}()
	e.Remove(1, 6)
}

func TestExactAddAll(t *testing.T) {
	a := NewExact(0)
	a.Update(1, 10)
	b := NewExact(0)
	b.Update(1, 5)
	b.Update(2, 7)
	a.AddAll(b)
	if a.Estimate(1) != 15 || a.Estimate(2) != 7 || a.Total() != 22 {
		t.Error("AddAll merge wrong")
	}
}

func TestExactForEach(t *testing.T) {
	e := NewExact(0)
	e.Update(1, 1)
	e.Update(2, 2)
	sum := int64(0)
	e.ForEach(func(_ uint64, c int64) { sum += c })
	if sum != 3 {
		t.Errorf("ForEach sum = %d", sum)
	}
}

func TestSpaceSavingNeverUnderestimates(t *testing.T) {
	stream := zipfStream(20000, 5000, 1)
	truth := exactOf(stream)
	ss := NewSpaceSaving(64)
	for _, kv := range stream {
		ss.Update(kv.Key, kv.Count)
	}
	for key, want := range truth {
		if got := ss.Estimate(key); got < want {
			t.Fatalf("SpaceSaving underestimated key %d: %d < %d", key, got, want)
		}
	}
}

func TestSpaceSavingErrorBound(t *testing.T) {
	stream := zipfStream(20000, 5000, 2)
	truth := exactOf(stream)
	N := totalOf(stream)
	const k = 128
	ss := NewSpaceSaving(k)
	for _, kv := range stream {
		ss.Update(kv.Key, kv.Count)
	}
	if ss.Total() != N {
		t.Fatalf("Total = %d, want %d", ss.Total(), N)
	}
	bound := N / k
	for _, kv := range ss.Tracked() {
		over := kv.Count - truth[kv.Key]
		if over < 0 {
			t.Fatalf("tracked key %d underestimated", kv.Key)
		}
		if over > bound {
			t.Fatalf("overestimation %d exceeds N/k = %d", over, bound)
		}
		if over > kv.ErrUB {
			t.Fatalf("recorded error bound %d below actual overestimation %d", kv.ErrUB, over)
		}
	}
}

func TestSpaceSavingNoFalseNegatives(t *testing.T) {
	stream := zipfStream(30000, 2000, 3)
	truth := exactOf(stream)
	N := totalOf(stream)
	const k = 100
	ss := NewSpaceSaving(k)
	for _, kv := range stream {
		ss.Update(kv.Key, kv.Count)
	}
	monitored := map[uint64]bool{}
	for _, kv := range ss.Tracked() {
		monitored[kv.Key] = true
	}
	for key, c := range truth {
		if c > N/k && !monitored[key] {
			t.Fatalf("key %d with weight %d > N/k=%d not monitored", key, c, N/k)
		}
	}
}

func TestSpaceSavingCapacityAndEviction(t *testing.T) {
	ss := NewSpaceSaving(2)
	ss.Update(1, 10)
	ss.Update(2, 20)
	if ss.Len() != 2 {
		t.Fatal("should hold 2 keys")
	}
	ss.Update(3, 5) // evicts key 1 (min count 10): est = 15, err = 10
	if ss.Len() != 2 {
		t.Fatal("capacity exceeded")
	}
	if got := ss.Estimate(3); got != 15 {
		t.Errorf("evicting insert estimate = %d, want 15", got)
	}
	if got := ss.ErrorBound(3); got != 10 {
		t.Errorf("evicting insert err = %d, want 10", got)
	}
	// Unmonitored key estimate = current min when full.
	if got := ss.Estimate(99); got == 0 {
		t.Error("unmonitored estimate should be the min count when full")
	}
}

func TestSpaceSavingGuaranteedKeys(t *testing.T) {
	ss := NewSpaceSaving(2)
	ss.Update(1, 100)
	ss.Update(2, 10)
	ss.Update(3, 1) // est 11, err 10 -> lower bound 1
	g := ss.GuaranteedKeys(50)
	if len(g) != 1 || g[0].Key != 1 {
		t.Errorf("GuaranteedKeys(50) = %v, want key 1 only", g)
	}
}

func TestSpaceSavingReset(t *testing.T) {
	ss := NewSpaceSaving(4)
	ss.Update(1, 5)
	ss.Reset()
	if ss.Len() != 0 || ss.Total() != 0 || ss.Estimate(1) != 0 {
		t.Error("Reset incomplete")
	}
	ss.Update(2, 7)
	if ss.Estimate(2) != 7 {
		t.Error("post-Reset update broken")
	}
}

func TestSpaceSavingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpaceSaving(0) should panic")
		}
	}()
	NewSpaceSaving(0)
}

func TestSpaceSavingStructureInvariant(t *testing.T) {
	// Property: after arbitrary updates the bucket list is strictly
	// ascending by count, every entry sits in the bucket matching its
	// count, the index resolves every monitored key, and Min() is the
	// head bucket's count.
	f := func(keys []uint8, weights []uint8) bool {
		ss := NewSpaceSaving(8)
		for i, k := range keys {
			w := int64(1)
			if i < len(weights) {
				w = int64(weights[i]) + 1
			}
			ss.Update(uint64(k%32), w)
		}
		if ss.Len() == 0 {
			return ss.ringN == 0
		}
		trueMin := ss.nodes[0].count
		ringLinked := 0
		for i := 0; i < ss.Len(); i++ {
			n := ss.nodes[i]
			if n.count < trueMin {
				trueMin = n.count
			}
			if ss.idxFind(n.key) != int32(i) {
				return false // index must resolve every monitored key
			}
			if n.prev == hotSlot {
				continue
			}
			ringLinked++
			idx := n.count - ss.base
			if idx < 0 || idx >= ringSlots {
				return false // a ring entry's count must be inside the window
			}
			wi, bit := uint32(idx)>>6, uint64(1)<<(uint32(idx)&63)
			if ss.words[wi]&bit == 0 || ss.summary&(uint64(1)<<wi) == 0 {
				return false // occupancy bitmap out of sync
			}
			// The node must be reachable from its bucket's circular list
			// (head back to head), every link must be mutual, and stamps
			// ascend (arrival order = eviction tie order).
			found := false
			lastStamp := int64(-1)
			head := ss.slots[idx].head
			for ni := head; ; {
				nd := ss.nodes[ni]
				if nd.stamp <= lastStamp || ss.nodes[nd.next].prev != ni || nd.count != n.count {
					return false
				}
				lastStamp = nd.stamp
				if ni == int32(i) {
					found = true
				}
				if ni = nd.next; ni == head {
					break
				}
			}
			if !found {
				return false
			}
		}
		if ringLinked != ss.ringN {
			return false
		}
		return ss.Min() == trueMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapSpaceSavingHeapInvariant(t *testing.T) {
	// Property: after arbitrary updates the oracle's root is the minimum
	// count and its index map is consistent.
	f := func(keys []uint8, weights []uint8) bool {
		ss := NewHeapSpaceSaving(8)
		for i, k := range keys {
			w := int64(1)
			if i < len(weights) {
				w = int64(weights[i]) + 1
			}
			ss.Update(uint64(k%32), w)
		}
		if ss.Len() == 0 {
			return true
		}
		min := ss.entries[0].count
		for i, e := range ss.entries {
			if e.count < min {
				return false
			}
			if ss.index[e.key] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpaceSavingUpdate(b *testing.B) {
	stream := zipfStream(1<<16, 1<<14, 9)
	ss := NewSpaceSaving(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := stream[i&(1<<16-1)]
		ss.Update(kv.Key, kv.Count)
	}
}

func BenchmarkHeapSpaceSavingUpdate(b *testing.B) {
	stream := zipfStream(1<<16, 1<<14, 9)
	ss := NewHeapSpaceSaving(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := stream[i&(1<<16-1)]
		ss.Update(kv.Key, kv.Count)
	}
}

func BenchmarkExactUpdate(b *testing.B) {
	stream := zipfStream(1<<16, 1<<14, 14)
	e := NewExact(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := stream[i&(1<<16-1)]
		e.Update(kv.Key, kv.Count)
	}
}

// ErrorBound returns the recorded overestimation bound for key (its err
// field), or the minimum count for unmonitored keys.
func (s *SpaceSaving) ErrorBound(key uint64) int64 {
	if ni := s.idxFind(key); ni != nilIdx {
		return s.nodes[ni].err
	}
	if s.n == s.k {
		return s.Min()
	}
	return 0
}

// GuaranteedKeys returns keys whose *lower bound* (count - err) meets the
// threshold: detections that cannot be false positives.
func (s *SpaceSaving) GuaranteedKeys(threshold int64) []KV {
	var out []KV
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		if n.count-n.err >= threshold {
			out = append(out, KV{Key: n.key, Count: n.count, ErrUB: n.err})
		}
	}
	return out
}

// TestExactSaturates: counts and the total stop at MaxInt64, through
// Update and AddAll alike, instead of wrapping negative.
func TestExactSaturates(t *testing.T) {
	e := NewExact(2)
	e.Update(1, math.MaxInt64-1)
	e.Update(1, 2)
	if e.Estimate(1) != math.MaxInt64 || e.Total() != math.MaxInt64 {
		t.Fatalf("Update: count %d, total %d", e.Estimate(1), e.Total())
	}
	o := NewExact(2)
	o.Update(1, 1<<62+1)
	o.Update(2, 1<<62+1)
	m := NewExact(2)
	m.AddAll(o)
	m.AddAll(o)
	if m.Estimate(1) != math.MaxInt64 || m.Estimate(2) != math.MaxInt64 || m.Total() != math.MaxInt64 {
		t.Fatalf("AddAll: counts %d and %d, total %d", m.Estimate(1), m.Estimate(2), m.Total())
	}
}
