package hhh

import (
	"math/rand"
	"testing"

	"hiddenhhh/internal/addr"
)

// mergePackets synthesises a skewed source/weight stream for merge tests.
func mergePackets(seed int64, n int) []struct {
	src addr.Addr
	w   int64
} {
	rng := rand.New(rand.NewSource(seed))
	out := make([]struct {
		src addr.Addr
		w   int64
	}, n)
	for i := range out {
		org := uint32(rng.Intn(8))
		net := uint32(float64(200) * rng.Float64() * rng.Float64())
		host := uint32(rng.Intn(50))
		out[i].src = addr.From4Uint32(10<<24 | org<<16 | net<<8 | host)
		out[i].w = int64(40 + rng.Intn(1460))
	}
	return out
}

// TestPerLevelMergePartition checks that hash-partitioning a stream over K
// PerLevel engines and merging reproduces the single-engine HHH set up to
// the telescoped error bound: sets agree on every prefix whose estimate
// clears the threshold with margin, and disagreements sit within it.
func TestPerLevelMergePartition(t *testing.T) {
	const k = 128
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := mergePackets(1, 60000)
	for _, K := range []int{1, 2, 4, 8} {
		single := NewPerLevel(h, k)
		shards := make([]*PerLevel, K)
		for i := range shards {
			shards[i] = NewPerLevel(h, k)
		}
		for _, p := range pkts {
			ingest(single, p.src, p.w)
			ingest(shards[p.src.V4()%uint32(K)], p.src, p.w)
		}
		merged := NewPerLevel(h, k)
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.Total() != single.Total() {
			t.Fatalf("K=%d: merged total %d != single %d", K, merged.Total(), single.Total())
		}
		T := Threshold(single.Total(), 0.02)
		sset, mset := single.Query(T), merged.Query(T)
		// Both sides approximate the same exact semantics within N/k per
		// level; disagreements must be borderline prefixes.
		margin := 2 * single.Total() / int64(k)
		for _, d := range []struct {
			name string
			diff Set
			in   Set
		}{
			{"merged-only", mset.Diff(sset), mset},
			{"single-only", sset.Diff(mset), sset},
		} {
			for pre, it := range d.diff {
				if it.Conditioned-T > margin {
					t.Errorf("K=%d %s: %v cond=%d clears T=%d by more than margin %d",
						K, d.name, pre, it.Conditioned, T, margin)
				}
			}
		}
		if K == 1 && !sset.Equal(mset) {
			t.Errorf("K=1 merged set differs from single: %v vs %v", mset, sset)
		}
	}
}

// TestRHHHMergeIdentity checks that merging one RHHH engine into a fresh
// one preserves its queryable state exactly (the K=1 sharding case).
func TestRHHHMergeIdentity(t *testing.T) {
	const k = 96
	h := addr.NewIPv4Hierarchy(addr.Byte)
	a := NewRHHH(h, k, 42)
	ref := NewRHHH(h, k, 42)
	for _, p := range mergePackets(7, 80000) {
		ingest(a, p.src, p.w)
		ingest(ref, p.src, p.w)
	}
	merged := NewRHHH(h, k, 0)
	merged.Merge(a)
	if merged.Total() != ref.Total() || merged.packets != ref.packets {
		t.Fatalf("merged totals (%d,%d) != ref (%d,%d)",
			merged.Total(), merged.packets, ref.Total(), ref.packets)
	}
	T := Threshold(ref.Total(), 0.02)
	if got, want := merged.Query(T), ref.Query(T); !got.Equal(want) {
		t.Fatalf("merged query %v != ref %v", got, want)
	}
}

// TestMergeHierarchyMismatchPanics pins the programmer-error contract.
func TestMergeHierarchyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on hierarchy mismatch")
		}
	}()
	a := NewPerLevel(addr.NewIPv4Hierarchy(addr.Byte), 8)
	b := NewPerLevel(addr.NewIPv4Hierarchy(addr.Nibble), 8)
	a.Merge(b)
}

// TestMergeSamplingMismatchPanics: a level-sampled engine's counts stand
// for V times their mass and an unsampled one's for their own, so a merge
// of the two, either way round, is a programmer error.
func TestMergeSamplingMismatchPanics(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	for _, dst := range []bool{false, true} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic merging into sampled=%v from sampled=%v", dst, !dst)
				}
			}()
			a, b := NewPerLevel(h, 8), NewRHHH(h, 8, 1)
			if dst {
				a, b = b, a
			}
			a.MergeAll([]*PerLevel{b})
		}()
	}
}
