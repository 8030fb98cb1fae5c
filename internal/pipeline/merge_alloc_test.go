package pipeline

import (
	"testing"

	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// TestMergeZeroAlloc: once warm, a merge allocates nothing. Every
// Space-Saving registry row's Fold — how a barrier takes a round of shard
// summaries and an Aggregator a round of node summaries — and a bare
// SpaceSaving.Merge run on the tables the receiver already holds and on the
// merge scratch SpaceSaving.MergeAll keeps in its pool. The receiver is
// reset before each measured fold, so a wcss accumulator folds every ring
// slot afresh instead of keeping the ones its memo still vouches for.
func TestMergeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const shards = 4
	pkts := testStream(49, 40000, 2) // thousands of sources into 64 counters: every table is full
	at := pkts[len(pkts)-1].Ts + 1
	forEachEngine(t, func(t *testing.T, cfg Config) {
		if k := cfg.Engine; k != KindPerLevel && k != KindRHHH && k != KindWCSS {
			t.Skip("no Space-Saving tables")
		}
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		srcs := make([]Summary, shards)
		for i := range srcs {
			s, err := newSummary(&cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			kb := trace.NewKeyBatch(0)
			for j := range pkts {
				if key := cfg.Hierarchy.Key(pkts[j].Src, 0); hashx.Bucket(hashx.Mix64(key), shards) == i {
					kb.Append(key, pkts[j].Size, pkts[j].Ts)
				}
			}
			s.UpdateKeys(kb)
			s.Advance(at)
			srcs[i] = s
		}
		acc, err := newSummary(&cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		fold := func() {
			acc.Reset()
			acc.Fold(srcs...)
		}
		fold() // warm-up: the receiver's tables and the pooled scratch grow to size
		if set, _ := acc.Query(at); set.Len() == 0 {
			t.Fatal("the merged summary reports nothing")
		}
		tally := func() (folded int64) {
			if w, ok := acc.(*wcssSummary); ok {
				folded, _ = w.d.FoldTally()
			}
			return folded
		}
		before := tally()
		if allocs := testing.AllocsPerRun(20, fold); allocs != 0 {
			t.Fatalf("a warm %d-way Fold allocates %.1f times", shards, allocs)
		}
		if _, ok := acc.(*wcssSummary); ok && tally() == before {
			t.Fatal("the measured folds merged no ring slot")
		}
	})
	t.Run("SpaceSaving.Merge", func(t *testing.T) {
		src, acc := sketch.NewSpaceSaving(64), sketch.NewSpaceSaving(64)
		for i := range pkts {
			src.Update(uint64(pkts[i].Src.V4()), int64(pkts[i].Size))
		}
		merge := func() {
			acc.Reset()
			acc.Merge(src)
		}
		merge()
		if allocs := testing.AllocsPerRun(20, merge); allocs != 0 {
			t.Fatalf("a warm Merge allocates %.1f times", allocs)
		}
	})
}
