package swhh_test

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// unprunedQuery is the reference the pruned query must equal: every key
// any frame tracks is a candidate, estimated over all frames with the
// Space-Saving Estimate (tracked count, else the frame's minimum when
// full), and handed to the conditioned pass whether or not it can reach
// the threshold — the query as it was before the candidates were pruned.
func unprunedQuery(d *swhh.SlidingHHH, phi float64, now int64) hhh.Set {
	d.Advance(now)
	h := d.Hierarchy()
	threshold := hhh.Threshold(d.WindowTotal(now), phi)
	return hhh.ConditionedLevels(h, threshold, hhh.NewQueryScratch(),
		func(l int, emit func(key uint64, est int64)) {
			frames := d.LevelSummary(l).State().Frames
			seen := map[uint64]bool{}
			for _, f := range frames {
				f.ForEachTracked(func(key uint64, _, _ int64) {
					if seen[key] {
						return
					}
					seen[key] = true
					var est int64
					for _, g := range frames {
						est += g.Estimate(key)
					}
					emit(key, est)
				})
			}
		})
}

// foldChunk draws a time-ordered chunk of n packets spread over span
// nanoseconds from start: a few heavy /24s over a wide background, so the
// frames fill past their counters and merges truncate.
func foldChunk(rng *rand.Rand, h addr.Hierarchy, start, span int64, n int) *trace.KeyBatch {
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		src := addr.From4(byte(rng.Intn(200)), byte(rng.Intn(250)), byte(rng.Intn(250)), byte(rng.Intn(250)))
		if rng.Intn(3) == 0 {
			src = addr.From4(10, byte(rng.Intn(3)), byte(rng.Intn(2)), byte(rng.Intn(30)))
		}
		pkts[i] = trace.Packet{Ts: start + span*int64(i)/int64(n), Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	b := trace.NewKeyBatch(n)
	b.AppendPackets(h, pkts)
	return b
}

// TestFoldEqualsColdMerge is the memo's contract: whatever happens to the
// sources between rounds, an accumulator that Folds each round is, after
// every round, bit for bit the accumulator that was Reset and handed the
// round in one K-way MergeAll — same sealed bytes, same query — and so is
// one that folds the round in another order: a fold is a function of its
// sources, not of their sequence. The rounds cover several snapshots
// inside one frame, idle gaps longer than the ring, a stream that starts
// before the epoch, sources left unadvanced, a source dropped from one
// round and back the next, a source reset mid-stream and a source replaced
// by a fresh one.
func TestFoldEqualsColdMerge(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := swhh.Config{Window: 2 * time.Second, Frames: 4, Counters: 32}
	frame := int64(cfg.Window) / int64(cfg.Frames)
	mk := func() *swhh.SlidingHHH {
		d, err := swhh.NewSlidingHHH(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srcs := []*swhh.SlidingHHH{mk(), mk(), mk()}
		memo, shuffled, cold := mk(), mk(), mk()
		now := -3*int64(cfg.Window) - 7 // pre-epoch start
		dropped := -1                   // source left out of the previous round
		for round := 0; round < 120; round++ {
			// Move time: mostly a fraction of a frame, sometimes frames,
			// rarely past the whole ring.
			var step int64
			switch r := rng.Intn(20); {
			case r == 0:
				step = frame * int64(cfg.Frames+2+rng.Intn(3))
			case r < 4:
				step = frame * int64(1+rng.Intn(3))
			default:
				step = rng.Int63n(frame/2) + 1
			}
			for i, s := range srcs {
				if rng.Intn(4) > 0 {
					s.UpdateKeys(foldChunk(rng, h, now+1, step, 20+rng.Intn(200)))
				}
				switch rng.Intn(40) {
				case 0:
					s.Reset()
				case 1:
					srcs[i] = mk()
				}
			}
			now += step

			var round2 []*swhh.SlidingHHH
			out := -1
			if dropped < 0 && rng.Intn(5) == 0 {
				out = rng.Intn(len(srcs))
			}
			for i, s := range srcs {
				if i == out {
					continue
				}
				if rng.Intn(10) > 0 { // a barrier advances its sources; the fold must not depend on it
					s.Advance(now)
				}
				round2 = append(round2, s)
			}
			dropped = out

			memo.Fold(round2)
			cold.Reset()
			cold.MergeAll(round2)
			if !bytes.Equal(wire.EncodeSliding(memo), wire.EncodeSliding(cold)) {
				t.Fatalf("seed %d round %d: folded accumulator seals differently from the cold merge", seed, round)
			}
			rng.Shuffle(len(round2), func(i, j int) { round2[i], round2[j] = round2[j], round2[i] })
			shuffled.Fold(round2)
			if !bytes.Equal(wire.EncodeSliding(shuffled), wire.EncodeSliding(cold)) {
				t.Fatalf("seed %d round %d: the fold depends on the order of its sources", seed, round)
			}
			got, gotMass := memo.QueryMass(0.02, now)
			want := unprunedQuery(cold, 0.02, now)
			if !maps.Equal(got, want) || gotMass != cold.WindowTotal(now) {
				t.Fatalf("seed %d round %d: query differs:\n got  %v\n want %v", seed, round, got, want)
			}
		}
		folded, kept := memo.FoldTally()
		if kept == 0 || folded == 0 {
			t.Fatalf("seed %d: %d slots folded, %d kept — the rounds exercised only one path", seed, folded, kept)
		}
	}
}

// TestFoldKeepsSealedSlots pins the saving itself: a steady round — two
// sources, a snapshot every fifth of a frame — refolds the slot that is
// filling and keeps the rest of the ring.
func TestFoldKeepsSealedSlots(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := swhh.Config{Window: 2 * time.Second, Frames: 4, Counters: 32}
	a, _ := swhh.NewSlidingHHH(h, cfg)
	b, _ := swhh.NewSlidingHHH(h, cfg)
	acc, _ := swhh.NewSlidingHHH(h, cfg)
	rng := rand.New(rand.NewSource(7))
	step := int64(cfg.Window) / int64(cfg.Frames) / 5
	const rounds = 50
	for r := int64(0); r < rounds; r++ {
		a.UpdateKeys(foldChunk(rng, h, r*step, step, 50))
		b.UpdateKeys(foldChunk(rng, h, r*step, step, 50))
		a.Advance((r + 1) * step)
		b.Advance((r + 1) * step)
		acc.Fold([]*swhh.SlidingHHH{a, b})
	}
	folded, kept := acc.FoldTally()
	slots := int64(rounds * h.Levels() * (cfg.Frames + 1))
	if folded+kept != slots {
		t.Fatalf("tally %d+%d, want %d slots", folded, kept, slots)
	}
	// Per round and level: the filling slot, plus one more on the rounds
	// that cross into a new frame (every fifth), plus the whole ring once.
	if max := int64(h.Levels()) * (rounds + rounds/5 + int64(cfg.Frames) + 1); folded > max {
		t.Fatalf("%d of %d slots refolded, want at most %d", folded, slots, max)
	}
}

// TestPrunedQueryMatchesUnpruned checks the pruned candidate enumeration
// against the unpruned reference on live detectors (frames filling,
// frames sealed, frames expiring), on a detector built to take the
// fallback — few counters and a handful of equally heavy keys, so a full
// frame's minimum alone reaches the per-frame share of the threshold and
// every tracked key has to stay a candidate — and on rings whose frames
// differ in what the query may assume of them: merged frames, in count
// order, which it leaves at the first count below the cut; a merged frame
// written to since, whose new heavy key sits behind lighter ones; and
// frames restored from entries in no order at all, which it must read in
// full.
func TestPrunedQueryMatchesUnpruned(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	rng := rand.New(rand.NewSource(3))
	for _, counters := range []int{16, 64, 512} {
		d, err := swhh.NewSlidingHHH(h, swhh.Config{Window: 2 * time.Second, Frames: 8, Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		for at := int64(0); at < int64(5*time.Second); at += int64(100 * time.Millisecond) {
			d.UpdateKeys(foldChunk(rng, h, at, int64(100*time.Millisecond), 400))
			for _, phi := range []float64{0.01, 0.05, 0.3} {
				now := at + int64(100*time.Millisecond)
				if got, want := d.Query(phi, now), unprunedQuery(d, phi, now); !maps.Equal(got, want) {
					t.Fatalf("counters %d, phi %v at %d:\n got  %v\n want %v", counters, phi, now, got, want)
				}
			}
		}
	}

	d, err := swhh.NewSlidingHHH(h, swhh.Config{Window: time.Second, Frames: 2, Counters: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []trace.Packet
	for i := 0; i < 600; i++ {
		pkts = append(pkts, trace.Packet{
			Ts: int64(i) * int64(time.Millisecond), Src: addr.From4(byte(1+i%6), 0, 0, 1), Size: 1000,
		})
	}
	b := trace.NewKeyBatch(len(pkts))
	b.AppendPackets(h, pkts)
	d.UpdateKeys(b)
	now := pkts[len(pkts)-1].Ts
	// Six sources share four counters: the leaf frames are full with a
	// minimum near a quarter of the frame, far above phi/ring of the window.
	leaf := d.LevelSummary(0).State().Frames
	full := false
	for _, f := range leaf {
		full = full || (f.Len() == f.Capacity() && f.Floor() >= hhh.Threshold(d.WindowTotal(now), 0.05)/int64(len(leaf)))
	}
	if !full {
		t.Fatal("the construction does not reach the fallback")
	}
	got, want := d.Query(0.05, now), unprunedQuery(d, 0.05, now)
	if !maps.Equal(got, want) || want.Len() == 0 {
		t.Fatalf("fallback query:\n got  %v\n want %v", got, want)
	}

	prunedOverOrderedFrames(t, h, rng)
}

// prunedOverOrderedFrames is TestPrunedQueryMatchesUnpruned's part on
// rings whose frames are, or only were, in count order.
func prunedOverOrderedFrames(t *testing.T, h addr.Hierarchy, rng *rand.Rand) {
	// An accumulator's frames are ordered; feeding it on makes the frame
	// that is filling a live one again, with a key that only turns heavy
	// now appended behind the lighter entries the merge left.
	cfg := swhh.Config{Window: 2 * time.Second, Frames: 4, Counters: 64}
	mk := func() *swhh.SlidingHHH {
		d, err := swhh.NewSlidingHHH(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, acc := mk(), mk(), mk()
	end := int64(1900 * time.Millisecond)
	a.UpdateKeys(foldChunk(rng, h, 0, end, 3000))
	b.UpdateKeys(foldChunk(rng, h, 0, end, 3000))
	acc.MergeAll([]*swhh.SlidingHHH{a, b})
	unordered := func(d *swhh.SlidingHHH) (n int) {
		for l := 0; l < h.Levels(); l++ {
			for _, f := range d.LevelSummary(l).State().Frames {
				if !f.Ordered() {
					n++
				}
			}
		}
		return n
	}
	if n := unordered(acc); n != 0 {
		t.Fatalf("%d merged frames do not report themselves ordered", n)
	}
	if got, want := acc.Query(0.02, end), unprunedQuery(acc, 0.02, end); !maps.Equal(got, want) || want.Len() == 0 {
		t.Fatalf("merged ring:\n got  %v\n want %v", got, want)
	}
	burst := trace.NewKeyBatch(0)
	newcomer := addr.From4(203, 0, 113, 9)
	for i := 0; i < 400; i++ {
		burst.Append(h.Key(newcomer, 0), 1500, end+int64(i))
	}
	acc.UpdateKeys(burst)
	end += 400
	if n := unordered(acc); n != h.Levels() {
		t.Fatalf("%d frames not ordered with one per level written to", n)
	}
	got, want := acc.Query(0.02, end), unprunedQuery(acc, 0.02, end)
	if _, found := want[addr.Host(newcomer)]; !found || !maps.Equal(got, want) {
		t.Fatalf("merged ring, written to:\n got  %v\n want %v", got, want)
	}

	// The same ring restored twice, slot by slot: entries in the order the
	// accumulator holds them (a seal's order), and shuffled.
	for _, shuffle := range []bool{false, true} {
		r := mk()
		for l := 0; l < h.Levels(); l++ {
			st := acc.LevelSummary(l).State()
			r.LevelSummary(l).RestoreClock(st.CurFrame)
			for i, f := range st.Frames {
				entries := f.Tracked()
				if shuffle {
					rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
				}
				err := r.LevelSummary(l).RestoreSlot(i, st.Totals[i], f.Total(), len(entries), func(e int) sketch.KV { return entries[e] })
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// In the accumulator's own order only the frames it wrote to are
		// out of order (the root's has one entry); shuffled, most are.
		if n := unordered(r); n == 0 || (n > h.Levels()) != shuffle {
			t.Fatalf("restored with shuffle=%v: %d frames do not report themselves ordered", shuffle, n)
		}
		if got := r.Query(0.02, end); !maps.Equal(got, want) {
			t.Fatalf("restored with shuffle=%v:\n got  %v\n want %v", shuffle, got, want)
		}
	}
}
