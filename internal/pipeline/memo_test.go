package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/chaos"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// Tests for the memoised sliding snapshot: the barrier's and the
// Aggregator's accumulators keep what did not change between rounds, and
// every test here pins that to the cold result — a fresh accumulator's
// Fold of the round, one K-way merge — or to an undisturbed twin.

// wideStream is a stream with far more distinct sources per prefix than
// the test configurations have counters, so Space-Saving merges truncate
// and the order of a fold shows in its counts.
func wideStream(seed int64, n int, span time.Duration) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	for i := range out {
		src := addr.From4(byte(10+rng.Intn(6)), byte(rng.Intn(40)), byte(rng.Intn(200)), byte(rng.Intn(250)))
		if rng.Intn(4) == 0 {
			src = addr.From4(10, 1, byte(rng.Intn(3)), byte(rng.Intn(20)))
		}
		out[i] = trace.Packet{Ts: int64(span) * int64(i) / int64(n), Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// reportDigest fingerprints a global report: span, mass, coverage and
// every item with its counts.
func reportDigest(rep *AggReport) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %v;", rep.Start, rep.End, rep.Bytes, rep.Nodes, rep.Degraded)
	for _, it := range rep.Set.Items() {
		fmt.Fprintf(h, "%v %d %d;", it.Prefix, it.Count, it.Conditioned)
	}
	return h.Sum64()
}

// permutations calls f with every ordering of 0..n-1.
func permutations(n int, f func(order []int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}

// TestAggregatorFoldOrder: a Space-Saving merge truncates, and while the
// Aggregator folded a round pairwise the published counts of three or more
// nodes depended on the order it took them in. It takes them by name, not
// in the arrival order of their frames and not in Go's map order — and the
// K-way merge, which truncates once over the round, would give the same
// report in any order: one set of frames, every arrival order, twenty
// repetitions of each — one report. Both alignment models are covered.
func TestAggregatorFoldOrder(t *testing.T) {
	for _, kind := range []Kind{KindPerLevel, KindWCSS} {
		for _, nodes := range []int{3, 5} {
			t.Run(fmt.Sprintf("%v-%d", kind, nodes), func(t *testing.T) {
				cfg := Config{Mode: kind.row().mode, Engine: kind, Window: 2 * time.Second, Frames: 2, Phi: 0.02, Counters: 16}
				if err := cfg.setDefaults(); err != nil {
					t.Fatal(err)
				}
				end := int64(cfg.Window)
				frames := make([]Sealed, nodes)
				for n := range frames {
					s, err := newSummary(&cfg, 0)
					if err != nil {
						t.Fatal(err)
					}
					kb := trace.NewKeyBatch(0)
					kb.AppendPackets(cfg.Hierarchy, wideStream(int64(100+n), 4000, cfg.Window-time.Millisecond))
					s.UpdateKeys(kb)
					s.Advance(end)
					frames[n] = Sealed{Seq: 1, Start: 0, End: end, Frame: mustEncode(t, s)}
				}
				digests := map[uint64]int{}
				permutations(nodes, func(order []int) {
					for rep := 0; rep < 20; rep++ {
						agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: cfg.Phi})
						if err != nil {
							t.Fatal(err)
						}
						for _, n := range order {
							if err := agg.Ingest(fmt.Sprintf("node-%d", n), frames[n]); err != nil {
								t.Fatal(err)
							}
						}
						r := agg.Report()
						agg.Close()
						if r.Nodes != nodes || r.Set.Len() == 0 {
							t.Fatalf("report covers %d nodes, %d items", r.Nodes, r.Set.Len())
						}
						digests[reportDigest(r)]++
					}
				})
				if len(digests) != 1 {
					t.Fatalf("%d distinct reports over the arrival orders: %v", len(digests), digests)
				}
			})
		}
	}
}

// slidingNode is one ingest node of the replay tests: a one-shard sliding
// pipeline whose seals are collected.
type slidingNode struct {
	det   *Sharded
	seals sealCollector
}

func newSlidingNode(t *testing.T, reg *telemetry.Registry) *slidingNode {
	t.Helper()
	n := &slidingNode{}
	det, err := New(Config{
		Mode: ModeSliding, Shards: 1, Window: 2 * time.Second, Frames: 4, Phi: 0.02, Counters: 32,
		OnSeal: n.seals.add, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.det = det
	t.Cleanup(func() { det.Close() })
	return n
}

// snapshot queries the node at `at` and returns the frame it sealed.
func (n *slidingNode) snapshot(t *testing.T, at int64) Sealed {
	t.Helper()
	before := len(n.seals.all())
	n.det.Snapshot(at)
	all := n.seals.all()
	if len(all) != before+1 {
		t.Fatalf("snapshot sealed %d frames", len(all)-before)
	}
	return all[len(all)-1]
}

// TestAggregatorRestoreInPlace replays three sliding nodes, sealing deltas
// between full frames as they do in production, into one Aggregator under
// loss, replay and restart. The steady node's frames are now and then
// dropped, delivered twice, or swapped with the next; the lagging node's
// arrive a round late, after the fleet clock has advanced its retained
// ring past them; the third is restarted mid-replay, so its sequence
// numbers start over and its frames are dropped as late until they catch
// up — and the first that is not, Seq 20 over the old process's 19, names a
// base the Aggregator has never seen, whatever its number, and is refused,
// not applied over the old process's ring. Whoever
// is told ErrNeedFull or loses a frame asks for a full one, as a pusher
// would. A model of the rule — late, or a delta whose base is not the
// frame last applied or which leaves out a slot that no longer stands as
// restored, or applied — predicts every answer. After every ingest each
// retained summary must be what decoding the sender's whole summary as of
// the last applied seal gives, advanced to the report's End (same
// re-encoding, same answer), and the published report what a cold fold of
// those gives — a fresh accumulator's Fold of the round, the same summary
// in either node order.
func TestAggregatorRestoreInPlace(t *testing.T) {
	names := []string{"a-steady", "b-lagging", "c-restarted"}
	nodes := make([]*slidingNode, len(names))
	streams := make([][]trace.Packet, len(names))
	for i := range nodes {
		nodes[i] = newSlidingNode(t, nil)
		streams[i] = wideStream(int64(7+i), 30000, 12*time.Second)
	}
	agg, err := NewAggregator(AggregatorConfig{Expected: len(names), Phi: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// delivery is one sealed frame on its way, with the sender's whole
	// summary as of that seal: what the chain up to it stands for.
	type delivery struct {
		s     Sealed
		whole []byte
	}
	// model is what the test expects the Aggregator to hold for a node.
	type model struct {
		lastSeq, seq                     int64
		sum                              uint32
		state                            []byte
		offered, applied, late, needFull int64
		deltas                           int64
	}
	models := make([]model, len(names))
	var round int64

	// check holds every retained summary to a fresh decode of what its
	// applied chain stands for, and the report to their cold fold.
	check := func() {
		rep := agg.Report()
		var fresh, reversed []Summary
		var acc, reversedAcc Summary
		for i, name := range names {
			an := agg.nodes[name]
			if an == nil || an.sum == nil {
				continue
			}
			decode := func() Summary {
				f, err := wire.Verify(models[i].state)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, _, err := restore(nil, sealedAt{}, f, agg.cfg.Phi)
				if err != nil {
					t.Fatal(err)
				}
				ref.Advance(rep.End)
				return ref
			}
			ref := decode()
			if acc == nil {
				acc, reversedAcc = decode(), decode()
			}
			if !bytes.Equal(mustEncode(t, an.sum), mustEncode(t, ref)) {
				t.Fatalf("round %d: %s restored in place re-encodes differently from a fresh decode of its applied chain", round, name)
			}
			got, gotMass := an.sum.Query(rep.End)
			want, wantMass := ref.Query(rep.End)
			sameSet(t, name, got, want)
			if gotMass != wantMass {
				t.Fatalf("round %d: %s mass %d, fresh decode %d", round, name, gotMass, wantMass)
			}
			fresh = append(fresh, ref)
			reversed = append([]Summary{decode()}, reversed...)
		}
		acc.Fold(fresh...)
		reversedAcc.Fold(reversed...)
		if !bytes.Equal(mustEncode(t, acc), mustEncode(t, reversedAcc)) {
			t.Fatalf("round %d: the cold fold depends on the order of the nodes", round)
		}
		want, wantMass := acc.Query(rep.End)
		sameSet(t, fmt.Sprintf("round %d report", round), rep.Set, want)
		if rep.Bytes != wantMass || rep.Nodes != len(fresh) {
			t.Fatalf("round %d: report mass %d over %d nodes, cold fold %d over %d",
				round, rep.Bytes, rep.Nodes, wantMass, len(fresh))
		}
	}

	offer := func(i int, dl delivery) {
		m, an := &models[i], agg.nodes[names[i]]
		m.offered++
		held := an != nil && an.sum != nil
		want := "applied"
		switch {
		case dl.s.Seq <= m.lastSeq:
			want = "late"
		case dl.s.Delta:
			v, err := wire.Decode(dl.s.Frame)
			if err != nil {
				t.Fatal(err)
			}
			delta, stale := v.(wire.SlidingDelta), false
			if held {
				d := an.sum.(*wcssSummary).d
				clocks, carried := deltaSlots(t, dl.s.Frame, 5)
				for l := range carried {
					for slot, c := range carried[l] {
						stale = stale || !c && !d.LevelSummary(l).Restored(slot)
					}
					if clocks[l] < d.LevelSummary(l).State().CurFrame && !stale {
						t.Fatalf("round %d: %s seal %d runs behind the retained clock yet leaves out no expired slot", round, names[i], dl.s.Seq)
					}
				}
			}
			if !held || delta.BaseSeq != m.seq || delta.BaseSum != m.sum || stale {
				want = "need-full"
			}
		}
		var before []byte
		if held {
			before = mustEncode(t, an.sum)
		}
		lateBefore := agg.Stats().LateFrames
		err := agg.Ingest(names[i], dl.s)
		got := "applied"
		switch {
		case errors.Is(err, ErrNeedFull) && !errors.Is(err, ErrFrameRejected):
			got = "need-full"
		case err != nil:
			t.Fatalf("round %d: %s seal %d: %v", round, names[i], dl.s.Seq, err)
		case agg.Stats().LateFrames > lateBefore:
			got = "late"
		}
		if got != want {
			t.Fatalf("round %d: %s seal %d (delta %v) was %s, want %s", round, names[i], dl.s.Seq, dl.s.Delta, got, want)
		}
		an = agg.nodes[names[i]]
		switch got {
		case "applied":
			m.applied++
			m.lastSeq, m.seq, m.sum, m.state = dl.s.Seq, dl.s.Seq, wire.Checksum(dl.s.Frame), dl.whole
			if dl.s.Delta {
				m.deltas++
			}
		case "late":
			m.late++
		case "need-full":
			m.needFull++
			if held && !bytes.Equal(mustEncode(t, an.sum), before) {
				t.Fatalf("round %d: %s: a refused delta altered the retained summary", round, names[i])
			}
			nodes[i].det.ResyncSeal()
		}
		if agg.Report().Nodes > 0 {
			check()
		}
	}

	fed := make([]int, len(names))
	step := int64(300 * time.Millisecond)
	var held, delayed *delivery // a's swapped frame, b's frame of the round before
	for round = 1; round*step <= int64(12*time.Second); round++ {
		at := round * step
		if round == 20 {
			nodes[2] = newSlidingNode(t, nil) // restart: empty summary, Seq from 1
		}
		for i, node := range nodes {
			n := fed[i]
			for n < len(streams[i]) && streams[i][n].Ts <= at {
				n++
			}
			node.det.ObserveBatch(streams[i][fed[i]:n])
			fed[i] = n
			if i == 2 && round == 20 {
				// The new process catches up on its sequence numbers within
				// the round, while the Aggregator still holds the old one's
				// frame 19 with most of its ring standing as restored.
				for k := int64(18); k > 0; k-- {
					offer(i, delivery{s: node.snapshot(t, at-k), whole: mustEncode(t, node.det.merged)})
				}
			}
			dl := &delivery{s: node.snapshot(t, at), whole: mustEncode(t, node.det.merged)}
			switch {
			case i == 0 && round%8 == 3: // dropped on the way
				node.det.ResyncSeal()
			case i == 0 && round%8 == 5: // delivered twice
				offer(i, *dl)
				offer(i, *dl)
			case i == 0 && round%8 == 6: // overtaken by the next
				held = dl
			case i == 0 && held != nil:
				offer(i, *dl)
				offer(i, *held)
				held = nil
			case i == 1: // a round late
				if delayed != nil {
					offer(i, *delayed)
				}
				delayed = dl
			default:
				offer(i, *dl)
			}
			if m := models[2]; i == 2 && (round == 20 && (dl.s.Seq != 19 || m.late != 19) ||
				round == 21 && (dl.s.Seq != 20 || !dl.s.Delta || m.needFull != 1)) {
				t.Fatalf("round %d: restarted node at seal %d: %d late, %d refused", round, dl.s.Seq, m.late, m.needFull)
			}
		}
	}
	st := agg.Stats()
	var late, applied int64
	for i, ns := range st.Nodes {
		m := models[i]
		if ns.Frames != m.applied || ns.NeedFull != m.needFull || ns.Rejected != 0 ||
			ns.NeedFull+ns.Frames+m.late != m.offered {
			t.Fatalf("%s: stats %+v, model %+v", ns.Node, ns, m)
		}
		if m.needFull == 0 || m.deltas == 0 || m.applied == m.deltas {
			t.Fatalf("%s: %d refused, %d deltas among %d applied: the replay exercised only one path", ns.Node, m.needFull, m.deltas, m.applied)
		}
		late += m.late
		applied += m.applied
	}
	if late != st.LateFrames || models[0].late == 0 || models[2].late != 19 {
		t.Fatalf("late frames: model %d, stats %d", late, st.LateFrames)
	}
	restored, skipped := agg.restoredSlots.Load(), agg.skippedSlots.Load()
	if slots := applied * 5 * 5; restored+skipped != slots { // IPv4 byte levels × ring
		t.Fatalf("%d restored + %d skipped slots, want %d", restored, skipped, slots)
	}
	if skipped == 0 || restored == 0 || agg.Report().Set.Len() == 0 {
		t.Fatalf("%d restored, %d skipped, %d items: the replay exercised only one path",
			restored, skipped, agg.Report().Set.Len())
	}
	if folded, kept := slotTally(agg.acc); kept == 0 || folded == 0 {
		t.Fatalf("accumulator folded %d slots and kept %d", folded, kept)
	}
}

// TestSlidingLateShardRejoinsWhole is the chaos cell of the memo: a shard
// stuck across snapshot n is left out of that merge (published degraded
// within the deadline) and is back on time for snapshot n+1. The
// accumulator's memo of the slots it folded without the shard must not
// survive: frame n+1 is byte for byte the frame of an undisturbed twin —
// a sliding barrier never resets its shards, so the straggler lost
// nothing.
func TestSlidingLateShardRejoinsWhole(t *testing.T) {
	plan := chaos.New()
	var seals, twinSeals sealCollector
	base := Config{
		Mode: ModeSliding, Shards: 2, Window: 2 * time.Second, Frames: 4, Phi: 0.05, Counters: 32,
		Batch: 1, RingDepth: 256, BarrierTimeout: 300 * time.Millisecond,
	}
	cfg, twinCfg := base, base
	cfg.Chaos, cfg.OnSeal = plan, seals.add
	twinCfg.OnSeal = twinSeals.add
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	twin, err := New(twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	pkts := wideStream(5, 900, 900*time.Millisecond)
	feed := func(lo, hi int) {
		d.ObserveBatch(pkts[lo:hi])
		twin.ObserveBatch(pkts[lo:hi])
	}
	snap := func(at int64) (Sealed, Sealed) {
		d.Snapshot(at)
		twin.Snapshot(at)
		a, b := seals.all(), twinSeals.all()
		return a[len(a)-1], b[len(b)-1]
	}
	ms := int64(time.Millisecond)

	feed(0, 600)
	if got, want := snap(600 * ms); got.Degraded || !bytes.Equal(got.Frame, want.Frame) {
		t.Fatal("healthy pipelines disagree before the fault")
	}
	release := plan.BlockShard(1)
	feed(600, 700) // ~50 one-packet batches park in shard 1's ring
	if got, want := snap(700 * ms); !got.Degraded || got.Shards != 1 || bytes.Equal(got.Frame, want.Frame) {
		t.Fatalf("snapshot n: degraded=%v shards=%d; want a degraded one-shard merge that differs from the twin's",
			got.Degraded, got.Shards)
	}
	release()
	feed(700, 900)
	// Delta seals differ for as long as their bases do: compare full frames.
	d.ResyncSeal()
	twin.ResyncSeal()
	got, want := snap(900 * ms)
	if got.Degraded || got.Shards != 2 {
		t.Fatalf("snapshot n+1: degraded=%v shards=%d, want whole", got.Degraded, got.Shards)
	}
	if !bytes.Equal(got.Frame, want.Frame) || got.Bytes != want.Bytes {
		t.Fatal("snapshot n+1 differs from the undisturbed twin's")
	}
	if dp, _ := d.DroppedMass(); dp != 0 {
		t.Fatalf("%d packets dropped; the ring was meant to hold the stalled shard's backlog", dp)
	}
}

// TestMemoMetrics: the fold and restore counters and the Aggregator's
// state gauge are served in a conforming exposition and equal the
// engine's own tallies — they are counts of a deterministic replay, so
// the ratio reused/(reused+folded) can be quoted as evidence.
func TestMemoMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	node := newSlidingNode(t, reg)
	agg, err := NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.02, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	pkts := wideStream(9, 20000, 6*time.Second)
	fed := 0
	const rounds = 30
	for round := int64(1); round <= rounds; round++ {
		at := round * int64(200*time.Millisecond)
		n := fed
		for n < len(pkts) && pkts[n].Ts <= at {
			n++
		}
		node.det.ObserveBatch(pkts[fed:n])
		fed = n
		if err := agg.Ingest("n", node.snapshot(t, at)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not conform: %v", err)
	}
	sample := func(name string) int64 {
		for _, line := range strings.Split(sb.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				var v float64
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return int64(v)
			}
		}
		t.Fatalf("no sample %s", name)
		return 0
	}
	folded, kept := slotTally(node.det.merged)
	const slots = rounds * 5 * 5 // rounds × IPv4 byte levels × ring
	if folded+kept != slots || kept < slots/2 {
		t.Fatalf("barrier folded %d and kept %d of %d slots", folded, kept, slots)
	}
	if g := sample(`hhh_pipeline_fold_slots_total{result="folded"}`); g != folded {
		t.Errorf("fold_slots folded %d, engine tally %d", g, folded)
	}
	if g := sample(`hhh_pipeline_fold_slots_total{result="reused"}`); g != kept {
		t.Errorf("fold_slots reused %d, engine tally %d", g, kept)
	}
	restored, skipped := sample(`hhh_aggregator_restore_slots_total{result="restored"}`),
		sample(`hhh_aggregator_restore_slots_total{result="skipped"}`)
	if restored != agg.restoredSlots.Load() || skipped != agg.skippedSlots.Load() ||
		restored+skipped != slots || skipped < slots/2 {
		t.Errorf("restore_slots %d restored + %d skipped of %d slots", restored, skipped, slots)
	}
	// One node: its summary is queried as it stands, no accumulator.
	if g, w := sample("hhh_aggregator_state_bytes"), int64(agg.nodes["n"].sum.SizeBytes()); g != w || w == 0 || agg.acc != nil {
		t.Errorf("state_bytes %d, node summary %d, accumulator %v", g, w, agg.acc != nil)
	}
}

// TestOccupancyMetric: the continuous pipeline serves, in a conforming
// exposition, the occupied cells of each level of its merged filters as
// the encoder counted them for the last sealed frame — equal to a count
// taken off the accumulator, which stands untouched since that seal, and
// shrinking from the crowded leaf level to the root — beside the cells each
// level has, the gauge's denominator: Config.Cells where the level is
// hashed, its prefix space where that fits and the level is held exactly.
func TestOccupancyMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sealed atomic.Int64
	det, err := New(Config{
		Mode: ModeContinuous, Shards: 2, Window: time.Second, Phi: 0.02, Cells: 1 << 12,
		Metrics: reg, OnSeal: func(Sealed) { sealed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	pkts := wideStream(5, 20000, 3*time.Second)
	det.ObserveBatch(pkts)
	det.Snapshot(pkts[len(pkts)-1].Ts + 1)
	if sealed.Load() != 1 {
		t.Fatalf("%d frames sealed", sealed.Load())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not conform: %v", err)
	}
	filters := det.merged.(*tdbfSummary).d.State().Filters
	prev := 1 << 12
	for l, f := range filters {
		for _, want := range []string{
			fmt.Sprintf("\nhhh_pipeline_tdbf_occupied_cells{level=\"%d\"} %d\n", l, f.Occupied()),
			fmt.Sprintf("\nhhh_pipeline_tdbf_level_cells{level=\"%d\"} %d\n", l, f.Cells()),
		} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("exposition lacks %q", strings.TrimSpace(want))
			}
		}
		if f.Occupied() == 0 || f.Occupied() > prev {
			t.Errorf("level %d: %d occupied cells after %d a level below", l, f.Occupied(), prev)
		}
		prev = f.Occupied()
	}
	// The byte ladder under 4096 cells: /8 and /0 fit, and are held exactly.
	if got := []int{filters[0].Cells(), filters[1].Cells(), filters[2].Cells(), filters[3].Cells(), filters[4].Cells()}; !slices.Equal(got, []int{1 << 12, 1 << 12, 1 << 12, 256, 1}) {
		t.Errorf("level cells %v", got)
	}
}

// TestTableUpdatesMetric: the coalescing block's own figure — table
// updates applied per shard — is served in a conforming exposition and
// equals the engine's tally as of the shard's last batch or barrier; on a
// stream with far more packets than prefixes it is a fraction of the
// levels-per-packet an engine without the block pays, and an engine
// without one reports zero.
func TestTableUpdatesMetric(t *testing.T) {
	pkts := wideStream(21, 30000, 3*time.Second)
	for _, kind := range []Kind{KindPerLevel, KindWCSS, KindRHHH} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			det, err := New(Config{
				Mode: kind.row().mode, Engine: kind, Shards: 2, Window: time.Second, Phi: 0.02,
				Counters: 64, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			det.ObserveBatch(pkts)                 // windowed: two window closes on the way
			det.Snapshot(pkts[len(pkts)-1].Ts + 1) // sliding: a query barrier
			det.Close()                            // the rings are drained, the workers gone
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
				t.Fatalf("exposition does not conform: %v", err)
			}
			levels := int64(det.cfg.Hierarchy.Levels())
			for i, s := range det.shards {
				want := tableUpdates(s.eng)
				line := fmt.Sprintf("\nhhh_pipeline_table_updates_total{shard=\"%d\"} %d\n", i, want)
				if !strings.Contains(sb.String(), line) {
					t.Errorf("exposition lacks %q", strings.TrimSpace(line))
				}
				switch packets := s.packets.Load(); {
				case kind == KindRHHH:
					if want != 0 {
						t.Errorf("shard %d: %d table updates from an engine without a block", i, want)
					}
				case want < levels || want > packets*levels/2:
					t.Errorf("shard %d: %d table updates for %d packets over %d levels", i, want, packets, levels)
				}
			}
		})
	}
}
