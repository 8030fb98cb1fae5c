package pipeline

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// sealCollector gathers OnSeal emissions (the callback runs on merging
// goroutines, so collection needs a lock).
type sealCollector struct {
	mu    sync.Mutex
	seals []Sealed
}

func (c *sealCollector) add(s Sealed) {
	c.mu.Lock()
	c.seals = append(c.seals, s)
	c.mu.Unlock()
}

func (c *sealCollector) all() []Sealed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sealed(nil), c.seals...)
}

// TestSealEmission drives a windowed pipeline with OnSeal set and checks
// the emitted frames: monotone sequence numbers, decodable payloads of
// the right engine kind, and window spans matching the OnWindow stream.
func TestSealEmission(t *testing.T) {
	var col sealCollector
	var windows []int64
	pkts := testStream(7, 20000, 7)
	width := int64(2 * time.Second)
	d, err := New(Config{
		Shards: 3,
		Window: 2 * time.Second,
		Phi:    0.03,
		Engine: KindPerLevel,
		OnWindow: func(start, end int64, set hhh.Set) {
			windows = append(windows, end)
		},
		OnSeal: func(s Sealed) { col.add(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(pkts)
	d.Snapshot(pkts[len(pkts)-1].Ts + width)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seals := col.all()
	if len(seals) == 0 {
		t.Fatal("no seals emitted")
	}
	if len(seals) != len(windows) {
		t.Fatalf("got %d seals for %d closed windows", len(seals), len(windows))
	}
	for i, s := range seals {
		if s.Seq != int64(i+1) {
			t.Fatalf("seal %d has Seq %d, want %d", i, s.Seq, i+1)
		}
		if s.End != windows[i] || s.Start != windows[i]-width {
			t.Fatalf("seal %d spans [%d,%d], window ended at %d", i, s.Start, s.End, windows[i])
		}
		v, err := wire.Decode(s.Frame)
		if err != nil {
			t.Fatalf("seal %d frame does not decode: %v", i, err)
		}
		if _, ok := v.(*hhh.PerLevel); !ok {
			t.Fatalf("seal %d decoded to %T, want *hhh.PerLevel", i, v)
		}
	}
}

// TestSealLabels pins the engine a sealed frame's header names — the only
// label a receiver reads — to the one Stats reports, for the modes whose
// engine is not the configured Engine value verbatim: sliding's default
// (Engine left at its zero value, a windowed kind), sliding with Memento,
// and continuous, which has no Engine value at all.
func TestSealLabels(t *testing.T) {
	pkts := testStream(11, 4000, 3)
	for _, tc := range []struct {
		cfg          Config
		mode, engine string
	}{
		{Config{Mode: ModeWindowed, Engine: KindPerLevel}, "windowed", "perlevel"},
		{Config{Mode: ModeSliding}, "sliding", "wcss"},
		{Config{Mode: ModeSliding, Engine: KindMemento}, "sliding", "memento"},
		{Config{Mode: ModeContinuous}, "continuous", "tdbf"},
	} {
		var col sealCollector
		cfg := tc.cfg
		cfg.Shards, cfg.Window, cfg.Phi, cfg.OnSeal = 2, time.Second, 0.05, col.add
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveBatch(pkts)
		d.Snapshot(pkts[len(pkts)-1].Ts + int64(time.Second))
		st := d.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		seals := col.all()
		if len(seals) == 0 {
			t.Fatalf("%s/%s: no seals emitted", tc.mode, tc.engine)
		}
		for _, s := range seals {
			f, err := wire.Verify(s.Frame)
			if err != nil {
				t.Fatal(err)
			}
			if e := engineOfWire(f.Header.Kind); e == nil || e.name != tc.engine {
				t.Errorf("%s: seal of wire kind %v, want engine %s", tc.mode, f.Header.Kind, tc.engine)
			}
		}
		if st.Engine != tc.engine {
			t.Errorf("Stats().Engine = %q, seals say %q", st.Engine, tc.engine)
		}
	}
}

// TestSealClusterMatchesSingle is the in-process cluster round trip:
// three ingest pipelines over a source-partitioned stream seal their
// windows, an aggregator merges the sealed frames round by round, and —
// because the exact engine merges losslessly — every published global
// set must equal the single-pipeline run over the unpartitioned stream.
func TestSealClusterMatchesSingle(t *testing.T) {
	const nodes = 3
	const phi = 0.03
	window := 2 * time.Second
	width := int64(window)
	pkts := testStream(11, 30000, 7)
	last := pkts[len(pkts)-1].Ts + width

	// Reference: one pipeline over the whole stream.
	ref := map[int64]hhh.Set{}
	single, err := New(Config{
		Shards: 2, Window: window, Phi: phi, Engine: KindExact,
		OnWindow: func(start, end int64, set hhh.Set) { ref[end] = set },
	})
	if err != nil {
		t.Fatal(err)
	}
	single.ObserveBatch(pkts)
	single.Snapshot(last)
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	// Fleet: partition by source, one pipeline per node, collect seals.
	cols := make([]sealCollector, nodes)
	for n := 0; n < nodes; n++ {
		d, err := New(Config{
			Shards: 2, Window: window, Phi: phi, Engine: KindExact,
			OnSeal: cols[n].add,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			if int(pkts[i].Src.Lo()%nodes) == n {
				d.ObserveBatch(pkts[i : i+1])
			}
		}
		d.Snapshot(last)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}

	agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: phi, RoundGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Feed window by window; the round completes on the last node's
	// frame, so the report read right after is that round's.
	byEnd := map[int64][]struct {
		node string
		s    Sealed
	}{}
	for n := range cols {
		name := string(rune('a' + n))
		for _, s := range cols[n].all() {
			byEnd[s.End] = append(byEnd[s.End], struct {
				node string
				s    Sealed
			}{name, s})
		}
	}
	ends := make([]int64, 0, len(byEnd))
	for e := range byEnd {
		ends = append(ends, e)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })

	checked := 0
	for _, e := range ends {
		if len(byEnd[e]) != nodes {
			t.Fatalf("window %d sealed by %d/%d nodes", e, len(byEnd[e]), nodes)
		}
		for _, f := range byEnd[e] {
			if err := agg.Ingest(f.node, f.s); err != nil {
				t.Fatalf("ingest node %s end %d: %v", f.node, e, err)
			}
		}
		rep := agg.Report()
		if rep.End != e {
			t.Fatalf("report End %d after completing round %d", rep.End, e)
		}
		if rep.Degraded || rep.Nodes != nodes {
			t.Fatalf("complete round %d published degraded=%v nodes=%d", e, rep.Degraded, rep.Nodes)
		}
		want, ok := ref[e]
		if !ok {
			t.Fatalf("no reference window ending at %d", e)
		}
		if !rep.Set.Equal(want) {
			t.Fatalf("window %d: cluster set %v != single-run set %v", e, rep.Set, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no rounds checked")
	}
	st := agg.Stats()
	if st.Kind != "exact" || st.Merges != int64(checked) || st.DegradedMerges != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Nodes) != nodes {
		t.Fatalf("stats tracks %d nodes", len(st.Nodes))
	}
}

// exactSeal builds a Sealed exact frame over a tiny fixed hierarchy for
// direct aggregator tests.
func exactSeal(seq, start, end int64, keys map[uint64]int64) Sealed {
	ex := sketch.NewExact(len(keys))
	for k, v := range keys {
		ex.Update(k, v)
	}
	return Sealed{
		Seq: seq, Start: start, End: end,
		Frame: wire.EncodeExact(cfgHierarchy(), ex),
	}
}

// TestAggregatorGraceDegrades starves a round of one node and checks the
// grace timer publishes it degraded with the nodes that arrived.
func TestAggregatorGraceDegrades(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{Expected: 3, Phi: 0.1, RoundGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	end := int64(time.Second)
	if err := agg.Ingest("a", exactSeal(1, 0, end, map[uint64]int64{1: 100})); err != nil {
		t.Fatal(err)
	}
	if err := agg.Ingest("b", exactSeal(1, 0, end, map[uint64]int64{2: 50})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agg.Report().Seq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grace timer never published the starved round")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := agg.Report()
	if !rep.Degraded || rep.Nodes != 2 || rep.End != end {
		t.Fatalf("starved round published %+v", rep)
	}
	if rep.Bytes != 150 {
		t.Fatalf("starved round mass %d, want 150", rep.Bytes)
	}
	st := agg.Stats()
	if st.DegradedMerges != 1 {
		t.Fatalf("degraded merges %d, want 1", st.DegradedMerges)
	}
	// The straggler's frame for the published round is late and nothing
	// else: it books no frame, moves no clock and publishes nothing.
	if err := agg.Ingest("c", exactSeal(1, 0, end, map[uint64]int64{3: 70})); err != nil {
		t.Fatal(err)
	}
	st = agg.Stats()
	if st.LateFrames != 1 {
		t.Fatalf("late frames %d, want 1", st.LateFrames)
	}
	if c := st.Nodes[len(st.Nodes)-1]; c.Node != "c" || c.Frames != 0 || c.LastSeq != 0 || c.LastEnd != 0 || c.LastSeenUnixNano != 0 {
		t.Fatalf("a late frame was booked as accepted: %+v", c)
	}
	if got := agg.Report(); got.Seq != rep.Seq {
		t.Fatalf("a late frame published report %d after %d", got.Seq, rep.Seq)
	}
}

// TestAggregatorRejects exercises the validation surface: garbage
// frames, kind drift, hierarchy drift and stale sequence numbers.
func TestAggregatorRejects(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.1, RoundGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	if err := agg.Ingest("a", Sealed{Seq: 1, Frame: []byte("not a frame")}); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("garbage frame: %v", err)
	}
	good := exactSeal(1, 0, int64(time.Second), map[uint64]int64{1: 10})
	if err := agg.Ingest("a", good); err != nil {
		t.Fatal(err)
	}
	// Kind drift: a per-level frame against an exact fleet.
	pl := hhh.NewPerLevel(cfgHierarchy(), 8)
	drift := Sealed{Seq: 2, End: int64(time.Second), Frame: wire.EncodePerLevel(pl)}
	if err := agg.Ingest("b", drift); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("kind drift: %v", err)
	}
	// Hierarchy drift: exact over a different ladder.
	h16 := addr.NewIPv4Hierarchy(16)
	ex := sketch.NewExact(1)
	ex.Update(1, 5)
	wrongH := Sealed{Seq: 3, End: int64(time.Second), Frame: wire.EncodeExact(h16, ex)}
	err = agg.Ingest("b", wrongH)
	if !errors.Is(err, ErrFrameRejected) || !errors.Is(err, wire.ErrHierarchyMismatch) {
		t.Fatalf("hierarchy drift: %v", err)
	}
	// Stale sequence from a: dropped silently, counted late.
	if err := agg.Ingest("a", good); err != nil {
		t.Fatalf("stale seq should drop, not error: %v", err)
	}
	st := agg.Stats()
	if st.Rejected != 3 {
		t.Fatalf("rejected %d, want 3", st.Rejected)
	}
	if st.LateFrames != 1 {
		t.Fatalf("late frames %d, want 1", st.LateFrames)
	}
}

// TestAggregatorSliding pins the latest-frame-per-node model: reports
// track the fleet-maximum End, a fresh fleet is not degraded, and a node
// whose newest frame trails by more than the window span degrades the
// report without corrupting it.
func TestAggregatorSliding(t *testing.T) {
	h := cfgHierarchy()
	cfg := swhh.Config{Window: time.Second, Frames: 4, Counters: 64}
	build := func(hostBase byte, upto int64) *swhh.SlidingHHH {
		d, err := swhh.NewSlidingHHH(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		kb, key := trace.NewKeyBatch(0), h.Key(addr.From4(10, 0, 0, hostBase), 0)
		for now := int64(0); now < upto; now += int64(10 * time.Millisecond) {
			kb.Append(key, 100, now)
		}
		d.UpdateKeys(kb)
		return d
	}
	seal := func(seq int64, d *swhh.SlidingHHH, end int64) Sealed {
		return Sealed{Seq: seq, Start: end - int64(time.Second), End: end, Frame: wire.EncodeSliding(d)}
	}
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	end0 := int64(time.Second)
	if err := agg.Ingest("a", seal(1, build(1, end0), end0)); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if rep.Nodes != 1 || !rep.Degraded {
		t.Fatalf("half fleet published %+v", rep)
	}
	end1 := end0 + int64(200*time.Millisecond)
	if err := agg.Ingest("b", seal(1, build(2, end1), end1)); err != nil {
		t.Fatal(err)
	}
	rep = agg.Report()
	if rep.End != end1 || rep.Nodes != 2 || rep.Degraded {
		t.Fatalf("full fleet published %+v", rep)
	}
	if rep.Set.Len() == 0 {
		t.Fatal("merged sliding report is empty")
	}
	// Node a leaps far ahead; b's frame ages past the window span.
	end2 := end1 + int64(5*time.Second)
	if err := agg.Ingest("a", seal(2, build(1, end2), end2)); err != nil {
		t.Fatal(err)
	}
	rep = agg.Report()
	if rep.End != end2 || !rep.Degraded {
		t.Fatalf("lagging node should degrade: %+v", rep)
	}
}

// TestAggregatorContinuous pins the latest-frame path for the continuous
// engine, over frames of every wire version. Node a ships version-3 frames
// of a detector fed its half of a source-partitioned stream — the second
// restored over the first, in place; node b's frame is the committed
// version-1 golden vector of internal/wire, whose fixture stream the test
// regenerates, then the same state's version-2 and version-3 vectors, each
// restored over the one before. Their fold must answer as one detector over
// the union stream does. A frame that fails half way through the restore costs the node its
// summary, not the Aggregator its report, and the next good frame brings
// the node back.
func TestAggregatorContinuous(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := continuous.Config{
		Hierarchy: h, Phi: 0.05, Seed: 0x80,
		Filter: tdbf.Config{Cells: 1 << 10, Hashes: 3, Decay: tdbf.Exponential{Tau: 500 * time.Millisecond}},
	}
	v1, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "continuous-v4.wire"))
	if err != nil {
		t.Fatal(err)
	}
	// The stream wire's testContinuousH(v4, 0x80) fed, draw for draw.
	state := uint64(0x80)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var streamB []trace.Packet
	for i, now := 0, int64(0); i < 2000; i++ {
		now += int64(next() % uint64(2*time.Millisecond))
		v := next()
		src := addr.From4(byte(10+v%3), byte(v>>8), byte(v>>16), byte(v>>24&3))
		streamB = append(streamB, trace.Packet{Ts: now, Src: src, Size: uint32(1 + next()%9)})
	}
	at := streamB[len(streamB)-1].Ts + 1
	// Node a: everything under 20/8, three packets in five from one host.
	rng := rand.New(rand.NewSource(4))
	streamA := make([]trace.Packet, 2000)
	for i := range streamA {
		src := addr.From4(20, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(4)))
		if rng.Intn(5) < 3 {
			src = addr.From4(20, 1, 2, 3)
		}
		streamA[i] = trace.Packet{Ts: int64(i) * (at - 1) / int64(len(streamA)), Src: src, Size: uint32(1 + rng.Intn(9))}
	}
	mk := func() *continuous.Detector {
		d, err := continuous.NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	feed := func(d *continuous.Detector, pkts []trace.Packet) {
		kb := trace.NewKeyBatch(len(pkts))
		kb.AppendPackets(h, pkts)
		d.ObserveKeys(kb)
	}
	seal := func(seq int64, d *continuous.Detector, end int64) Sealed {
		frame := wire.EncodeContinuous(d)
		return Sealed{Seq: seq, Start: end - int64(cfg.Filter.Decay.Tau), End: end, Frame: frame}
	}
	union := mk()
	both := append(slices.Clone(streamA), streamB...)
	sort.SliceStable(both, func(i, j int) bool { return both[i].Ts < both[j].Ts })
	feed(union, both)
	want := union.Query(at)
	heavyA, heavyB := h.PrefixOfKey(h.Key(addr.From4(20, 1, 2, 3), 0), 0), h.PrefixOfKey(h.Key(addr.From4(11, 0, 0, 0), 3), 3)
	if !want.Contains(heavyA) || !want.Contains(heavyB) {
		t.Fatalf("the union stream's report %v lacks a heavy prefix of one of the halves", want)
	}

	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: cfg.Phi})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	matches := func(when string) {
		t.Helper()
		rep := agg.Report()
		if rep.Nodes != 2 || rep.Degraded || rep.End != at || !rep.Set.Equal(want) {
			t.Fatalf("%s: report %+v, one detector over the union stream says %v", when, rep, want)
		}
		for p, it := range want {
			if g := rep.Set[p]; math.Abs(float64(g.Count-it.Count)) > 1e-6*float64(it.Count)+1 ||
				math.Abs(float64(g.Conditioned-it.Conditioned)) > 1e-6*float64(it.Count)+1 {
				t.Fatalf("%s: %v: aggregated %+v, union stream %+v", when, p, g, it)
			}
		}
		if mass := union.TotalMass(at); math.Abs(float64(rep.Bytes)-mass) > 1e-6*mass+1 {
			t.Fatalf("%s: aggregated mass %d, union stream %v", when, rep.Bytes, mass)
		}
	}
	nodeA := mk()
	feed(nodeA, streamA[:len(streamA)/2])
	if err := agg.Ingest("a", seal(1, nodeA, streamA[len(streamA)/2].Ts)); err != nil {
		t.Fatal(err)
	}
	first := agg.nodes["a"].sum
	if err := agg.Ingest("b", Sealed{Seq: 1, Start: at - int64(cfg.Filter.Decay.Tau), End: at, Frame: v1}); err != nil {
		t.Fatalf("version-1 frame: %v", err)
	}
	feed(nodeA, streamA[len(streamA)/2:])
	good := seal(2, nodeA, at)
	if err := agg.Ingest("a", good); err != nil {
		t.Fatal(err)
	}
	if sum := agg.nodes["a"].sum; sum != first || sum.(*tdbfSummary).d == nil {
		t.Fatal("node a's second frame was not restored over its first, in place")
	}
	matches("v3 restored in place + v1")
	seqB := int64(1)
	for _, file := range []string{"continuous-v4-v2.wire", "continuous-v4-v3.wire", "continuous-v4.wire"} {
		frame, err := os.ReadFile(filepath.Join("..", "wire", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		seqB++
		if err := agg.Ingest("b", Sealed{Seq: seqB, Start: at - int64(cfg.Filter.Decay.Tau), End: at, Frame: frame}); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		matches("v3 + " + file + " over the version before")
	}

	// The last level, the root's one cell, declares a thousand occupied
	// (the checksum made good again): the levels before it are written by
	// then.
	bad := good
	bad.Seq, bad.Frame = 3, slices.Clone(good.Frame)
	n := len(bad.Frame) - 4
	binary.LittleEndian.PutUint32(bad.Frame[n-12:], 1<<10)
	binary.LittleEndian.PutUint32(bad.Frame[n:], crc32.ChecksumIEEE(bad.Frame[:n]))
	if err := agg.Ingest("a", bad); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("frame that fails mid-restore: %v", err)
	}
	if agg.nodes["a"].sum != nil {
		t.Fatal("a half-restored summary was kept")
	}
	if err := agg.Ingest("b", Sealed{Seq: seqB + 1, Start: at - int64(cfg.Filter.Decay.Tau), End: at, Frame: v1}); err != nil {
		t.Fatal(err)
	}
	if rep := agg.Report(); rep.Nodes != 1 || !rep.Degraded || rep.Set.Contains(heavyA) || !rep.Set.Contains(heavyB) {
		t.Fatalf("after node a's bad frame: %+v", rep)
	}
	good.Seq = 4
	if err := agg.Ingest("a", good); err != nil {
		t.Fatal(err)
	}
	matches("after node a's next good frame")
}

// TestAggregatorContinuousConfigDrift: two nodes whose continuous
// detectors share hierarchy, filter shape and seed but not configuration —
// one samples a level per packet, the other writes every level — do not
// merge. Their frames decode and their filters would add cell for cell, to
// a doubled total over levels half of which sit unscaled; the round that
// would fold them is rejected as a merge mismatch instead, and the report
// stays the first node's.
func TestAggregatorContinuousConfigDrift(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	rng := rand.New(rand.NewSource(9))
	pkts := make([]trace.Packet, 3000)
	for i := range pkts {
		pkts[i] = trace.Packet{Ts: int64(i) * int64(time.Millisecond), Src: addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(256)), 1), Size: 100}
	}
	kb := trace.NewKeyBatch(len(pkts))
	kb.AppendPackets(h, pkts)
	at := pkts[len(pkts)-1].Ts
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for i, node := range []string{"unsampled", "sampled"} {
		d, err := continuous.NewDetector(continuous.Config{
			Hierarchy: h, Phi: 0.05, Seed: 7, Sampled: i == 1,
			Filter: tdbf.Config{Cells: 1 << 10, Hashes: 3, Decay: tdbf.Exponential{Tau: 500 * time.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveKeys(kb)
		frame := wire.EncodeContinuous(d)
		err = agg.Ingest(node, Sealed{Seq: 1, Start: at - int64(500*time.Millisecond), End: at, Frame: frame})
		switch {
		case i == 0 && err != nil:
			t.Fatal(err)
		case i == 1 && (!errors.Is(err, ErrFrameRejected) || !strings.Contains(err.Error(), "Merge config mismatch")):
			t.Fatalf("a sampled node's frame folded with an unsampled node's: %v", err)
		}
	}
	if rep := agg.Report(); rep.Nodes != 1 {
		t.Fatalf("report over %d nodes after the drifting node's frame: %+v", rep.Nodes, rep)
	}
}

// TestAggregatorContinuousSteadyStateAllocs: once every node has a summary
// and the accumulator exists, taking a continuous frame in — restore,
// fold, query, publish — allocates nothing that grows with the filters.
func TestAggregatorContinuousSteadyStateAllocs(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	const cells = 1 << 16
	pkts := testStream(12, 20000, 4)
	at := pkts[len(pkts)-1].Ts + 1
	var seals [2]Sealed
	for i := range seals {
		d, err := continuous.NewDetector(continuous.Config{
			Hierarchy: h, Phi: 0.05,
			Filter: tdbf.Config{Cells: cells, Hashes: 4, Decay: tdbf.Exponential{Tau: time.Second}},
		})
		if err != nil {
			t.Fatal(err)
		}
		kb := trace.NewKeyBatch(len(pkts) / 2)
		kb.AppendPackets(h, pkts[i*len(pkts)/2:(i+1)*len(pkts)/2])
		d.ObserveKeys(kb)
		frame := wire.EncodeContinuous(d)
		seals[i] = Sealed{Start: at - int64(time.Second), End: at, Frame: frame}
	}
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	seq := int64(0)
	round := func() {
		seq++
		for i, s := range seals {
			s.Seq = seq
			if err := agg.Ingest(string(rune('a'+i)), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	round()
	if agg.Report().Set.Len() == 0 || agg.acc == nil {
		t.Fatalf("warm-up published %+v", agg.Report())
	}
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops the decoder's scratch at random: an allocation count has nothing to measure")
	}
	const rounds = 8
	perFrame := leastAlloc(func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	}) / (2 * rounds)
	t.Logf("steady-state ingest: %d B per frame", perFrame)
	if column := uint64(cells * 8); perFrame > column/8 {
		t.Fatalf("steady-state ingest allocates %d B per frame; one level's cells are %d B", perFrame, column)
	}
}

// TestAggregatorSaturatesHostileCounts: two nodes' frames, each valid on
// its own — one entry of 2^62+1 bytes per level, within its total — used
// to merge to a count and a mass of MinInt64, wiping the report. The sums
// now stop at MaxInt64: the report carries the key at that count over
// that mass, in both alignment models.
func TestAggregatorSaturatesHostileCounts(t *testing.T) {
	const c = int64(1)<<62 + 1
	h := cfgHierarchy()
	victim := addr.MustParseAddr("10.1.2.3")
	entry := func(l int) func(int) sketch.KV {
		return func(int) sketch.KV { return sketch.KV{Key: h.Key(victim, l), Count: c} }
	}
	end := int64(time.Second)
	perLevel := func() Sealed {
		sks := make([]*sketch.SpaceSaving, h.Levels())
		for l := range sks {
			sks[l] = sketch.NewSpaceSaving(8)
			if err := sks[l].Restore(c, 1, entry(l)); err != nil {
				t.Fatal(err)
			}
		}
		p := new(hhh.PerLevel)
		if err := hhh.RestorePerLevel(p, h, c, sks); err != nil {
			t.Fatal(err)
		}
		return Sealed{Seq: 1, Start: 0, End: end, Frame: wire.EncodePerLevel(p)}
	}
	sliding := func() Sealed {
		d, err := swhh.NewSlidingHHH(h, swhh.Config{Window: time.Second, Frames: 4, Counters: 8})
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < h.Levels(); l++ {
			lv := d.LevelSummary(l)
			lv.RestoreClock(3)
			if err := lv.RestoreSlot(3, c, c, 1, entry(l)); err != nil {
				t.Fatal(err)
			}
		}
		return Sealed{Seq: 1, Start: 0, End: end, Frame: wire.EncodeSliding(d)}
	}
	for name, seal := range map[string]func() Sealed{"perlevel": perLevel, "wcss": sliding} {
		t.Run(name, func(t *testing.T) {
			agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.1, RoundGrace: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			for _, node := range []string{"a", "b"} {
				if err := agg.Ingest(node, seal()); err != nil {
					t.Fatal(err)
				}
			}
			rep := agg.Report()
			if rep.Nodes != 2 || rep.Bytes != math.MaxInt64 {
				t.Fatalf("report over %d nodes with mass %d, want 2 nodes and MaxInt64", rep.Nodes, rep.Bytes)
			}
			it, ok := rep.Set[addr.Host(victim)]
			if !ok || it.Count != math.MaxInt64 {
				t.Fatalf("the key both nodes report: present %v, count %d, want MaxInt64; set %v", ok, it.Count, rep.Set)
			}
		})
	}
}
