package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// cfgHierarchy is the hierarchy the expectations are computed over: the
// IPv4 byte ladder, the pipeline Config default.
func cfgHierarchy() addr.Hierarchy { return addr.NewIPv4Hierarchy(addr.Byte) }

// testStream builds a time-ordered skewed packet stream spanning roughly
// spanSec seconds.
func testStream(seed int64, n int, spanSec int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(spanSec) * int64(time.Second) / int64(n)
	for i := range out {
		org := uint32(rng.Intn(6))
		net := uint32(float64(180) * rng.Float64() * rng.Float64())
		host := uint32(rng.Intn(40))
		out[i] = trace.Packet{
			Ts:   int64(i) * step,
			Src:  addr.From4Uint32(10<<24 | org<<16 | net<<8 | host),
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	return out
}

// TestShardedExactMatchesOffline drives the pipeline with the exact
// engine and checks every closed window's merged set against an offline
// per-window exact computation. Exact maps merge losslessly, so this
// validates the windowing, partitioning and barrier logic in isolation
// from sketch error.
func TestShardedExactMatchesOffline(t *testing.T) {
	const phi = 0.03
	window := 2 * time.Second
	pkts := testStream(1, 60000, 11)
	h := addr.NewIPv4Hierarchy(addr.Byte)

	// Offline reference: aggregate each disjoint window, exact HHH.
	width := int64(window)
	byWindow := map[int64]*sketch.Exact{}
	for i := range pkts {
		w := pkts[i].Ts / width
		ex := byWindow[w]
		if ex == nil {
			ex = sketch.NewExact(256)
			byWindow[w] = ex
		}
		ex.Update(cfgHierarchy().Key(pkts[i].Src, 0), int64(pkts[i].Size))
	}

	for _, shards := range []int{1, 3, 4} {
		got := map[int64]hhh.Set{}
		d, err := New(Config{
			Shards: shards,
			Window: window,
			Phi:    phi,
			Engine: KindExact,
			Batch:  64,
			OnWindow: func(start, end int64, set hhh.Set) {
				got[start/width] = set
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveBatch(pkts)
		d.Snapshot(pkts[len(pkts)-1].Ts + width) // flush the final window
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		for w, ex := range byWindow {
			want := hhh.Exact(ex, h, hhh.Threshold(ex.Total(), phi))
			if got[w] == nil {
				t.Fatalf("shards=%d: window %d never closed", shards, w)
			}
			if !got[w].Equal(want) {
				t.Errorf("shards=%d window %d: merged %v != exact %v", shards, w, got[w], want)
			}
		}
	}
}

// TestShardedObserveMatchesObserveBatch feeds a 2-shard windowed pipeline
// one stream in runs of one packet and as one batch, and requires every
// closed window's report to be identical: a batch is split at the window
// boundaries exactly where runs of one would close them.
func TestShardedObserveMatchesObserveBatch(t *testing.T) {
	pkts := testStream(5, 20000, 7)
	at := pkts[len(pkts)-1].Ts + int64(time.Second)
	checkRunsOfOneMatchOneBatch(t, pkts, Config{Window: time.Second, Phi: 0.05, Engine: KindPerLevel}, at)
}

// TestSlidingObserveMatchesObserveBatch is the sliding-mode counterpart:
// runs of one packet and one batch give the same Snapshot at the last
// packet, where nothing splits the batch.
func TestSlidingObserveMatchesObserveBatch(t *testing.T) {
	pkts := testStream(5, 20000, 7)
	at := pkts[len(pkts)-1].Ts
	checkRunsOfOneMatchOneBatch(t, pkts, Config{Mode: ModeSliding, Window: 2 * time.Second, Phi: 0.05, Counters: 128}, at)
}

// checkRunsOfOneMatchOneBatch runs pkts through a 2-shard pipeline built
// from cfg, in runs of one and as one batch, closing with a Snapshot at
// at, and requires identical reports: every closed window's in the
// windowed mode, the Snapshot's in the others.
func checkRunsOfOneMatchOneBatch(t *testing.T, pkts []trace.Packet, cfg Config, at int64) {
	t.Helper()
	cfg.Shards = 2
	run := func(one bool) []hhh.Set {
		var sets []hhh.Set
		cfg := cfg
		if cfg.Mode == ModeWindowed {
			cfg.OnWindow = func(_, _ int64, set hhh.Set) { sets = append(sets, set) }
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if one {
			for i := range pkts {
				d.ObserveBatch(pkts[i : i+1])
			}
		} else {
			d.ObserveBatch(pkts)
		}
		if set := d.Snapshot(at); cfg.Mode != ModeWindowed {
			sets = append(sets, set)
		}
		d.Close()
		return sets
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("%v: report counts differ: %d vs %d", cfg.Mode, len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("%v report %d: runs of one %v != one batch %v", cfg.Mode, i, a[i], b[i])
		}
	}
}

// TestShardedDeterministic runs the same stream twice through an RHHH
// pipeline and requires byte-identical window reports: partitioning,
// per-shard sampling and merge order are all deterministic.
func TestShardedDeterministic(t *testing.T) {
	pkts := testStream(9, 30000, 6)
	run := func() []string {
		var sets []string
		d, err := New(Config{
			Shards: 4,
			Window: time.Second,
			Phi:    0.02,
			Engine: KindRHHH,
			Seed:   77,
			OnWindow: func(start, end int64, set hhh.Set) {
				sets = append(sets, set.String())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveBatch(pkts)
		d.Snapshot(pkts[len(pkts)-1].Ts + int64(time.Second))
		d.Close()
		return sets
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("window %d not deterministic:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestShardedWindowOrderAndSpans checks OnWindow fires once per window in
// time order with contiguous [start,end) spans, including windows closed
// only by Snapshot.
func TestShardedWindowOrderAndSpans(t *testing.T) {
	pkts := testStream(13, 8000, 5)
	width := int64(time.Second)
	var spans [][2]int64
	d, err := New(Config{
		Shards: 3,
		Window: time.Second,
		Phi:    0.05,
		Engine: KindPerLevel,
		OnWindow: func(start, end int64, set hhh.Set) {
			spans = append(spans, [2]int64{start, end})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(pkts)
	// Jump several windows past the end: empty windows must close too.
	d.Snapshot(pkts[len(pkts)-1].Ts + 3*width)
	d.Close()
	if len(spans) < 5 {
		t.Fatalf("expected at least 5 closed windows, got %d", len(spans))
	}
	for i, sp := range spans {
		if sp[1]-sp[0] != width {
			t.Errorf("window %d span %v is not one width", i, sp)
		}
		if i > 0 && sp[0] != spans[i-1][1] {
			t.Errorf("window %d start %d does not abut previous end %d", i, sp[0], spans[i-1][1])
		}
	}
}

// TestShardedIdleGap drives a stream with a long idle gap between two
// bursts: the empty windows must be reported (in order, with empty sets)
// through the coordinator fast path, and data windows on both sides must
// still merge correctly.
func TestShardedIdleGap(t *testing.T) {
	width := int64(time.Second)
	const gap = 500 // empty windows between the bursts
	var pkts []trace.Packet
	for i := 0; i < 2000; i++ { // burst A: windows 0..1
		pkts = append(pkts, trace.Packet{
			Ts: int64(i) * 2 * width / 2000, Src: addr.From4Uint32(10<<24 | uint32(i%64)), Size: 1000})
	}
	for i := 0; i < 2000; i++ { // burst B after the gap
		pkts = append(pkts, trace.Packet{
			Ts: (2+gap)*width + int64(i)*width/2000, Src: addr.From4Uint32(10<<24 | uint32(i%64)), Size: 1000})
	}
	var spans [][2]int64
	var emptySets, dataSets int
	d, err := New(Config{
		Shards: 3,
		Window: time.Second,
		Phi:    0.05,
		Engine: KindPerLevel,
		OnWindow: func(start, end int64, set hhh.Set) {
			spans = append(spans, [2]int64{start, end})
			if set.Len() == 0 {
				emptySets++
			} else {
				dataSets++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(pkts)
	last := d.Snapshot(pkts[len(pkts)-1].Ts + width)
	d.Close()
	if want := 3 + gap; len(spans) != want {
		t.Fatalf("closed %d windows, want %d", len(spans), want)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] != spans[i-1][1] {
			t.Fatalf("window %d out of order: %v after %v", i, spans[i], spans[i-1])
		}
	}
	if emptySets != gap || dataSets != 3 {
		t.Errorf("empty=%d data=%d, want %d/%d", emptySets, dataSets, gap, 3)
	}
	if last.Len() == 0 {
		t.Error("final burst window reported no HHHs")
	}
}

// TestShardedStatsConcurrent hammers Stats and SizeBytes from other
// goroutines during ingest; the race detector (CI runs go test -race)
// verifies the read paths are safe.
func TestShardedStatsConcurrent(t *testing.T) {
	pkts := testStream(17, 40000, 4)
	d, err := New(Config{
		Shards: 4,
		Window: time.Second,
		Phi:    0.05,
		Engine: KindPerLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = d.Stats()
				_ = d.SizeBytes()
			}
		}
	}()
	d.ObserveBatch(pkts)
	set := d.Snapshot(pkts[len(pkts)-1].Ts + int64(time.Second))
	close(stop)
	st := d.Stats()
	if st.Packets != int64(len(pkts)) {
		t.Errorf("stats packets %d != %d", st.Packets, len(pkts))
	}
	var shardSum int64
	for _, n := range st.ShardPackets {
		shardSum += n
	}
	if shardSum != int64(len(pkts)) {
		t.Errorf("shard packets sum %d != %d", shardSum, len(pkts))
	}
	if st.Windows == 0 || set == nil {
		t.Errorf("no windows closed (windows=%d)", st.Windows)
	}
	if st.SizeBytes <= 0 {
		t.Errorf("size bytes %d", st.SizeBytes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShardedConfigValidation pins constructor errors.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := New(Config{Phi: 0.05}); err == nil {
		t.Error("missing window accepted")
	}
	if _, err := New(Config{Window: time.Second}); err == nil {
		t.Error("missing phi accepted")
	}
	if _, err := New(Config{Window: time.Second, Phi: 1.5}); err == nil {
		t.Error("phi > 1 accepted")
	}
	if _, err := New(Config{Window: time.Second, Phi: 0.05, Engine: Kind(9)}); err == nil {
		t.Error("unknown engine accepted")
	}
	// The continuous transitions are the single driver's: a shard's are its
	// own, and the other models have none.
	onEnter := func(addr.Prefix, int64) {}
	cont := Config{Mode: ModeContinuous, Window: time.Second, Phi: 0.05, OnEnter: onEnter}
	if _, err := New(cont); err == nil {
		t.Error("New accepted OnEnter")
	}
	if _, err := NewSingle(Config{Mode: ModeSliding, Window: time.Second, Phi: 0.05, OnExit: onEnter}); err == nil {
		t.Error("sliding NewSingle accepted OnExit")
	}
	if _, err := NewSingle(cont); err != nil {
		t.Errorf("continuous NewSingle refused OnEnter: %v", err)
	}
}

// TestShardedUseAfterClose pins the lifecycle contract: ingest after
// Close is a defined no-op, with the error surfaced through
// TryObserveBatch instead of a send-on-closed-ring panic.
func TestShardedUseAfterClose(t *testing.T) {
	d, err := New(Config{Window: time.Second, Phi: 0.05, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch([]trace.Packet{{Ts: 1, Size: 100}, {Ts: 2, Size: 50}})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.TryObserveBatch([]trace.Packet{{Ts: 4, Size: 10}}); err != ErrClosed {
		t.Fatalf("TryObserveBatch after Close: got %v, want ErrClosed", err)
	}
	// The Detector-shaped methods stay callable and silently drop.
	d.ObserveBatch([]trace.Packet{{Ts: 6, Size: 100}})
	if set := d.Snapshot(int64(10 * time.Second)); set == nil {
		t.Fatal("Snapshot after Close returned nil set")
	}
	if got := d.Stats().Packets; got != 2 {
		t.Fatalf("packets after post-close drops: got %d, want 2", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestModeValidation pins the mode-specific constructor errors.
func TestModeValidation(t *testing.T) {
	if _, err := New(Config{Mode: Mode(7), Window: time.Second, Phi: 0.05}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(Config{
		Mode: ModeSliding, Window: time.Second, Phi: 0.05,
		OnWindow: func(start, end int64, set hhh.Set) {},
	}); err == nil {
		t.Error("OnWindow accepted outside ModeWindowed")
	}
	for _, m := range []Mode{ModeWindowed, ModeSliding, ModeContinuous} {
		d, err := New(Config{Mode: m, Window: time.Second, Phi: 0.05, Shards: 2})
		if err != nil {
			t.Fatalf("mode %v rejected: %v", m, err)
		}
		if got := d.Stats().Mode; got != m.String() {
			t.Errorf("stats mode %q, want %q", got, m)
		}
		d.Close()
	}
}
