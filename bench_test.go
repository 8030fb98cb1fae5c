// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus per-algorithm throughput (the implicit
// performance/resource table of Section 3). Each Fig/E benchmark runs the
// corresponding experiment end to end on a scaled-down trace per
// iteration; the cmd/ binaries print the full-scale series. End-to-end
// performance is measured by the bench/ module; what stays here are the
// offline experiments, the per-detector rows, the sharded pairs CI's
// telemetry overhead guard compares, and the ingest and merge kernels.
//
//	go test -bench=. -benchmem
package hiddenhhh

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/pipeline"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// benchTrace lazily synthesises and caches the shared benchmark trace:
// one minute of the day-0 scenario.
var benchTrace = struct {
	once sync.Once
	pkts []Packet
	span int64
}{}

func getBenchTrace(b *testing.B) ([]Packet, int64) {
	b.Helper()
	benchTrace.once.Do(func() {
		cfg := Tier1Day(0, time.Minute)
		pkts, err := GenerateTrace(cfg)
		if err != nil {
			panic(err)
		}
		benchTrace.pkts = pkts
		benchTrace.span = int64(cfg.Duration)
	})
	return benchTrace.pkts, benchTrace.span
}

// BenchmarkFig2HiddenHHH regenerates the Figure-2 analysis (hidden HHH
// percentages, disjoint vs sliding) on a one-minute trace.
func BenchmarkFig2HiddenHHH(b *testing.B) {
	pkts, span := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunHiddenHHH(pkts, HiddenHHHConfig{
			Windows: []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second},
			Phis:    []float64{0.01, 0.05, 0.10},
			Span:    span,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 9 {
			b.Fatalf("expected 9 cells, got %d", len(results))
		}
	}
}

// BenchmarkFig3WindowSensitivity regenerates the Figure-3 analysis
// (Jaccard similarity of drifting W vs W-δ tilings).
func BenchmarkFig3WindowSensitivity(b *testing.B) {
	pkts, span := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunWindowSensitivity(pkts, SensitivityConfig{
			Baseline: 10 * time.Second,
			Phi:      0.05,
			Span:     span,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 10 {
			b.Fatalf("expected 10 trims, got %d", len(results))
		}
	}
}

// BenchmarkE3Detectors regenerates the Section-3 comparison table
// (windowed vs continuous detection: accuracy, speed, state).
func BenchmarkE3Detectors(b *testing.B) {
	pkts, span := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcome, err := RunComparison(pkts, ComparisonConfig{
			Window: 10 * time.Second,
			Phi:    0.05,
			Span:   span,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(outcome.Reports) < 6 {
			b.Fatalf("expected 6 detector reports, got %d", len(outcome.Reports))
		}
	}
}

// BenchmarkE4aStepSweep regenerates the sliding-step ablation.
func BenchmarkE4aStepSweep(b *testing.B) {
	pkts, span := getBenchTrace(b)
	steps := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, step := range steps {
			if _, err := RunHiddenHHH(pkts, HiddenHHHConfig{
				Windows: []time.Duration{10 * time.Second},
				Step:    step,
				Phis:    []float64{0.05},
				Span:    span,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4bGranularity regenerates the hierarchy-granularity ablation.
func BenchmarkE4bGranularity(b *testing.B) {
	pkts, span := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []Granularity{Byte, Nibble} {
			if _, err := RunHiddenHHH(pkts, HiddenHHHConfig{
				Windows:   []time.Duration{10 * time.Second},
				Phis:      []float64{0.05},
				Span:      span,
				Hierarchy: NewHierarchy(g),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4cTDBFSweep regenerates one point of the TDBF parameter sweep
// (tau = window, mid-size filter).
func BenchmarkE4cTDBFSweep(b *testing.B) {
	pkts, span := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunComparison(pkts, ComparisonConfig{
			Window:    10 * time.Second,
			Tau:       5 * time.Second,
			Phi:       0.05,
			Span:      span,
			TDBFCells: 1 << 14,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-detector packet throughput: the "performance" column of Section 3,
// isolated from experiment scaffolding. One iteration = one packet,
// delivered in runs of benchBatch through ObserveBatch.

const benchBatch = 512

func benchDetector(b *testing.B, det Detector) {
	pkts, _ := getBenchTrace(b)
	benchRuns(b, det, pkts)
}

// benchRuns streams pkts through det in runs of benchBatch, wrapping
// around, until b.N packets have gone in.
func benchRuns(b *testing.B, det Detector, pkts []Packet) {
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		off := done % len(pkts)
		n := len(pkts) - off
		if n > benchBatch {
			n = benchBatch
		}
		if rem := b.N - done; n > rem {
			n = rem
		}
		det.ObserveBatch(pkts[off : off+n])
		done += n
	}
}

// BenchmarkDetectorWindowedExact measures the exact-map windowed detector.
func BenchmarkDetectorWindowedExact(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{Window: 10 * time.Second, Phi: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorWindowedPerLevel measures the per-level Space-Saving
// windowed detector.
func BenchmarkDetectorWindowedPerLevel(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EnginePerLevel})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorWindowedRHHH measures the RHHH windowed detector.
func BenchmarkDetectorWindowedRHHH(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EngineRHHH})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorSliding measures the frame-based (WCSS) sliding
// detector.
func BenchmarkDetectorSliding(b *testing.B) {
	det, err := NewSlidingDetector(SlidingConfig{Window: 10 * time.Second, Phi: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorSlidingMemento measures the Memento-class sliding
// detector: one aged table per level, one level sampled per packet — the
// comparison row against BenchmarkDetectorSliding's per-frame WCSS cost.
func BenchmarkDetectorSlidingMemento(b *testing.B) {
	det, err := NewSlidingDetector(SlidingConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EngineMemento, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorContinuous measures the TDBF continuous detector.
func BenchmarkDetectorContinuous(b *testing.B) {
	det, err := NewContinuousDetector(ContinuousConfig{Horizon: 10 * time.Second, Phi: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// BenchmarkDetectorContinuousSampled measures the sampled-level variant,
// which only the Section-3 comparison builds: a single-goroutine driver
// with pipeline.Config.Sampled set.
func BenchmarkDetectorContinuousSampled(b *testing.B) {
	det, err := newSingle(pipeline.Config{
		Mode: pipeline.ModeContinuous, Window: 10 * time.Second, Phi: 0.05, Sampled: true})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
}

// benchSharded measures the sharded pipeline's ingest throughput at a
// given shard count, batch-fed like the other detector benchmarks. One op
// is one packet; speedup over BenchmarkDetectorSharded1 is the parallel
// scaling factor (bounded by the machine's core count — a single-core
// runner shows ~1x regardless of shards).
func benchSharded(b *testing.B, shards int, reg *MetricsRegistry) {
	det, err := NewShardedDetector(ShardedConfig{
		Shards: shards, Window: 10 * time.Second, Phi: 0.05, Engine: EnginePerLevel,
		Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
	b.StopTimer()
	det.Close()
}

// BenchmarkDetectorSharded1 is the 1-shard pipeline baseline (pipeline
// overhead over BenchmarkDetectorWindowedPerLevel is the partition+ring
// cost).
func BenchmarkDetectorSharded1(b *testing.B) { benchSharded(b, 1, nil) }

// BenchmarkDetectorSharded4 measures 4-shard parallel ingest.
func BenchmarkDetectorSharded4(b *testing.B) { benchSharded(b, 4, nil) }

// The *Telemetry variants run the identical workload with a live
// MetricsRegistry attached (ShardedConfig.Metrics): the function-backed
// counters cost nothing on the ingest path, so the delta against the
// uninstrumented twin is the hand-off/high-water bookkeeping alone.
// CI's telemetry overhead guard holds each pair within 5%, comparing the
// minimum of five runs of each within one job.

// BenchmarkDetectorSharded1Telemetry is the instrumented 1-shard twin.
func BenchmarkDetectorSharded1Telemetry(b *testing.B) { benchSharded(b, 1, NewMetricsRegistry()) }

// BenchmarkDetectorSharded4Telemetry is the instrumented 4-shard twin.
func BenchmarkDetectorSharded4Telemetry(b *testing.B) { benchSharded(b, 4, NewMetricsRegistry()) }

// benchTrace6 lazily synthesises and caches the IPv6 benchmark trace:
// one minute of the IPv6 hit-and-run DDoS scenario.
var benchTrace6 = struct {
	once sync.Once
	pkts []Packet
}{}

func getBenchTrace6(b *testing.B) []Packet {
	b.Helper()
	benchTrace6.once.Do(func() {
		pkts, err := GenerateTrace(IPv6DDoSScenario(time.Minute, 6))
		if err != nil {
			panic(err)
		}
		benchTrace6.pkts = pkts
	})
	return benchTrace6.pkts
}

// benchDetector6 streams the IPv6 trace through det in ingest batches.
func benchDetector6(b *testing.B, det Detector) { benchRuns(b, det, getBenchTrace6(b)) }

// BenchmarkDetectorIPv6PerLevel measures the per-level windowed detector
// on the five-level IPv6 hextet ladder — the direct counterpart of
// BenchmarkDetectorWindowedPerLevel on the new hierarchy.
func BenchmarkDetectorIPv6PerLevel(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EnginePerLevel,
		Hierarchy: NewIPv6Hierarchy(Hextet)})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector6(b, det)
}

// BenchmarkDetectorIPv6RHHHNibble measures RHHH on the 17-level IPv6
// nibble lattice: the tall-hierarchy regime where its O(1) sampled
// update buys the most over PerLevel's per-level cost.
func BenchmarkDetectorIPv6RHHHNibble(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EngineRHHH,
		Hierarchy: NewIPv6Hierarchy(Nibble)})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector6(b, det)
}

// BenchmarkDetectorIPv6PerLevelNibble is PerLevel on the same 17-level
// lattice, the comparison row for the RHHH benchmark above.
func BenchmarkDetectorIPv6PerLevelNibble(b *testing.B) {
	det, err := NewWindowedDetector(WindowedConfig{
		Window: 10 * time.Second, Phi: 0.05, Engine: EnginePerLevel,
		Hierarchy: NewIPv6Hierarchy(Nibble)})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector6(b, det)
}

// BenchmarkDetectorIPv6Sharded4 measures the 4-shard pipeline over the
// IPv6 trace on the hextet ladder.
func BenchmarkDetectorIPv6Sharded4(b *testing.B) {
	det, err := NewShardedDetector(ShardedConfig{
		Shards: 4, Window: 10 * time.Second, Phi: 0.05,
		Engine: EnginePerLevel, Hierarchy: NewIPv6Hierarchy(Hextet)})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector6(b, det)
	b.StopTimer()
	det.Close()
}

// BenchmarkContinuousSharded4 measures 4-shard continuous (TDBF) ingest,
// the third window model behind the same pipeline.
func BenchmarkContinuousSharded4(b *testing.B) {
	det, err := NewShardedDetector(ShardedConfig{
		Mode: ModeContinuous, Shards: 4, Window: 10 * time.Second, Phi: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, det)
	b.StopTimer()
	det.Close()
}

// benchScenario returns span of the named internal/gen scenario.
func benchScenario(b testing.TB, name string, span time.Duration) []Packet {
	for _, sc := range gen.Scenarios(span, 24) {
		if sc.Name == name {
			pkts, err := gen.Packets(sc.Config)
			if err != nil {
				b.Fatal(err)
			}
			return pkts
		}
	}
	b.Fatalf("no scenario %q", name)
	return nil
}

// uniformSources is pkts with every source redrawn independently from the
// whole /0 — the spoofed-flood shape, where no two packets share a leaf
// and every level above /8 evicts on every update.
func uniformSources(pkts []Packet) []Packet {
	rng := rand.New(rand.NewSource(24))
	out := make([]Packet, len(pkts))
	for i := range out {
		out[i] = Packet{Ts: pkts[i].Ts, Src: addr.From4Uint32(rng.Uint32()), Size: pkts[i].Size}
	}
	return out
}

// shardBatches packs pkts under h and returns what one worker of the
// end-to-end benchmark is handed: the given shard of a 2-way hash
// partition, in 256-key batches.
func shardBatches(h addr.Hierarchy, pkts []Packet, shard int) []*trace.KeyBatch {
	all := trace.NewKeyBatch(len(pkts))
	all.AppendPackets(h, pkts)
	var batches []*trace.KeyBatch
	kb := trace.NewKeyBatch(256)
	for i, key := range all.Keys {
		if hashx.Bucket(hashx.Mix64(key), 2) != shard {
			continue
		}
		kb.Append(key, all.Sizes[i], all.Ts[i])
		if kb.Len() == 256 {
			batches = append(batches, kb)
			kb = trace.NewKeyBatch(256)
		}
	}
	return batches
}

// BenchmarkPerLevelUpdateKeys measures the per-level engine's ingest
// kernel as one worker of the end-to-end benchmark's windowed-perlevel
// workload sees it: the IPv4 nibble ladder (9 levels), 512 counters per
// level, shard 0 of a 2-way hash partition, 256-key batches, a Reset per
// pass over ten seconds of trace. ns/op is ns per packet. diurnal-tier1
// is that workload's scenario; uniform-random is the shape the coalescing
// block cannot help.
func BenchmarkPerLevelUpdateKeys(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Nibble)
	diurnal := benchScenario(b, "diurnal-tier1", 10*time.Second)
	for _, tc := range []struct {
		name string
		pkts []Packet
	}{{"diurnal-tier1", diurnal}, {"uniform-random", uniformSources(diurnal)}} {
		b.Run(tc.name, func(b *testing.B) {
			batches := shardBatches(h, tc.pkts, 0)
			eng := hhh.NewPerLevel(h, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				eng.Reset()
				for _, kb := range batches {
					eng.UpdateKeys(kb)
					if n += kb.Len(); n >= b.N {
						break
					}
				}
			}
			if eng.QueryFraction(0.01).Len() == 0 {
				b.Fatal("no HHHs")
			}
		})
	}
}

// BenchmarkSlidingUpdateKeys is the same kernel of the sliding-wcss-live
// workload: the WCSS detector on the IPv4 byte ladder (5 levels), 512
// counters per frame, a 10-second window of 8 frames, shard 0 of 2,
// 256-key batches, a fresh detector per pass over ten seconds of trace
// (built off the clock). ns/op is ns per packet. hit-and-run-ddos is that
// workload's scenario.
func BenchmarkSlidingUpdateKeys(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	ddos := benchScenario(b, "hit-and-run-ddos", 10*time.Second)
	for _, tc := range []struct {
		name string
		pkts []Packet
	}{{"hit-and-run-ddos", ddos}, {"uniform-random", uniformSources(ddos)}} {
		b.Run(tc.name, func(b *testing.B) {
			batches := shardBatches(h, tc.pkts, 0)
			var d *swhh.SlidingHHH
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				b.StopTimer()
				var err error
				if d, err = swhh.NewSlidingHHH(h, swhh.Config{Window: 10 * time.Second, Frames: 8, Counters: 512}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, kb := range batches {
					d.UpdateKeys(kb)
					if n += kb.Len(); n >= b.N {
						break
					}
				}
			}
			if d.Query(0.01, tc.pkts[len(tc.pkts)-1].Ts).Len() == 0 {
				b.Fatal("no HHHs")
			}
		})
	}
}

// TestTableUpdatesPerPacket pins what the coalescing blocks are for, as a
// count that repeats exactly: Space-Saving updates per packet on the
// batches the two kernels above are fed (shard 0 of 2, ten seconds of
// trace, 512 counters, the last block settled). The ceilings hold the
// block to the slope it was sized on; the floor says what it must not
// pretend: six of the nibble ladder's nine levels cannot coalesce
// uniformly drawn sources, whatever the block holds. The WCSS row is the
// sliding detector on the same batches: every frame end settles a
// part-filled block, so it pays more than the windowed engine does. The
// continuous rows count the leaf filter's writes per packet through the
// continuous detector's 64-packet block, on BenchmarkContinuousObserveKeys'
// geometry and scenarios: a write per distinct leaf of a block, so exactly
// one a packet where no source repeats within 64 packets.
func TestTableUpdatesPerPacket(t *testing.T) {
	nibble, bytewise := addr.NewIPv4Hierarchy(addr.Nibble), addr.NewIPv4Hierarchy(addr.Byte)
	diurnal, ddos := benchScenario(t, "diurnal-tier1", 10*time.Second), benchScenario(t, "hit-and-run-ddos", 10*time.Second)
	perLevel := func(h addr.Hierarchy, batches []*trace.KeyBatch) int64 {
		eng := hhh.NewPerLevel(h, 512)
		for _, kb := range batches {
			eng.UpdateKeys(kb)
		}
		eng.Settle()
		return eng.TableUpdates()
	}
	wcss := func(h addr.Hierarchy, batches []*trace.KeyBatch) int64 {
		d, err := swhh.NewSlidingHHH(h, swhh.Config{Window: 10 * time.Second, Frames: 8, Counters: 512})
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range batches {
			d.UpdateKeys(kb)
		}
		d.WindowTotal(ddos[len(ddos)-1].Ts) // a read applies the pending block
		return d.TableUpdates()
	}
	leafWrites := func(h addr.Hierarchy, batches []*trace.KeyBatch) int64 {
		d, err := continuous.NewDetector(continuous.Config{Hierarchy: h, Phi: 0.05,
			Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: 10 * time.Second}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range batches {
			d.ObserveKeys(kb)
		}
		return d.State().Filters[0].Adds() // State settles the last block
	}
	zipf := benchScenario(t, "zipf-steady", 10*time.Second)
	for _, tc := range []struct {
		name     string
		h        addr.Hierarchy
		pkts     []Packet
		updates  func(addr.Hierarchy, []*trace.KeyBatch) int64
		min, max float64
	}{
		{"perlevel/nibble/diurnal-tier1", nibble, diurnal, perLevel, 0, 0.40},
		{"perlevel/byte/hit-and-run-ddos", bytewise, ddos, perLevel, 0, 0.20},
		{"wcss/byte/hit-and-run-ddos", bytewise, ddos, wcss, 0, 0.25},
		{"perlevel/nibble/uniform-random", nibble, uniformSources(diurnal), perLevel, 6.0, 9},
		{"continuous/byte/zipf-steady", bytewise, zipf, leafWrites, 0, 0.75},
		{"continuous/byte/uniform-random", bytewise, uniformSources(zipf), leafWrites, 1, 1},
	} {
		batches, pkts := shardBatches(tc.h, tc.pkts, 0), 0
		for _, kb := range batches {
			pkts += kb.Len()
		}
		per := float64(tc.updates(tc.h, batches)) / float64(pkts)
		t.Logf("%-31s %d packets, %.3f table updates a packet", tc.name, pkts, per)
		if per < tc.min || per > tc.max {
			t.Errorf("%s: %.3f table updates a packet, want within [%.2f, %.2f]", tc.name, per, tc.min, tc.max)
		}
	}
}

// BenchmarkContinuousObserveKeys is the same kernel of the continuous-decay
// workload: the windowless detector on the IPv4 byte ladder (5 levels),
// 65 536 × 4 filters, tau 10 s, φ 0.05, shard 0 of 2 in 256-key batches —
// dealt alternately to two detectors, so that two filter sets share the
// cache as two workers on one processor do. The detectors are built and
// fed the whole trace once; each pass Resets them, which keeps their
// storage (the timed half grows no pool), feeds them the first ten of
// twenty seconds of trace off the clock — the warm-up, one τ, in which
// nothing is admitted — then times the second ten, where every packet
// runs the admission check. ns/op is ns per packet, state-B the bytes one
// of the two detectors holds at the end. zipf-steady is that workload's
// scenario.
func BenchmarkContinuousObserveKeys(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	zipf := benchScenario(b, "zipf-steady", 20*time.Second)
	for _, tc := range []struct {
		name string
		pkts []Packet
	}{{"zipf-steady", zipf}, {"uniform-random", uniformSources(zipf)}} {
		b.Run(tc.name, func(b *testing.B) {
			batches := shardBatches(h, tc.pkts, 0)
			warm := sort.Search(len(batches), func(i int) bool { return batches[i].Ts[0] >= int64(10*time.Second) })
			var ds [2]*continuous.Detector
			for i := range ds {
				var err error
				if ds[i], err = continuous.NewDetector(continuous.Config{Hierarchy: h, Phi: 0.05,
					Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: 10 * time.Second}}}); err != nil {
					b.Fatal(err)
				}
			}
			for i, kb := range batches { // grow the pools off the clock
				ds[i&1].ObserveKeys(kb)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				b.StopTimer()
				for _, d := range ds {
					d.Reset()
				}
				for i, kb := range batches[:warm] {
					ds[i&1].ObserveKeys(kb)
				}
				b.StartTimer()
				for i := warm; i < len(batches); i++ {
					ds[i&1].ObserveKeys(batches[i])
					if n += batches[i].Len(); n >= b.N {
						break
					}
				}
			}
			if ds[0].ActiveLen()+ds[1].ActiveLen() == 0 {
				b.Fatal("no prefix admitted: the timed packets ran no admission")
			}
			b.ReportMetric(float64(ds[0].SizeBytes()), "state-B")
		})
	}
}

// TestContinuousFootprint pins what a continuous detector in the
// continuous-decay workload's shape (BenchmarkContinuousObserveKeys') holds
// after ten seconds of shard 0: the bytes are deterministic. Its filters
// hold the lines their traffic touched — on zipf-steady under 0.35 of
// dense, the bytes of the same detector were each filter to hold all its
// cells, and with every source drawn uniformly, which leaves every line of
// the big levels held, under 1.07 of it.
func TestContinuousFootprint(t *testing.T) {
	const dense = 1_579_496
	h := addr.NewIPv4Hierarchy(addr.Byte)
	zipf := benchScenario(t, "zipf-steady", 10*time.Second)
	for _, tc := range []struct {
		name  string
		pkts  []Packet
		bytes int
		ratio float64
	}{{"zipf-steady", zipf, 466_780, 0.35}, {"uniform-random", uniformSources(zipf), 1_675_164, 1.07}} {
		d, err := continuous.NewDetector(continuous.Config{Hierarchy: h, Phi: 0.05,
			Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: 10 * time.Second}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, kb := range shardBatches(h, tc.pkts, 0) {
			d.ObserveKeys(kb)
		}
		got := d.SizeBytes()
		t.Logf("%-14s %9d B, %.3f of dense", tc.name, got, float64(got)/dense)
		if got != tc.bytes || float64(got) > tc.ratio*dense {
			t.Errorf("%s: %d B, want %d (at most %.2f of %d)", tc.name, got, tc.bytes, tc.ratio, dense)
		}
	}
}

// BenchmarkContinuousSnapshot measures what a continuous-decay snapshot
// costs past the ring drain, on the state it folds: two shard detectors in
// that workload's shape (the IPv4 byte ladder, 65 536 × 4 filters, τ 10 s,
// φ 0.05), fed shards 0 and 1 of thirty seconds of zipf-steady. fold is
// the barrier's accumulator Reset and its two Merges, seal the merged
// detector's EncodeContinuous, restore an Aggregator's Verify and
// RestoreContinuous of that frame into the detector it retains. ns/op is
// ns per snapshot; state-B is what the accumulator (fold) and the retained
// detector (restore) hold.
func BenchmarkContinuousSnapshot(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := continuous.Config{Hierarchy: h, Phi: 0.05,
		Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: 10 * time.Second}}}
	pkts := benchScenario(b, "zipf-steady", 30*time.Second)
	var shards [2]*continuous.Detector
	mk := func() *continuous.Detector {
		d, err := continuous.NewDetector(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	for i := range shards {
		shards[i] = mk()
		for _, kb := range shardBatches(h, pkts, i) {
			shards[i].ObserveKeys(kb)
		}
	}
	acc, kept := mk(), mk()
	fold := func() {
		acc.Reset()
		acc.Merge(shards[0])
		acc.Merge(shards[1])
	}
	fold()
	frame := wire.EncodeContinuous(acc)
	b.Run("fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fold()
		}
		b.ReportMetric(float64(acc.SizeBytes()), "state-B")
	})
	b.Run("seal", func(b *testing.B) {
		b.ReportMetric(float64(len(frame)), "frame-B")
		for i := 0; i < b.N; i++ {
			wire.EncodeContinuous(acc)
		}
	})
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := wire.Verify(frame)
			if err == nil {
				_, err = f.RestoreContinuous(kept)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(kept.SizeBytes()), "state-B")
	})
}

// BenchmarkSpaceSavingMerge measures one K-way Space-Saving merge as a
// barrier or an Aggregator round runs it per table: K 512-counter
// summaries of the hash-partitioned leaf keys of diurnal-tier1 (ten
// seconds, byte ladder) into an empty 512-counter accumulator, the merge's
// scratch taken from its pool. ns/op is ns per merge.
func BenchmarkSpaceSavingMerge(b *testing.B) {
	all := trace.NewKeyBatch(0)
	all.AppendPackets(addr.NewIPv4Hierarchy(addr.Byte), benchScenario(b, "diurnal-tier1", 10*time.Second))
	for _, K := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%d-way", K), func(b *testing.B) {
			shards := make([]*sketch.SpaceSaving, K)
			for i := range shards {
				shards[i] = sketch.NewSpaceSaving(512)
			}
			for i, key := range all.Keys {
				shards[hashx.Bucket(hashx.Mix64(key), K)].Update(key, int64(all.Sizes[i]))
			}
			acc := sketch.NewSpaceSaving(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset()
				acc.MergeAll(shards)
			}
			if acc.Len() != 512 {
				b.Fatalf("merged summary holds %d entries", acc.Len())
			}
		})
	}
}

// BenchmarkTraceGeneration measures synthetic trace throughput
// (packets/op via b.N packets).
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := DefaultTraceConfig()
	cfg.Duration = 30 * time.Second
	cfg.MeanPacketRate = 5000
	b.ReportAllocs()
	var p Packet
	n := 0
	for n < b.N {
		src, err := NewTraceSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for n < b.N {
			if err := src.Next(&p); err != nil {
				break
			}
			n++
		}
		cfg.Seed++
	}
}

// BenchmarkExactHHHWindow measures the exact HHH computation over one
// realistic 10-second window aggregate — the inner loop of every offline
// analysis.
func BenchmarkExactHHHWindow(b *testing.B) {
	pkts, _ := getBenchTrace(b)
	counts := map[Addr]int64{}
	var total int64
	for i := range pkts {
		if pkts[i].Ts >= int64(10*time.Second) {
			break
		}
		counts[pkts[i].Src] += int64(pkts[i].Size)
		total += int64(pkts[i].Size)
	}
	h := NewHierarchy(Byte)
	T := Threshold(total, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := ExactHHH(counts, h, T); set.Len() == 0 {
			b.Fatal("no HHHs")
		}
	}
}
