package hiddenhhh

import (
	"hiddenhhh/internal/addr"

	"fmt"
	"math/rand"
	"testing"
	"time"
)

// propStream synthesises a random weighted stream: skewed sources drawn
// from a hierarchical address space, packet-like sizes, fixed span. The
// resulting HHH sets are dominated by clearly-heavy prefixes.
func propStream(seed int64, n int, spanSec int) []Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Packet, n)
	step := int64(spanSec) * int64(time.Second) / int64(n)
	for i := range out {
		org := uint32(rng.Intn(7))
		net := uint32(float64(220) * rng.Float64() * rng.Float64())
		host := uint32(rng.Intn(60))
		out[i] = Packet{
			Ts:   int64(i) * step,
			Src:  addr.From4Uint32(10<<24 | org<<16 | net<<8 | host),
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	return out
}

// nearThresholdStream stacks many /24 subnets whose per-window share
// clusters around phi, over scattered background noise — the adversarial
// regime where set membership is decided inside the sketch error bound.
func nearThresholdStream(seed int64, n int, spanSec int) []Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Packet, n)
	step := int64(spanSec) * int64(time.Second) / int64(n)
	for i := range out {
		var src uint32
		sub := uint32(rng.Intn(40))
		// Ramp subnet intensity with rank so the population straddles the
		// threshold; the rest of the mass is background /16 noise.
		if rng.Float64() < 0.75 && rng.Float64() <= 0.3+1.2*float64(sub)/40 {
			src = 10<<24 | (sub/16)<<16 | (sub%16+1)<<8 | uint32(rng.Intn(200))
		} else {
			src = 172<<24 | uint32(rng.Intn(1<<16))
		}
		out[i] = Packet{Ts: int64(i) * step, Src: addr.From4Uint32(src), Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// reports feeds pkts to the detector cfg describes — a single detector
// with shards 0, else a shards-way pipeline — and returns its reports:
// every closed window's set, through OnWindow, in ModeWindowed; otherwise
// a Snapshot at a third, two thirds and the end of the stream, each taken
// as ingest passes it, while mass is still live.
func reports(t *testing.T, cfg ShardedConfig, shards int, pkts []Packet) []Set {
	t.Helper()
	var out []Set
	last := pkts[len(pkts)-1].Ts
	at := []int64{last / 3, 2 * last / 3, last}
	if cfg.Mode == ModeWindowed {
		cfg.OnWindow = func(_, _ int64, set Set) { out = append(out, set) }
		at = []int64{last + int64(time.Second)} // closes the last window
	}
	var det Detector
	var err error
	switch {
	case shards > 0:
		cfg.Shards = shards
		det, err = NewShardedDetector(cfg)
	case cfg.Mode == ModeSliding:
		det, err = NewSlidingDetector(SlidingConfig{Window: cfg.Window, Phi: cfg.Phi, Engine: cfg.Engine, Counters: cfg.Counters, Seed: cfg.Seed})
	case cfg.Mode == ModeContinuous:
		det, err = NewContinuousDetector(ContinuousConfig{Horizon: cfg.Window, Phi: cfg.Phi})
	default:
		det, err = NewWindowedDetector(WindowedConfig{Window: cfg.Window, Phi: cfg.Phi, Engine: cfg.Engine, Counters: cfg.Counters, Seed: cfg.Seed, OnWindow: cfg.OnWindow})
	}
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, ts := range at {
		j := i
		for j < len(pkts) && pkts[j].Ts <= ts {
			j++
		}
		det.ObserveBatch(pkts[i:j])
		if set := det.Snapshot(ts); cfg.Mode != ModeWindowed {
			out = append(out, set)
		}
		i = j
	}
	if c, ok := det.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireSameSets asserts byte-identical reports (prefixes and counts).
func requireSameSets(t *testing.T, name string, got, want []Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s report %d: sets differ:\n got %v\nwant %v", name, i, got[i], want[i])
		}
		for p, it := range want[i] {
			if g := got[i][p]; g.Count != it.Count || g.Conditioned != it.Conditioned {
				t.Errorf("%s report %d %v: got %+v want %+v", name, i, p, g, it)
			}
		}
	}
}

// setMass lower-bounds the covered stream mass from a report: the /0 root
// subtree estimate when present, else the summed conditioned volumes.
// Precise enough to scale comparison margins.
func setMass(s Set) int64 {
	var sum int64
	for p, it := range s {
		if p.Bits == 0 {
			return it.Count
		}
		sum += it.Conditioned
	}
	return sum
}

// TestShardedMatchesSingleProperty is the shard-vs-single equivalence
// property, a row per window model, engine and stream, each over seeds 1–3:
// a K-shard pipeline's merged reports match the single detector's. K=1
// must be byte-identical — the merge is then a copy, and the shard-0 seed
// is the configured Seed. For K>1 every item in one view only must be
// borderline: its conditioned count may clear the threshold T of its
// report's mass N by no more than the row's margin.
//
//   - Space-Saving engines: the shards hash-partition the stream, so the
//     summed per-shard bounds (ΣNᵢ/k, per window or per frame) telescope to
//     the single-engine N/k; the margin allows 4N/k for error compounding
//     through the conditioned pass. N is the exact window volume for a
//     windowed row, a lower bound read off the single report (setMass) for
//     the others.
//   - Level sampling adds its variance: 2 % of N for RHHH, 15 % for Memento
//     (its envelope in TestOracleDifferentialSlidingMemento). RHHH runs on
//     the dominant-hitter stream only: near the threshold its sampling noise
//     flips borderline descendants, which moves ancestors' conditioned
//     volumes by whole multiples of T — conditioned semantics under a
//     randomised engine, not the sharded merge.
//   - Continuous: merged filters are cell-wise sums under identical seeds,
//     so estimates agree to floating point and only the active sets differ,
//     shards admitting against shard-local mass. An item in one view only
//     may clear T by at most 30 %; decisive HHHs cross every shard's
//     threshold.
func TestShardedMatchesSingleProperty(t *testing.T) {
	const (
		counters = 64
		phi      = 0.02
	)
	windowed := func(e Engine) ShardedConfig {
		return ShardedConfig{Window: 3 * time.Second, Phi: phi, Engine: e, Counters: counters, Seed: 42}
	}
	wcss := ShardedConfig{Mode: ModeSliding, Window: 2 * time.Second, Phi: phi, Counters: counters}
	memento := ShardedConfig{Mode: ModeSliding, Window: 2 * time.Second, Phi: phi, Counters: counters, Engine: EngineMemento, Seed: 7}
	continuous := ShardedConfig{Mode: ModeContinuous, Window: 2 * time.Second, Phi: phi}
	sketch := func(sampling float64) func(N, T int64) float64 {
		return func(N, _ int64) float64 { return (4/float64(counters) + sampling) * float64(N) }
	}
	rows := []struct {
		name   string
		cfg    ShardedConfig
		stream func(seed int64, n, spanSec int) []Packet
		ks     []int
		margin func(N, T int64) float64
	}{
		{"perlevel", windowed(EnginePerLevel), propStream, []int{1, 2, 4, 8}, sketch(0)},
		{"perlevel-near-threshold", windowed(EnginePerLevel), nearThresholdStream, []int{1, 2, 4, 8}, sketch(0)},
		{"rhhh", windowed(EngineRHHH), propStream, []int{1, 2, 4, 8}, sketch(0.02)},
		{"sliding-wcss", wcss, propStream, []int{1, 2, 4}, sketch(0)},
		{"sliding-wcss-near-threshold", wcss, nearThresholdStream, []int{1, 2, 4}, sketch(0)},
		{"sliding-memento", memento, propStream, []int{1, 2, 4, 8}, sketch(0.15)},
		{"continuous", continuous, propStream, []int{1, 2, 4}, func(_, T int64) float64 { return 0.3 * float64(T) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				pkts := row.stream(seed, 80000, 9)
				want := reports(t, row.cfg, 0, pkts)
				for _, K := range row.ks {
					name := fmt.Sprintf("seed=%d/K=%d", seed, K)
					got := reports(t, row.cfg, K, pkts)
					if K == 1 {
						requireSameSets(t, name, got, want)
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d reports, single %d", name, len(got), len(want))
					}
					for i := range want {
						N := setMass(want[i])
						if row.cfg.Mode == ModeWindowed {
							N = windowVolume(pkts, row.cfg.Window, i)
						}
						T := Threshold(N, phi)
						for _, d := range []struct {
							label    string
							from, to Set
						}{
							{"single-only", want[i], got[i]},
							{"sharded-only", got[i], want[i]},
						} {
							for p, it := range d.from.Diff(d.to) {
								if margin := row.margin(N, T); float64(it.Conditioned-T) > margin {
									t.Errorf("%s report %d %s: %v cond=%d clears T=%d by %d > margin %.0f",
										name, i, d.label, p, it.Conditioned, T, it.Conditioned-T, margin)
								}
							}
						}
					}
				}
			}
		})
	}
}

// windowVolume is the byte volume of the i-th window of width w.
func windowVolume(pkts []Packet, w time.Duration, i int) int64 {
	var n int64
	for _, p := range pkts {
		if p.Ts/int64(w) == int64(i) {
			n += int64(p.Size)
		}
	}
	return n
}

// TestShardedExactEngineLossless checks that with the exact engine the
// sharded detector reproduces the single-threaded windowed detector's
// reports verbatim for every shard count — exact maps merge losslessly,
// so any disagreement is a pipeline bug, not sketch error.
func TestShardedExactEngineLossless(t *testing.T) {
	pkts := propStream(11, 30000, 6)
	cfg := ShardedConfig{Window: 2 * time.Second, Phi: 0.03, Engine: EngineExact}
	single := reports(t, cfg, 0, pkts)
	for _, K := range []int{1, 2, 4, 8} {
		requireSameSets(t, fmt.Sprintf("K=%d", K), reports(t, cfg, K, pkts), single)
	}
}

// TestShardedDetectorSurface exercises the public ShardedDetector surface
// end to end on generated Tier-1 traffic: snapshot semantics, stats
// accounting and lifecycle.
func TestShardedDetectorSurface(t *testing.T) {
	cfg := Tier1Day(0, 20*time.Second)
	pkts, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewShardedDetector(ShardedConfig{
		Shards: 4,
		Window: 5 * time.Second,
		Phi:    0.05,
		Engine: EnginePerLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	var det2 Detector = det // must satisfy the uniform Detector interface
	det2.ObserveBatch(pkts)
	set := det2.Snapshot(int64(cfg.Duration))
	if set.Len() == 0 {
		t.Error("no HHHs reported on Tier-1 traffic")
	}
	if det2.SizeBytes() <= 0 {
		t.Error("non-positive SizeBytes")
	}
	st := det.Stats()
	if st.Packets != int64(len(pkts)) {
		t.Errorf("stats packets %d != trace %d", st.Packets, len(pkts))
	}
	if st.Windows < 3 {
		t.Errorf("expected >= 3 closed windows, got %d", st.Windows)
	}
	if st.Engine != "perlevel" {
		t.Errorf("stats engine %q", st.Engine)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
}
