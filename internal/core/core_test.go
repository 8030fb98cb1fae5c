package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/trace"
)

// testTrace builds a small but realistic trace once per test binary.
func testTrace(t testing.TB, seconds int, seed int64) ([]trace.Packet, int64) {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.Duration = time.Duration(seconds) * time.Second
	cfg.Seed = seed
	cfg.MeanPacketRate = 2000
	cfg.Flows = 600
	pkts, err := gen.Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pkts, int64(cfg.Duration)
}

// plantBurst injects a heavy burst from one source centred on `at`,
// sending `pps` packets/second of 1000 B for `dur`.
func plantBurst(pkts []trace.Packet, src addr.Addr, at, dur time.Duration, pps int) []trace.Packet {
	start := at - dur/2
	n := int(dur.Seconds() * float64(pps))
	burst := make([]trace.Packet, n)
	for i := range burst {
		burst[i] = trace.Packet{
			Ts:    int64(start) + int64(dur)*int64(i)/int64(n),
			Src:   src,
			Dst:   addr.MustParseAddr("198.51.100.1"),
			Proto: trace.ProtoUDP,
			Size:  1000,
		}
	}
	merged := append(append([]trace.Packet(nil), pkts...), burst...)
	trace.SortByTime(merged)
	return merged
}

func TestHiddenHHHBasicInvariants(t *testing.T) {
	pkts, span := testTrace(t, 30, 1)
	results, err := HiddenHHH(pkts, HiddenHHHConfig{
		Windows: []time.Duration{5 * time.Second, 10 * time.Second},
		Phis:    []float64{0.01, 0.05, 0.10},
		Span:    span,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for _, r := range results {
		if r.DisjointDistinct > r.SlidingDistinct {
			t.Errorf("%v phi=%v: disjoint %d > sliding %d — D must be ⊆ S",
				r.Window, r.Phi, r.DisjointDistinct, r.SlidingDistinct)
		}
		if r.HiddenDistinct != r.SlidingDistinct-r.DisjointDistinct {
			t.Errorf("hidden count inconsistent: %+v", r)
		}
		if r.HiddenPct < 0 || r.HiddenPct > 100 {
			t.Errorf("hidden%% out of range: %v", r.HiddenPct)
		}
		if r.SlidingInstances < r.DisjointInstances {
			t.Errorf("instance counts inconsistent: %+v", r)
		}
		if r.HiddenSet.Len() != r.HiddenDistinct {
			t.Errorf("hidden set size mismatch")
		}
		if r.SlidingDistinct == 0 {
			t.Errorf("%v phi=%v: no HHHs at all — trace too thin", r.Window, r.Phi)
		}
	}
}

func TestHiddenHHHFindsPlantedBoundaryBurst(t *testing.T) {
	// A 2 s burst centred exactly on the 10 s window boundary splits
	// into ~1.1 MB halves: ~7% of each disjoint window's ~15 MB (below
	// the 10% threshold) but ~15% of the sliding window that contains
	// the whole burst. The burst source must therefore appear among the
	// hidden HHHs.
	pkts, span := testTrace(t, 30, 2)
	attacker := addr.MustParseAddr("66.77.88.99")
	pkts = plantBurst(pkts, attacker, 10*time.Second, 2*time.Second, 1100)

	results, err := HiddenHHH(pkts, HiddenHHHConfig{
		Windows: []time.Duration{10 * time.Second},
		Phis:    []float64{0.10},
		Span:    span,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.HiddenSet.Contains(addr.Host(attacker)) {
		t.Fatalf("planted boundary burst not among hidden HHHs; hidden=%v sliding=%d disjoint=%d",
			r.HiddenSet, r.SlidingDistinct, r.DisjointDistinct)
	}
}

func TestHiddenHHHStepMustDivideWindow(t *testing.T) {
	pkts, span := testTrace(t, 10, 3)
	_, err := HiddenHHH(pkts, HiddenHHHConfig{
		Windows: []time.Duration{5 * time.Second},
		Step:    1500 * time.Millisecond,
		Span:    span,
	})
	if err == nil {
		t.Fatal("non-dividing step should fail")
	}
}

func TestRenderHiddenHHH(t *testing.T) {
	pkts, span := testTrace(t, 15, 4)
	results, err := HiddenHHH(pkts, HiddenHHHConfig{
		Windows: []time.Duration{5 * time.Second},
		Phis:    []float64{0.05},
		Span:    span,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderHiddenHHH(results)
	if !strings.Contains(out, "hidden%") || !strings.Contains(out, "5s") {
		t.Errorf("render output missing fields:\n%s", out)
	}
}

func TestWindowSensitivityInvariants(t *testing.T) {
	pkts, span := testTrace(t, 60, 5)
	results, err := WindowSensitivity(pkts, SensitivityConfig{
		Baseline: 10 * time.Second,
		Trims:    []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond},
		Phi:      0.05,
		Span:     span,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Pairs != 6 { // 60 s / 10 s baseline windows
			t.Errorf("trim %v: %d pairs, want 6", r.Trim, r.Pairs)
		}
		if r.Jaccard.Min() < 0 || r.Jaccard.Max() > 1 {
			t.Errorf("trim %v: Jaccard outside [0,1]", r.Trim)
		}
		if i > 0 && results[i-1].Trim >= r.Trim {
			t.Error("results not ordered by trim")
		}
		df := r.DissimilarFraction(0.11)
		if df < 0 || df > 1 {
			t.Errorf("DissimilarFraction out of range: %v", df)
		}
	}
	// Larger trims cannot be *more* similar on average than a 10 ms trim
	// by a large margin; check weak monotonicity of means with slack.
	if results[2].Jaccard.Mean() > results[0].Jaccard.Mean()+0.05 {
		t.Errorf("100 ms trim (J=%.3f) much more similar than 10 ms (J=%.3f)",
			results[2].Jaccard.Mean(), results[0].Jaccard.Mean())
	}
}

func TestWindowSensitivityZeroEffectOnQuietTail(t *testing.T) {
	// If the trace has no packets in any window tail, every variant
	// equals the baseline and all Jaccards are exactly 1.
	var pkts []trace.Packet
	for w := 0; w < 3; w++ {
		base := int64(w) * int64(time.Second)
		for i := 0; i < 100; i++ {
			pkts = append(pkts, trace.Packet{
				Ts:   base + int64(i)*int64(time.Millisecond), // first 100 ms only
				Src:  addr.From4Uint32(0x0a000000 + uint32(i%7)),
				Size: 1000,
			})
		}
	}
	results, err := WindowSensitivity(pkts, SensitivityConfig{
		Baseline: time.Second,
		Trims:    []time.Duration{50 * time.Millisecond},
		Phi:      0.05,
		Span:     int64(3 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Jaccard.Min() != 1 {
		t.Errorf("quiet tails should give Jaccard 1, got min %v", results[0].Jaccard.Min())
	}
}

func TestWindowSensitivityEmptySpan(t *testing.T) {
	_, err := WindowSensitivity(nil, SensitivityConfig{
		Baseline: 10 * time.Second,
		Span:     int64(time.Second), // shorter than baseline
	})
	if err == nil {
		t.Fatal("span shorter than baseline should fail")
	}
}

func TestRenderSensitivity(t *testing.T) {
	pkts, span := testTrace(t, 30, 6)
	results, err := WindowSensitivity(pkts, SensitivityConfig{
		Baseline: 10 * time.Second,
		Trims:    []time.Duration{100 * time.Millisecond},
		Span:     span,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSensitivity(results)
	if !strings.Contains(out, "100ms") || !strings.Contains(out, "frac") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

func TestContinuousComparison(t *testing.T) {
	pkts, span := testTrace(t, 40, 7)
	attacker := addr.MustParseAddr("66.77.88.99")
	pkts = plantBurst(pkts, attacker, 20*time.Second, 2*time.Second, 1500)

	outcome, err := ContinuousComparison(pkts, ComparisonConfig{
		Window: 10 * time.Second,
		Phi:    0.05,
		Span:   span,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.GroundTruth.Len() == 0 {
		t.Fatal("empty ground truth")
	}
	byName := map[string]DetectorReport{}
	for _, r := range outcome.Reports {
		byName[r.Name] = r
		if r.Recall < 0 || r.Recall > 1 || r.Precision < 0 || r.Precision > 1 {
			t.Errorf("%s: scores out of range: %+v", r.Name, r)
		}
		if r.Packets == 0 {
			t.Errorf("%s: zero packets", r.Name)
		}
		if r.StateBytes <= 0 {
			t.Errorf("%s: non-positive state", r.Name)
		}
	}
	for _, want := range []string{"sliding-exact", "disjoint-exact",
		"disjoint-perlevel", "disjoint-rhhh", "continuous-tdbf", "continuous-sampled"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing detector %q", want)
		}
	}
	se := byName["sliding-exact"]
	if se.Recall != 1 || se.Precision != 1 {
		t.Errorf("sliding-exact should be perfect against itself: %+v", se)
	}
	de := byName["disjoint-exact"]
	if outcome.Hidden.Len() > 0 && de.HiddenRecall != 0 {
		t.Errorf("disjoint-exact hidden recall must be 0 by construction, got %v", de.HiddenRecall)
	}
	ct := byName["continuous-tdbf"]
	if outcome.Hidden.Len() > 0 && ct.HiddenRecall <= de.HiddenRecall {
		t.Errorf("continuous detector should recover hidden HHHs: %v vs %v",
			ct.HiddenRecall, de.HiddenRecall)
	}
	if ct.Recall < 0.5 {
		t.Errorf("continuous recall suspiciously low: %v", ct.Recall)
	}
	out := RenderComparison(outcome)
	if !strings.Contains(out, "continuous-tdbf") || !strings.Contains(out, "hidden") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

// TestContinuousComparisonIPv6 is the regression test for the ground
// truth's key: it must be aggregated on the configured hierarchy, not on
// the walker's default IPv4 byte ladder — on which an all-IPv6 trace is
// filtered out whole, the truth is empty and every detector row scores
// recall 0, precision 0.
func TestContinuousComparisonIPv6(t *testing.T) {
	pkts, err := gen.Packets(gen.IPv6HitAndRunScenario(30*time.Second, 1))
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := ContinuousComparison(pkts, ComparisonConfig{
		Hierarchy: addr.NewIPv6Hierarchy(addr.Hextet),
		Span:      int64(30 * time.Second),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.GroundTruth.Len() == 0 || outcome.Hidden.Len() == 0 {
		t.Fatalf("ground truth %d, hidden %d: want both non-empty",
			outcome.GroundTruth.Len(), outcome.Hidden.Len())
	}
	for p := range outcome.GroundTruth {
		if p.Addr.Is4() {
			t.Errorf("IPv4 prefix %v in the truth of an IPv6 hierarchy", p)
		}
	}
	for _, r := range outcome.Reports {
		if r.Name == "sliding-exact" && (r.Recall != 1 || r.Precision != 1) {
			t.Errorf("sliding-exact should be perfect against itself: %+v", r)
		}
		if r.Name == "disjoint-exact" && r.HiddenRecall != 0 {
			t.Errorf("disjoint-exact hidden recall must be 0 by construction, got %v", r.HiddenRecall)
		}
	}
}

// TestSensitivityConfigRules holds both Figure-3 analyses to one input
// rule, and both to the configured order of their rows.
func TestSensitivityConfigRules(t *testing.T) {
	pkts, span := testTrace(t, 20, 9)
	ms := time.Millisecond
	analyses := map[string]func([]trace.Packet, SensitivityConfig) ([]SensitivityResult, error){
		"WindowSensitivity": WindowSensitivity, "TailTrimSensitivity": TailTrimSensitivity,
	}
	bad := map[string]SensitivityConfig{
		"span shorter than the baseline": {Baseline: 30 * time.Second, Span: span},
		"zero trim":                      {Trims: []time.Duration{10 * ms, 0}, Span: span},
		"negative trim":                  {Trims: []time.Duration{-ms}, Span: span},
		"trim equal to the baseline":     {Trims: []time.Duration{10 * time.Second}, Span: span},
		"trim past the baseline":         {Trims: []time.Duration{11 * time.Second}, Span: span},
		"duplicate trim":                 {Trims: []time.Duration{10 * ms, 20 * ms, 10 * ms}, Span: span},
	}
	for name, analyse := range analyses {
		for row, cfg := range bad {
			if _, err := analyse(pkts, cfg); err == nil {
				t.Errorf("%s accepts a %s", name, row)
			}
		}
		trims := []time.Duration{40 * ms, 10 * ms, 20 * ms}
		results, err := analyse(pkts, SensitivityConfig{Trims: trims, Span: span})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j, r := range results {
			if r.Trim != trims[j] {
				t.Errorf("%s: row %d is trim %v, want the configured %v", name, j, r.Trim, trims[j])
			}
		}
	}
}

// TestTailTrimSensitivityMatchesRecount holds the one-cursor tail walk to
// the oracle's own exact sets, recomputed per window and trim.
func TestTailTrimSensitivityMatchesRecount(t *testing.T) {
	pkts, span := testTrace(t, 30, 10)
	trims := []time.Duration{10 * time.Millisecond, 500 * time.Millisecond, 100 * time.Millisecond}
	const phi, w = 0.05, int64(5 * time.Second)
	results, err := TailTrimSensitivity(pkts, SensitivityConfig{
		Baseline: time.Duration(w), Trims: trims, Phi: phi, Span: span,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.FromTrace(addr.Hierarchy{}, pkts)
	for j, d := range trims {
		var want metrics.Dist
		pairs := 0
		for lo := int64(0); lo+w <= span; lo += w {
			base, _ := o.WindowSet(lo, lo+w, phi)
			variant, _ := o.WindowSet(lo, lo+w-int64(d), phi)
			want.Observe(base.Jaccard(variant))
			pairs++
		}
		// Min sorts both, so the comparison is of the sample multisets.
		got := results[j].Jaccard
		got.Min()
		want.Min()
		if !reflect.DeepEqual(got, &want) || results[j].Pairs != pairs {
			t.Errorf("trim %v: %d pairs, mean %v; want %d, mean %v", d, results[j].Pairs, got.Mean(), pairs, want.Mean())
		}
	}
}
