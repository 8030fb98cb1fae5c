package core

import (
	"fmt"
	"sort"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/trace"
)

// SensitivityConfig parameterises the Figure-3 experiment: the trace is
// tiled by disjoint windows of the baseline width and, in parallel, by
// windows 10–100 ms shorter, all series starting at the trace origin. The
// k-th windows of each pair of series are compared by the Jaccard
// similarity of their HHH sets, for as long as they still overlap — a
// window-length error of δ compounds into a phase drift of k·δ by the
// k-th window, which is how micro variations in window size lead to
// macroscopically different reports.
type SensitivityConfig struct {
	// Baseline window length (the paper uses 10 s).
	Baseline time.Duration
	// Trims are the reductions applied to the baseline width (the paper
	// uses 10..100 ms in 10 ms steps). Defaults to exactly that.
	Trims []time.Duration
	// Phi is the HHH threshold fraction (the paper uses 5%).
	Phi float64
	// Span is the analysed trace duration (the paper uses 20 minutes).
	Span int64
	// Hierarchy is the prefix lattice the analysis runs over. Defaults
	// to the IPv4 byte ladder.
	Hierarchy addr.Hierarchy
}

func (c *SensitivityConfig) setDefaults() {
	if c.Baseline == 0 {
		c.Baseline = 10 * time.Second
	}
	if len(c.Trims) == 0 {
		for d := 10 * time.Millisecond; d <= 100*time.Millisecond; d += 10 * time.Millisecond {
			c.Trims = append(c.Trims, d)
		}
	}
	if c.Phi == 0 {
		c.Phi = 0.05
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
}

// validate holds both Figure-3 analyses to one rule: the span fits a
// baseline window, and every trim is distinct and shortens the baseline
// without emptying it.
func (c *SensitivityConfig) validate() error {
	if c.Span < int64(c.Baseline) {
		return fmt.Errorf("core: span %v shorter than baseline window %v",
			time.Duration(c.Span), c.Baseline)
	}
	seen := make(map[time.Duration]bool, len(c.Trims))
	for _, d := range c.Trims {
		if d <= 0 || d >= c.Baseline {
			return fmt.Errorf("core: trim %v out of (0, baseline)", d)
		}
		if seen[d] {
			return fmt.Errorf("core: duplicate trim %v", d)
		}
		seen[d] = true
	}
	return nil
}

// newResults returns one empty result per trim, in the configured order.
func newResults(trims []time.Duration) []SensitivityResult {
	out := make([]SensitivityResult, len(trims))
	for j, d := range trims {
		out[j] = SensitivityResult{Trim: d, Jaccard: &metrics.Dist{}}
	}
	return out
}

// SensitivityResult aggregates the per-pair Jaccard similarities for one
// trim value — one line of Figure 3.
type SensitivityResult struct {
	Trim time.Duration
	// Jaccard holds one sample per compared (baseline, variant) window
	// pair, in pair order.
	Jaccard *metrics.Dist
	// Pairs is the number of overlapping pairs compared (pairs whose
	// windows no longer overlap are excluded, following the paper).
	Pairs int
}

// DissimilarFraction returns the fraction of pairs whose HHH sets differ
// by at least diff (i.e. Jaccard <= 1-diff) — the form in which the paper
// states its Figure-3 findings.
func (r SensitivityResult) DissimilarFraction(diff float64) float64 {
	return r.Jaccard.FractionAtMost(1 - diff)
}

// WindowSensitivity runs the Figure-3 analysis over the time-ordered trace
// pkts: one exact tumbling pass per window width (baseline plus every
// trimmed variant), then pairwise Jaccard over same-index windows while
// they overlap.
func WindowSensitivity(pkts []trace.Packet, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := oracle.FromTrace(cfg.Hierarchy, pkts)
	// series returns the HHH set of every complete width-long window.
	series := func(width int64) []hhh.Set {
		var sets []hhh.Set
		cur := o.Cursor()
		for lo := int64(0); lo+width <= cfg.Span; lo += width {
			sets = append(sets, exactSet(cur.Move(lo, lo+width), cfg.Hierarchy, cfg.Phi))
		}
		return sets
	}
	base := series(int64(cfg.Baseline))
	results := newResults(cfg.Trims)
	for j, d := range cfg.Trims {
		variant := series(int64(cfg.Baseline - d))
		// Overlap of baseline window k and variant window k is W - (k+1)·δ;
		// stop once they no longer overlap. Both series hold a window at
		// k = 0, where the overlap is W - δ > 0.
		for k := 0; k < len(base) && int64(cfg.Baseline)-int64(k+1)*int64(d) > 0; k++ {
			results[j].Jaccard.Observe(base[k].Jaccard(variant[k]))
			results[j].Pairs++
		}
	}
	return results, nil
}

// RenderSensitivity formats results as the Figure-3 table: summary
// quantiles of the per-pair Jaccard similarity per trim, plus the
// fraction of pairs differing by at least 11% and 25% (the two levels the
// paper quotes).
func RenderSensitivity(results []SensitivityResult) string {
	t := metrics.NewTable("trim", "pairs", "meanJ", "p10", "p30", "median",
		"frac(diff>=11%)", "frac(diff>=25%)")
	for _, r := range results {
		t.AddRow(r.Trim, r.Pairs, r.Jaccard.Mean(),
			r.Jaccard.Quantile(0.10), r.Jaccard.Quantile(0.30), r.Jaccard.Quantile(0.50),
			r.DissimilarFraction(0.11), r.DissimilarFraction(0.25))
	}
	return t.String()
}

// TailTrimSensitivity is the same-start variant of the window-size
// analysis (ablation E4d): every variant window shares its start with the
// baseline window and loses only its final Trim of traffic, isolating the
// pure tail effect from the cumulative phase drift that WindowSensitivity
// measures. Real traces show a much weaker effect here, which is itself
// evidence that Figure 3's signal comes from drift, not tails.
//
// One cursor walks each baseline window through its variants in order of
// growing end — longest trim first — and then the full window, so every
// packet is added once per baseline window.
func TailTrimSensitivity(pkts []trace.Packet, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	longestFirst := make([]int, len(cfg.Trims))
	for j := range longestFirst {
		longestFirst[j] = j
	}
	sort.Slice(longestFirst, func(a, b int) bool { return cfg.Trims[longestFirst[a]] > cfg.Trims[longestFirst[b]] })

	results := newResults(cfg.Trims)
	variants := make([]hhh.Set, len(cfg.Trims))
	cur := oracle.FromTrace(cfg.Hierarchy, pkts).Cursor()
	for lo, w := int64(0), int64(cfg.Baseline); lo+w <= cfg.Span; lo += w {
		for _, j := range longestFirst {
			variants[j] = exactSet(cur.Move(lo, lo+w-int64(cfg.Trims[j])), cfg.Hierarchy, cfg.Phi)
		}
		base := exactSet(cur.Move(lo, lo+w), cfg.Hierarchy, cfg.Phi)
		for j := range results {
			results[j].Jaccard.Observe(base.Jaccard(variants[j]))
			results[j].Pairs++
		}
	}
	return results, nil
}
