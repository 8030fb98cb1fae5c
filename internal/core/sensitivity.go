package core

import (
	"fmt"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/window"
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
	Key       window.KeyFunc
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
	if c.Key == nil {
		c.Key = window.BySource(c.Hierarchy)
	}
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

// WindowSensitivity runs the Figure-3 analysis: one exact tumbling pass
// per window width (baseline plus every trimmed variant), then pairwise
// Jaccard over same-index windows while they overlap.
func WindowSensitivity(provider Provider, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	if cfg.Span < int64(cfg.Baseline) {
		return nil, fmt.Errorf("core: span %v shorter than baseline window %v",
			time.Duration(cfg.Span), cfg.Baseline)
	}
	for _, d := range cfg.Trims {
		if d <= 0 || d >= cfg.Baseline {
			return nil, fmt.Errorf("core: trim %v out of (0, baseline)", d)
		}
	}
	// series returns the HHH set of every complete width-long window.
	series := func(width time.Duration) ([]hhh.Set, error) {
		src, err := provider()
		if err != nil {
			return nil, err
		}
		var sets []hhh.Set
		err = window.Tumble(src, window.Config{
			Width: width, End: cfg.Span, Key: cfg.Key,
		}, func(r *window.Result) error {
			sets = append(sets, hhh.Exact(r.Leaves, cfg.Hierarchy, hhh.Threshold(r.Bytes, cfg.Phi)))
			return nil
		})
		return sets, err
	}
	base, err := series(cfg.Baseline)
	if err != nil {
		return nil, err
	}

	results := make([]SensitivityResult, len(cfg.Trims))
	for j, d := range cfg.Trims {
		variant, err := series(cfg.Baseline - d)
		if err != nil {
			return nil, err
		}
		res := SensitivityResult{Trim: d, Jaccard: &metrics.Dist{}}
		for k := 0; k < len(base) && k < len(variant); k++ {
			// Overlap of baseline window k and variant window k is
			// W - (k+1)·δ; stop once they no longer overlap.
			if int64(cfg.Baseline)-int64(k+1)*int64(d) <= 0 {
				break
			}
			res.Jaccard.Observe(base[k].Jaccard(variant[k]))
			res.Pairs++
		}
		if res.Pairs == 0 {
			return nil, fmt.Errorf("core: no overlapping pairs for trim %v", d)
		}
		results[j] = res
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
func TailTrimSensitivity(provider Provider, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	src, err := provider()
	if err != nil {
		return nil, err
	}
	results := make([]SensitivityResult, len(cfg.Trims))
	tcfg := window.TrimConfig{
		Width: cfg.Baseline,
		End:   cfg.Span,
		Trims: cfg.Trims,
		Key:   cfg.Key,
	}
	err = window.TrimmedTumble(src, tcfg, func(r *window.TrimResult) error {
		if results[0].Jaccard == nil {
			for j, d := range r.Trims {
				results[j] = SensitivityResult{Trim: d, Jaccard: &metrics.Dist{}}
			}
		}
		base := hhh.Exact(r.Leaves, cfg.Hierarchy, hhh.Threshold(r.Bytes, cfg.Phi))
		for j := range r.Trims {
			leaves := r.VariantLeaves(j)
			variant := hhh.Exact(leaves, cfg.Hierarchy, hhh.Threshold(r.VariantBytes(j), cfg.Phi))
			results[j].Jaccard.Observe(base.Jaccard(variant))
			results[j].Pairs++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if results[0].Jaccard == nil {
		return nil, fmt.Errorf("core: span produced no baseline windows")
	}
	return results, nil
}
