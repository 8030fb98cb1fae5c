package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/metrics"
)

// fig2 reproduces Figure 2 of the paper: the percentage of hierarchical
// heavy hitters that fixed-time disjoint windows fail to report compared
// to a sliding window of the same length, across window sizes and
// thresholds, over the four synthetic "day" scenarios. -steps runs the
// sliding-step ablation (E4a) and -granularity the hierarchy one (E4b).
func fig2(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 4*time.Minute, "per-day synthetic trace duration")
		days     = fs.Int("days", 4, "number of synthetic days (1-4)")
		step     = fs.Duration("step", time.Second, "sliding step")
		steps    = fs.Bool("steps", false, "run the step-size ablation (E4a) instead")
		granStr  = fs.String("granularity", "byte", "hierarchy granularity: bit, nibble, byte")
		windows  = fs.String("windows", "5s,10s,20s", "comma-separated window sizes")
		phis     = fs.String("phis", "0.01,0.05,0.10", "comma-separated threshold fractions")
	)
	return func(stdout, stderr io.Writer) error {
		h, err := hierarchyOf(*granStr)
		if err != nil {
			return err
		}
		ws, err := parseList(*windows, time.ParseDuration)
		if err != nil {
			return err
		}
		ps, err := parseList(*phis, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		if err != nil {
			return err
		}
		n := *days
		if *in != "" {
			n = 1
		} else if n < 1 || n > 4 {
			return fmt.Errorf("-days must be 1..4")
		}
		var traces []input
		for d := 0; d < n; d++ {
			t, err := openInput(*in, fmt.Sprintf("day%d", d), gen.Tier1Day(d, *duration), stderr)
			if err != nil {
				return err
			}
			traces = append(traces, t)
		}
		if *steps {
			return stepAblation(stdout, traces[0], h)
		}

		fmt.Fprintln(stdout, "Figure 2 — hidden HHHs: disjoint windows vs sliding window (step", *step, ")")
		fmt.Fprintln(stdout)
		summary := metrics.NewTable("day", "window", "phi%", "sliding", "disjoint", "hidden", "hidden%")
		cell := func(w time.Duration, phi float64) string { return fmt.Sprintf("%v/%.0f%%", w, 100*phi) }
		sum := map[string]float64{}
		for _, t := range traces {
			results, err := core.HiddenHHH(t.provider, core.HiddenHHHConfig{
				Windows: ws, Step: *step, Phis: ps, Span: t.span, Hierarchy: h,
			})
			if err != nil {
				return err
			}
			for _, r := range results {
				summary.AddRow(t.name, r.Window, 100*r.Phi, r.SlidingDistinct,
					r.DisjointDistinct, r.HiddenDistinct, r.HiddenPct)
				sum[cell(r.Window, r.Phi)] += r.HiddenPct
			}
		}
		fmt.Fprint(stdout, summary.String())
		if len(traces) > 1 {
			fmt.Fprintln(stdout, "\nmean hidden% across days:")
			mean := metrics.NewTable("window/phi", "hidden%")
			for _, w := range ws {
				for _, p := range ps {
					mean.AddRow(cell(w, p), sum[cell(w, p)]/float64(len(traces)))
				}
			}
			fmt.Fprint(stdout, mean.String())
		}
		return nil
	}
}

func stepAblation(stdout io.Writer, t input, h addr.Hierarchy) error {
	fmt.Fprintln(stdout, "E4a — hidden% vs sliding step (window 10s, phi 5%)")
	tab := metrics.NewTable("step", "sliding", "disjoint", "hidden", "hidden%")
	for _, step := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second} {
		results, err := core.HiddenHHH(t.provider, core.HiddenHHHConfig{
			Windows:   []time.Duration{10 * time.Second},
			Step:      step,
			Phis:      []float64{0.05},
			Span:      t.span,
			Hierarchy: h,
		})
		if err != nil {
			return err
		}
		r := results[0]
		tab.AddRow(step, r.SlidingDistinct, r.DisjointDistinct, r.HiddenDistinct, r.HiddenPct)
	}
	fmt.Fprint(stdout, tab.String())
	return nil
}

// parseList parses a comma-separated flag value item by item.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// fig3 reproduces Figure 3 of the paper: per-window Jaccard similarity
// between the HHH sets of a 10 s baseline window and windows 10–100 ms
// shorter, at a 5% byte threshold (the paper analyses 20 minutes).
// -tails runs the same-start tail-trim ablation (E4d) instead.
func fig3(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 5*time.Minute, "synthetic trace duration (paper: 20m)")
		baseline = fs.Duration("baseline", 10*time.Second, "baseline window")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction")
		seed     = fs.Int64("seed", 1000, "synthetic scenario seed")
		cdf      = fs.Bool("cdf", false, "print full Jaccard CDFs per trim")
		tails    = fs.Bool("tails", false, "run the same-start tail-trim ablation (E4d) instead")
	)
	return func(stdout, stderr io.Writer) error {
		cfg := gen.Tier1Day(0, *duration)
		cfg.Seed = *seed
		t, err := openInput(*in, "day0", cfg, stderr)
		if err != nil {
			return err
		}
		analyse, title := core.WindowSensitivity, "Figure 3 — HHH similarity of W vs W-δ window tilings"
		if *tails {
			analyse, title = core.TailTrimSensitivity, "E4d — same-start tail-trim sensitivity"
		}
		results, err := analyse(t.provider, core.SensitivityConfig{Baseline: *baseline, Phi: *phi, Span: t.span})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s (baseline %v, phi %.0f%%)\n\n", title, *baseline, 100**phi)
		fmt.Fprint(stdout, core.RenderSensitivity(results))

		if *cdf {
			fmt.Fprintln(stdout, "\nJaccard CDFs (P[J <= x]):")
			header := []string{"x"}
			for _, r := range results {
				header = append(header, r.Trim.String())
			}
			tab := metrics.NewTable(header...)
			for x := 0.0; x <= 1.0001; x += 0.05 {
				row := []any{fmt.Sprintf("%.2f", x)}
				for _, r := range results {
					row = append(row, fmt.Sprintf("%.3f", r.Jaccard.CDFAt(x)))
				}
				tab.AddRow(row...)
			}
			fmt.Fprint(stdout, tab.String())
		}
		return nil
	}
}

// section3 runs the evaluation Section 3 of the paper calls for: the
// proposed time-decaying (continuous) detection against window-based
// approaches in accuracy — including recall of the hidden HHHs —
// performance and state. -sweep runs the decay-constant and filter-size
// ablation (E4c), -latency the time-to-detection experiment (E5).
func section3(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 3*time.Minute, "synthetic trace duration")
		win      = fs.Duration("window", 10*time.Second, "window length / decay horizon")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction")
		seed     = fs.Int64("seed", 1000, "synthetic scenario seed")
		sweep    = fs.Bool("sweep", false, "run the TDBF parameter sweep (E4c) instead")
		latency  = fs.Bool("latency", false, "run the detection-latency experiment (E5) instead")
	)
	return func(stdout, stderr io.Writer) error {
		cfg := gen.Tier1Day(0, *duration)
		cfg.Seed = *seed
		t, err := openInput(*in, "day0", cfg, stderr)
		if err != nil {
			return err
		}
		switch {
		case *sweep:
			return tdbfSweep(stdout, t, *win, *phi)
		case *latency:
			reports, bursts, err := core.DetectionLatency(t.provider, core.LatencyConfig{
				Window: *win, Phi: *phi, Span: t.span, Seed: *seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "E5 — time from burst start to first report (window/tau %v, phi %.0f%%)\n\n",
				*win, 100**phi)
			fmt.Fprint(stdout, core.RenderLatency(reports, len(bursts)))
			return nil
		}
		outcome, err := core.ContinuousComparison(t.provider, core.ComparisonConfig{
			Window: *win, Phi: *phi, Span: t.span, Seed: uint64(*seed),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Section 3 — windowed vs time-decaying detection (window/tau %v, phi %.0f%%)\n\n",
			*win, 100**phi)
		fmt.Fprint(stdout, core.RenderComparison(outcome))
		return nil
	}
}

// tdbfSweep explores the continuous detector's accuracy/memory trade-off
// across decay constants and filter sizes (E4c).
func tdbfSweep(stdout io.Writer, t input, win time.Duration, phi float64) error {
	fmt.Fprintf(stdout, "E4c — continuous detector sweep (reference window %v, phi %.0f%%)\n\n", win, 100*phi)
	tab := metrics.NewTable("tau", "cells/level", "recall", "hidden-recall", "precision", "state-KiB")
	for _, tauMul := range []float64{0.5, 1, 2} {
		tau := time.Duration(float64(win) * tauMul)
		for _, cells := range []int{1 << 12, 1 << 14, 1 << 16} {
			outcome, err := core.ContinuousComparison(t.provider, core.ComparisonConfig{
				Window: win, Tau: tau, Phi: phi, Span: t.span, TDBFCells: cells,
			})
			if err != nil {
				return err
			}
			for _, r := range outcome.Reports {
				if r.Name == "continuous-tdbf" {
					tab.AddRow(tau, cells, r.Recall, r.HiddenRecall, r.Precision,
						fmt.Sprintf("%.0f", float64(r.StateBytes)/1024))
				}
			}
		}
	}
	fmt.Fprint(stdout, tab.String())
	return nil
}
