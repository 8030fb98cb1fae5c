package core

import (
	"fmt"
	"sort"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/pipeline"
	"hiddenhhh/internal/trace"
)

// ComparisonConfig parameterises the Section-3 evaluation: how well do
// windowed detectors and the proposed time-decaying continuous detector
// recover the HHHs a sliding window (the information-richest model)
// reveals — including the hidden ones — and at what performance and
// memory cost.
type ComparisonConfig struct {
	// Window is the disjoint window length and the sliding ground-truth
	// length. Default 10 s.
	Window time.Duration
	// Tau is the continuous detector's decay horizon. Defaults to
	// Window, the natural like-for-like setting; the E4c ablation sweeps
	// it independently.
	Tau time.Duration
	// Step is the sliding step defining ground truth. Default 1 s.
	Step time.Duration
	// Phi is the threshold fraction. Default 0.05.
	Phi float64
	// Span is the analysed trace duration.
	Span int64
	// Hierarchy is the prefix lattice the analysis runs over. Defaults
	// to the IPv4 byte ladder.
	Hierarchy addr.Hierarchy
	// Counters per level for the sketch engines (PerLevel, RHHH).
	// Default 512.
	Counters int
	// TDBFCells sizes the continuous detector's per-level filters (4
	// hashes each, the TDBF default). Default 1<<16.
	TDBFCells int
	// Seed drives the randomised detectors.
	Seed uint64
}

func (c *ComparisonConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 10 * time.Second
	}
	if c.Tau == 0 {
		c.Tau = c.Window
	}
	if c.Step == 0 {
		c.Step = time.Second
	}
	if c.Phi == 0 {
		c.Phi = 0.05
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
	if c.Counters == 0 {
		c.Counters = 512
	}
	if c.TDBFCells == 0 {
		c.TDBFCells = 1 << 16
	}
}

// DetectorReport scores one detector over the whole trace.
type DetectorReport struct {
	Name string
	// Reported is the number of distinct HHH prefixes the detector
	// produced across the trace.
	Reported int
	// Recall is the fraction of the sliding-window ground-truth set the
	// detector found; HiddenRecall restricts that to the hidden HHHs
	// (those no disjoint window reports) — the paper's motivating
	// information loss.
	Recall       float64
	HiddenRecall float64
	// Precision is the fraction of the detector's reports that are in
	// the ground-truth set.
	Precision float64
	// NsPerPacket is the measured per-packet processing cost of the
	// detector's pass, and StateBytes its steady-state memory footprint.
	NsPerPacket float64
	StateBytes  int
	Packets     int64
}

// ComparisonOutcome bundles the ground truth and every detector's report.
type ComparisonOutcome struct {
	GroundTruth   hhh.Set // sliding-window union S
	DisjointTruth hhh.Set // disjoint union D (exact per window)
	Hidden        hhh.Set // S − D
	Reports       []DetectorReport
}

// Score scores a detector's distinct reported prefixes against the
// ground-truth set and its hidden subset — the scoring rule every
// comparison table shares (the Section-3 evaluation here and the
// oracle-differential accuracy report in cmd/hhheval). The performance
// fields (NsPerPacket, StateBytes, Packets) are left for the caller.
func Score(name string, reported, truth, hidden hhh.Set) DetectorReport {
	inTruth := reported.Intersect(truth).Len()
	inHidden := reported.Intersect(hidden).Len()
	return DetectorReport{
		Name:         name,
		Reported:     reported.Len(),
		Recall:       ratio(float64(inTruth), float64(truth.Len())),
		HiddenRecall: ratio(float64(inHidden), float64(hidden.Len())),
		Precision:    ratio(float64(inTruth), float64(reported.Len())),
	}
}

// ContinuousComparison runs the Section-3 evaluation over the time-ordered
// trace pkts. Ground truth is the union of exact HHH sets over sliding
// positions; each detector is then driven over the packets of [0, Span)
// and scored on the distinct prefixes it ever reported.
func ContinuousComparison(pkts []trace.Packet, cfg ComparisonConfig) (*ComparisonOutcome, error) {
	cfg.setDefaults()
	if err := checkTiling(cfg.Window, cfg.Step, cfg.Span); err != nil {
		return nil, err
	}
	out := &ComparisonOutcome{}

	// The exact sliding ground truth, the disjoint exact union, and the
	// sliding-exact reference row (timed).
	sliding := hhh.NewSet()
	disjoint := hhh.NewSet()
	peakLeaves := 0
	start := time.Now()
	cur := oracle.FromTrace(cfg.Hierarchy, pkts).Cursor()
	for lo, w := int64(0), int64(cfg.Window); lo+w <= cfg.Span; lo += int64(cfg.Step) {
		leaves := cur.Move(lo, lo+w)
		set := exactSet(leaves, cfg.Hierarchy, cfg.Phi)
		sliding.UnionInPlace(set)
		if lo%w == 0 {
			disjoint.UnionInPlace(set)
		}
		peakLeaves = max(peakLeaves, leaves.Len())
	}
	elapsed := time.Since(start)
	out.GroundTruth = sliding
	out.DisjointTruth = disjoint
	out.Hidden = sliding.Diff(disjoint)

	// The detectors see the packets of [0, Span), as the truth does.
	pkts = pkts[sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= 0 }):]
	pkts = pkts[:sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= cfg.Span })]
	n := int64(len(pkts))

	score := func(name string, reported hhh.Set, nsPerPkt float64, stateBytes int) DetectorReport {
		r := Score(name, reported, out.GroundTruth, out.Hidden)
		r.NsPerPacket = nsPerPkt
		r.StateBytes = stateBytes
		r.Packets = n
		return r
	}
	nsPerPkt := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

	out.Reports = append(out.Reports,
		score("sliding-exact", sliding, nsPerPkt(elapsed), peakLeaves*16))

	// Every detector row is the live system's single-goroutine driver
	// built from one Config: the disjoint rows report the union of their
	// window closes, the continuous rows the prefixes that ever entered.
	rows := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"disjoint-exact", pipeline.Config{Window: cfg.Window, Engine: pipeline.KindExact}},
		{"disjoint-perlevel", pipeline.Config{Window: cfg.Window, Engine: pipeline.KindPerLevel, Counters: cfg.Counters}},
		{"disjoint-rhhh", pipeline.Config{Window: cfg.Window, Engine: pipeline.KindRHHH, Counters: cfg.Counters}},
		{"continuous-tdbf", pipeline.Config{Mode: pipeline.ModeContinuous, Window: cfg.Tau, Cells: cfg.TDBFCells}},
		{"continuous-sampled", pipeline.Config{Mode: pipeline.ModeContinuous, Window: cfg.Tau, Cells: cfg.TDBFCells, Sampled: true}},
	}
	for _, r := range rows {
		r.cfg.Phi, r.cfg.Hierarchy, r.cfg.Seed = cfg.Phi, cfg.Hierarchy, cfg.Seed
		reported := hhh.NewSet()
		if r.cfg.Mode == pipeline.ModeWindowed {
			r.cfg.OnWindow = func(_, _ int64, set hhh.Set) { reported.UnionInPlace(set) }
		} else {
			r.cfg.OnEnter = func(p addr.Prefix, _ int64) { reported.Add(hhh.Item{Prefix: p}) }
		}
		det, err := pipeline.NewSingle(r.cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		det.ObserveBatch(pkts)
		det.Snapshot(cfg.Span) // closes the last complete window
		out.Reports = append(out.Reports,
			score(r.name, reported, nsPerPkt(time.Since(start)), det.SizeBytes()))
	}

	return out, nil
}

// RenderComparison formats the outcome as the Section-3 table.
func RenderComparison(o *ComparisonOutcome) string {
	t := metrics.NewTable("detector", "reported", "recall", "hidden-recall",
		"precision", "ns/pkt", "state-KiB")
	for _, r := range o.Reports {
		t.AddRow(r.Name, r.Reported, r.Recall, r.HiddenRecall, r.Precision,
			fmt.Sprintf("%.0f", r.NsPerPacket), fmt.Sprintf("%.0f", float64(r.StateBytes)/1024))
	}
	return fmt.Sprintf("ground truth: %d sliding HHHs, %d disjoint, %d hidden\n\n%s",
		o.GroundTruth.Len(), o.DisjointTruth.Len(), o.Hidden.Len(), t.String())
}
