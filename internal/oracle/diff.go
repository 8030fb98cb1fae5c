package oracle

import (
	"fmt"
	"math"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
)

// Mode names the window model a detector under test implements; it
// selects the reference aggregate the oracle computes for each snapshot.
// Values mirror the public hiddenhhh.Mode constants.
type Mode int

// Supported reference models.
const (
	// ModeWindowed compares each snapshot against the exact HHH set of
	// the most recently completed disjoint window (detector boundary
	// semantics: windows aligned to multiples of Window, the first one
	// being the window containing the first packet).
	ModeWindowed Mode = iota
	// ModeSliding compares against the exact set over the frame-aligned
	// covered span [SlidingSpan, now].
	ModeSliding
	// ModeContinuous compares against the exact set over exponentially
	// decayed masses at the snapshot time (tau = Window).
	ModeContinuous
)

// String names the reference model ("windowed", "sliding",
// "continuous").
func (m Mode) String() string {
	switch m {
	case ModeWindowed:
		return "windowed"
	case ModeSliding:
		return "sliding"
	case ModeContinuous:
		return "continuous"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Detector is the minimal streaming surface the harness drives. The
// public hiddenhhh.Detector (and ShardedDetector) satisfies it.
type Detector interface {
	ObserveBatch(pkts []trace.Packet)
	Snapshot(now int64) hhh.Set
}

// Accounting is the optional introspection surface the public detectors
// implement: when available the harness cross-checks that the detector's
// own threshold denominator and covered span agree with the oracle's.
// The harness always queries it immediately after Snapshot(now) with the
// same now, the one pattern every implementation supports.
type Accounting interface {
	// ReportMass returns the total mass behind Snapshot(now)'s threshold.
	ReportMass(now int64) int64
	// CoveredSpan returns the time span Snapshot(now) aggregates.
	CoveredSpan(now int64) (lo, hi int64)
}

// Degraded is the optional degradation surface a detector under test may
// implement (ShardedDetector does): cumulative counters declaring the
// traffic it observed but excluded from reports — shed batches, a
// quarantined shard's substream, merges published without every shard.
// When present, the harness verifies the paper-family bounds *relative
// to declared observed mass*: each snapshot's missing mass (the exact
// aggregate minus the detector's ReportMass) widens the under-count and
// false-negative allowances, while the over-count side stays untouched —
// dropping traffic can never justify reporting more than was seen.
type Degraded interface {
	// DroppedMass returns cumulative shed packets and bytes.
	DroppedMass() (packets, bytes int64)
	// DegradedMerges returns how many merges were published without
	// every shard.
	DegradedMerges() int64
}

// Bounds parameterises the deterministic error-bound checks, following
// the paper-family guarantees: Space-Saving engines overestimate subtree
// volumes by at most Nε per level and miss no prefix whose conditioned
// volume reaches (φ+ε)N (Mitzenmacher et al.); RHHH adds a sampling term
// z on top, N(ε+z) (Ben Basat et al.).
type Bounds struct {
	// Epsilon is the engine's deterministic per-level overestimation
	// fraction of the aggregate mass: 1/Counters for the Space-Saving
	// engines (merge-adjusted — hash-partitioned shards telescope back to
	// the single-engine bound, so sharding does not widen it), 0 for the
	// exact engine.
	Epsilon float64
	// Slack is an additional fraction-of-mass allowance for error sources
	// without a deterministic bound: RHHH's level-sampling deviation (the
	// z of N(ε+z)) and the continuous detector's TDBF collision noise.
	// The suite pins it empirically per engine; it is an envelope for the
	// seeded scenarios, not a theorem.
	Slack float64
	// AbsSlack is an absolute mass allowance added on top of the
	// fractional terms (covers integer rounding and, for RHHH, the
	// √packets-scale part of the sampling deviation).
	AbsSlack float64
	// AllowUnder permits reported counts below exact by the same
	// allowance. Space-Saving estimates never underestimate; RHHH's
	// sampled estimates can.
	AllowUnder bool
}

// allowance is the total permitted one-sided count error at mass n.
func (b Bounds) allowance(n float64) float64 {
	return (b.Epsilon+b.Slack)*n + b.AbsSlack
}

// Config parameterises a differential run.
type Config struct {
	// Mode selects the reference model. Required to match the detector.
	Mode Mode
	// Window is the disjoint window length (ModeWindowed), the sliding
	// span (ModeSliding), or the decay horizon tau (ModeContinuous).
	// Required.
	Window time.Duration
	// Frames is ModeSliding's expiry granularity; must match the
	// detector's. Default 8.
	Frames int
	// Phi is the threshold fraction. Required.
	Phi float64
	// Hierarchy is the prefix lattice of the detector under test; the
	// oracle computes its reference over the same one. Defaults to the
	// IPv4 byte ladder.
	Hierarchy addr.Hierarchy
	// Bounds are the error-bound parameters asserted per snapshot.
	Bounds Bounds
	// SnapshotEvery is the query cadence. Default Window.
	SnapshotEvery time.Duration
	// Warmup suppresses bound checks for snapshots earlier than the first
	// packet plus this duration. ModeContinuous defaults it to Window
	// (the continuous detector's own admission warmup); the other modes
	// default to 0.
	Warmup time.Duration
}

// Violation is one broken bound at one snapshot.
type Violation struct {
	At     int64       `json:"at_ns"`
	Kind   string      `json:"kind"` // count-over | count-under | false-negative | mass-mismatch | span-mismatch
	Prefix addr.Prefix `json:"-"`
	Detail string      `json:"detail"`
}

// SnapshotResult scores one snapshot against its exact reference.
type SnapshotResult struct {
	At     int64   `json:"at_ns"`
	SpanLo int64   `json:"span_lo_ns"`
	SpanHi int64   `json:"span_hi_ns"`
	Mass   float64 `json:"mass"`
	// Truth and Got are the exact and reported HHH set sizes.
	Truth int `json:"truth"`
	Got   int `json:"got"`
	// Precision and Recall compare reported prefixes against the exact
	// HHH set (1.0 for two empty sets).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// MaxOver / MaxUnder are the worst per-item subtree count errors as a
	// fraction of Mass (0 when nothing was reported).
	MaxOver  float64 `json:"max_over_frac"`
	MaxUnder float64 `json:"max_under_frac"`
	// Warm reports whether bound checks ran (false inside Warmup).
	Warm       bool        `json:"warm"`
	Violations []Violation `json:"violations,omitempty"`

	// DroppedPackets/DroppedBytes echo the detector's cumulative declared
	// shed mass at this snapshot, and DegradedMerges its partial-quorum
	// merge count (all zero for detectors without a Degraded surface).
	DroppedPackets int64 `json:"dropped_packets,omitempty"`
	DroppedBytes   int64 `json:"dropped_bytes,omitempty"`
	DegradedMerges int64 `json:"degraded_merges,omitempty"`
	// MissingMass is the exact aggregate mass the detector declared
	// unobserved at this snapshot (oracle mass minus ReportMass, floored
	// at zero; only set while the detector reports degradation). It
	// widens the under-count and false-negative allowances.
	MissingMass float64 `json:"missing_mass,omitempty"`

	// TruthSet and GotSet carry the full sets for callers that aggregate
	// across snapshots; they are omitted from JSON reports.
	TruthSet hhh.Set `json:"-"`
	GotSet   hhh.Set `json:"-"`
}

// Report is the outcome of one differential run.
type Report struct {
	Detector string  `json:"detector"`
	Mode     string  `json:"mode"`
	Phi      float64 `json:"phi"`
	Packets  int     `json:"packets"`
	// Epsilon/Slack echo the checked bound for the record.
	Epsilon float64 `json:"epsilon"`
	Slack   float64 `json:"slack"`

	Snapshots []SnapshotResult `json:"snapshots"`

	// Aggregates over warm snapshots.
	MeanPrecision float64 `json:"mean_precision"`
	MeanRecall    float64 `json:"mean_recall"`
	WorstOver     float64 `json:"worst_over_frac"`
	WorstUnder    float64 `json:"worst_under_frac"`
	Violations    int     `json:"violations"`

	// TruthUnion / GotUnion are the distinct prefixes ever in the exact
	// reference / ever reported, for hidden-HHH accounting.
	TruthUnion hhh.Set `json:"-"`
	GotUnion   hhh.Set `json:"-"`
}

// Run drives det and the exact oracle over the same trace, querying both
// at every snapshot point and scoring the detector's reports: set
// precision/recall, per-item subtree count error against the exact
// per-level counts, and the deterministic paper-family bound checks
// (accuracy within the allowance; coverage of every prefix whose
// conditioned-given-output volume clears the widened threshold).
//
// pkts must be in non-decreasing timestamp order. The detector must be
// fresh (no packets observed yet) and configured consistently with cfg.
func Run(name string, det Detector, pkts []trace.Packet, cfg Config) (*Report, error) {
	if len(pkts) == 0 {
		return nil, fmt.Errorf("oracle: empty trace")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("oracle: window must be positive")
	}
	if cfg.Phi <= 0 || cfg.Phi > 1 {
		return nil, fmt.Errorf("oracle: phi %v out of (0,1]", cfg.Phi)
	}
	if cfg.Hierarchy == (addr.Hierarchy{}) {
		cfg.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 8
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = cfg.Window
	}
	if cfg.Warmup == 0 && cfg.Mode == ModeContinuous {
		cfg.Warmup = cfg.Window
	}

	o := FromTrace(cfg.Hierarchy, pkts)
	rep := &Report{
		Detector: name,
		Mode:     cfg.Mode.String(),
		Phi:      cfg.Phi,
		Packets:  len(pkts),
		Epsilon:  cfg.Bounds.Epsilon,
		Slack:    cfg.Bounds.Slack,

		TruthUnion: hhh.NewSet(),
		GotUnion:   hhh.NewSet(),
	}

	firstTs := pkts[0].Ts
	lastTs := pkts[len(pkts)-1].Ts
	var warm int
	var sumP, sumR float64
	score := func(at int64) {
		got := det.Snapshot(at)

		// Capture the detector's declared-coverage surfaces at the same
		// instant as the snapshot: they decide whether (and by how much)
		// the under-side bound checks are widened.
		obs := degradeObs{declared: -1}
		acc, hasAcc := det.(Accounting)
		if hasAcc {
			obs.declared = float64(acc.ReportMass(at))
		}
		if dg, ok := det.(Degraded); ok {
			obs.packets, obs.bytes = dg.DroppedMass()
			obs.merges = dg.DegradedMerges()
		}

		sr := evaluate(o, got, at, firstTs, cfg, obs)
		if hasAcc {
			checkAccounting(&sr, at, cfg, obs, acc)
		}
		rep.TruthUnion.UnionInPlace(sr.TruthSet)
		rep.GotUnion.UnionInPlace(got)
		if sr.Warm {
			warm++
			sumP += sr.Precision
			sumR += sr.Recall
			rep.WorstOver = math.Max(rep.WorstOver, sr.MaxOver)
			rep.WorstUnder = math.Max(rep.WorstUnder, sr.MaxUnder)
			rep.Violations += len(sr.Violations)
		}
		rep.Snapshots = append(rep.Snapshots, sr)
	}
	// Snapshot at every step boundary after the first packet, plus the
	// stream end — boundary-aligned points exercise exact window-edge
	// behaviour, the end point the final partial aggregate.
	cut := trace.Cutter{Step: int64(cfg.SnapshotEvery)}
	cut.Feed(pkts, det.ObserveBatch, score)
	score(lastTs)
	if warm > 0 {
		rep.MeanPrecision = sumP / float64(warm)
		rep.MeanRecall = sumR / float64(warm)
	}
	return rep, nil
}

// degradeObs captures the detector's declared-coverage surfaces at one
// snapshot instant: its ReportMass (declared; -1 without an Accounting
// surface) and its cumulative Degraded counters.
type degradeObs struct {
	declared               float64
	packets, bytes, merges int64
}

// degraded reports whether the detector has declared any shed mass or
// partial-quorum merges so far.
func (ob degradeObs) degraded() bool {
	return ob.packets > 0 || ob.bytes > 0 || ob.merges > 0
}

// evaluate computes the exact reference for one snapshot and scores the
// report against it. Each mode arm only derives the reference aggregate
// (span, per-level counts, total, threshold); the scoring tail is
// shared.
func evaluate(o *Oracle, got hhh.Set, at, firstTs int64, cfg Config, obs degradeObs) SnapshotResult {
	sr := SnapshotResult{
		At: at, GotSet: got, Warm: at >= firstTs+int64(cfg.Warmup),
		DroppedPackets: obs.packets, DroppedBytes: obs.bytes, DegradedMerges: obs.merges,
	}
	switch cfg.Mode {
	case ModeWindowed:
		w := int64(cfg.Window)
		firstEnd := (trace.FloorDiv(firstTs, w) + 1) * w
		if at < firstEnd {
			// No window has closed yet; the detector reports empty.
			sr.TruthSet = hhh.NewSet()
			sr.SpanLo, sr.SpanHi = firstTs, firstTs
			sr.Warm = false
			break
		}
		end := trace.FloorDiv(at, w) * w
		sr.SpanLo, sr.SpanHi = end-w, end
		levels, total := o.LevelCounts(sr.SpanLo, sr.SpanHi)
		scoreAggregate(&sr, o.h, levels, total, hhh.Threshold(total, cfg.Phi), cfg.Bounds, obs)
	case ModeSliding:
		sr.SpanLo, sr.SpanHi = SlidingSpan(cfg.Window, cfg.Frames, at), at+1
		levels, total := o.LevelCounts(sr.SpanLo, sr.SpanHi)
		scoreAggregate(&sr, o.h, levels, total, hhh.Threshold(total, cfg.Phi), cfg.Bounds, obs)
	case ModeContinuous:
		sr.SpanLo, sr.SpanHi = math.MinInt64, at
		levels, total := o.DecayedLevelCounts(at, cfg.Window)
		scoreAggregate(&sr, o.h, levels, total, cfg.Phi*total, cfg.Bounds, obs)
	}
	scoreSets(&sr)
	return sr
}

// scoreAggregate fills a snapshot result from one exact reference
// aggregate: the truth set at threshold T, and — on warm snapshots with
// traffic — the accuracy and coverage bound checks. When the detector
// has declared degradation, the gap between the oracle's aggregate and
// the detector's declared mass becomes sr.MissingMass, widening only the
// under-side checks: the reported set is held to the bounds over the
// mass the detector claims to have observed, and any mass beyond the
// claim is treated as a declared loss, never as license to over-report.
func scoreAggregate[V mass](sr *SnapshotResult, h addr.Hierarchy, levels []map[uint64]V, total, T V, b Bounds, obs degradeObs) {
	sr.Mass = float64(total)
	if obs.degraded() {
		if obs.declared >= 0 {
			sr.MissingMass = math.Max(0, sr.Mass-obs.declared)
		} else {
			// No Accounting surface: fall back to cumulative dropped
			// bytes (an over-estimate of this snapshot's missing mass,
			// still sound — it only loosens the under-side).
			sr.MissingMass = float64(obs.bytes)
		}
	}
	if total == 0 {
		sr.TruthSet = hhh.NewSet()
		return
	}
	sr.TruthSet = conditionedSet(h, levels, T)
	if sr.Warm {
		checkCounts(sr, h, levels, b)
		checkCoverage(sr, h, levels, sr.GotSet, float64(T), b)
	}
}

// scoreSets fills precision/recall from the truth and got sets.
func scoreSets(sr *SnapshotResult) {
	truth, got := sr.TruthSet, sr.GotSet
	sr.Truth, sr.Got = truth.Len(), got.Len()
	if truth.Len() == 0 && got.Len() == 0 {
		sr.Precision, sr.Recall = 1, 1
		return
	}
	inter := truth.Intersect(got).Len()
	if got.Len() > 0 {
		sr.Precision = float64(inter) / float64(got.Len())
	} else {
		sr.Precision = 1
	}
	if truth.Len() > 0 {
		sr.Recall = float64(inter) / float64(truth.Len())
	} else {
		sr.Recall = 1
	}
}

// checkCounts asserts the accuracy bound: every reported item's subtree
// count is within the allowance of the exact per-level count. Declared
// missing mass widens only the under side: a dropped packet can depress
// a reported count by at most its own mass, and can never inflate one.
func checkCounts[V mass](sr *SnapshotResult, h addr.Hierarchy, levels []map[uint64]V, b Bounds) {
	allow := b.allowance(sr.Mass) + 1 // +1: integer truncation of reported counts
	underAllow := 1.0                 // Space-Saving never underestimates (integer truncation aside)
	if b.AllowUnder {
		underAllow = allow
	}
	underAllow += sr.MissingMass
	for p, it := range sr.GotSet {
		if !h.OnLattice(p) {
			continue // off-lattice prefix: not comparable
		}
		l := h.Level(p.Bits)
		exact := float64(levels[l][h.KeyOfPrefix(p)])
		err := float64(it.Count) - exact
		switch {
		case err > allow:
			sr.MaxOver = math.Max(sr.MaxOver, err/math.Max(sr.Mass, 1))
			sr.Violations = append(sr.Violations, Violation{
				At: sr.At, Kind: "count-over", Prefix: p,
				Detail: fmt.Sprintf("%v: est %d exact %.0f over by %.0f > allowance %.0f",
					p, it.Count, exact, err, allow),
			})
		case err < -underAllow:
			sr.MaxUnder = math.Max(sr.MaxUnder, -err/math.Max(sr.Mass, 1))
			sr.Violations = append(sr.Violations, Violation{
				At: sr.At, Kind: "count-under", Prefix: p,
				Detail: fmt.Sprintf("%v: est %d exact %.0f under by %.0f (allowance %.0f, missing %.0f, allowUnder=%v)",
					p, it.Count, exact, -err, underAllow, sr.MissingMass, b.AllowUnder),
			})
		default:
			if err > 0 {
				sr.MaxOver = math.Max(sr.MaxOver, err/math.Max(sr.Mass, 1))
			} else {
				sr.MaxUnder = math.Max(sr.MaxUnder, -err/math.Max(sr.Mass, 1))
			}
		}
	}
}

// checkCoverage asserts the no-false-negative bound: every prefix whose
// exact conditioned-given-output volume reaches the threshold widened by
// one allowance per maximal reported descendant (plus one for itself)
// must be in the report. Declared missing mass widens the requirement
// once more: a prefix is only owed coverage if it clears the threshold
// even after every dropped byte is charged against its volume.
func checkCoverage[V mass](sr *SnapshotResult, h addr.Hierarchy, levels []map[uint64]V, got hhh.Set, T float64, b Bounds) {
	allow := b.allowance(sr.Mass)
	misses := uncovered(h, levels, got, func(maximal int) V {
		// +2: rounding guard on top of the analytic bound — one byte for
		// the float64 truncation inside hhh.Threshold (T can sit a byte
		// below the mathematical φN) and one for truncating this float
		// expression back to integer masses. The exact engines are
		// additionally pinned by full set equality in the matrix test,
		// so the guard cannot hide a real exact-engine miss.
		return V(T + float64(maximal+1)*allow + 2 + sr.MissingMass)
	})
	for _, m := range misses {
		sr.Violations = append(sr.Violations, Violation{
			At: sr.At, Kind: "false-negative", Prefix: m.Prefix,
			Detail: fmt.Sprintf("%v: conditioned %.0f >= %.0f (T=%.0f, %d maximal reported descendants) but not reported",
				m.Prefix, m.Cond, m.Need, T, m.Maximal),
		})
	}
}

// checkAccounting cross-checks the detector's own mass and span against
// the oracle's reference. With no degradation declared, exact-count
// modes must agree exactly (the continuous mode's decayed mass is
// computed in a different association order, so it gets a small relative
// tolerance) — this keeps the default lossless configurations pinned
// strictly. Once the detector declares shed mass or partial merges, the
// lower side is released (that gap *is* the declared loss, already
// charged to MissingMass) but the upper side stays: a detector may never
// claim more observed mass than the trace contains.
func checkAccounting(sr *SnapshotResult, at int64, cfg Config, obs degradeObs, acc Accounting) {
	if !sr.Warm {
		return
	}
	mass := obs.declared
	var tol float64
	if cfg.Mode == ModeContinuous {
		tol = 1e-6*sr.Mass + 1
	}
	diff := mass - sr.Mass
	if diff > tol || (!obs.degraded() && diff < -tol) {
		sr.Violations = append(sr.Violations, Violation{
			At: at, Kind: "mass-mismatch",
			Detail: fmt.Sprintf("detector mass %.0f, oracle %.0f (degraded=%v)", mass, sr.Mass, obs.degraded()),
		})
	}
	lo, hi := acc.CoveredSpan(at)
	switch cfg.Mode {
	case ModeWindowed:
		if lo != sr.SpanLo || hi != sr.SpanHi {
			sr.Violations = append(sr.Violations, Violation{
				At: at, Kind: "span-mismatch",
				Detail: fmt.Sprintf("detector span [%d,%d), oracle [%d,%d)", lo, hi, sr.SpanLo, sr.SpanHi),
			})
		}
	case ModeSliding:
		if lo != sr.SpanLo || hi != at {
			sr.Violations = append(sr.Violations, Violation{
				At: at, Kind: "span-mismatch",
				Detail: fmt.Sprintf("detector span [%d,%d], oracle [%d,%d]", lo, hi, sr.SpanLo, at),
			})
		}
	}
}
