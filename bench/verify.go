package main

import (
	"fmt"
	"hash/fnv"

	"hiddenhhh"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/trace"
)

// globalView adapts the rig to oracle.Detector: what the oracle scores is
// the aggregator's published global report, not the detector's local one,
// so every layer between ingest and query is inside the checked path. It
// also forwards the accounting and degradation surfaces, so oracle.Run
// cross-checks the report's mass and span and would widen nothing
// silently.
type globalView struct{ r *rig }

func (g globalView) ObserveBatch(pkts []trace.Packet) { g.r.det.ObserveBatch(pkts) }

func (g globalView) Snapshot(now int64) hhh.Set {
	g.r.det.Snapshot(now)
	return g.r.agg.Report().Set
}

func (g globalView) ReportMass(int64) int64 { return g.r.agg.Report().Bytes }

func (g globalView) CoveredSpan(now int64) (lo, hi int64) { return g.r.det.CoveredSpan(now) }

func (g globalView) DroppedMass() (packets, bytes int64) { return g.r.det.DroppedMass() }

func (g globalView) DegradedMerges() int64 { return g.r.det.DegradedMerges() }

// verdict is the outcome of the verify pass.
type verdict struct {
	report    *oracle.Report
	attempted int // snapshots scored
	failed    int
	why       []string
	// hiddenTotal / hiddenMissed count the oracle's hidden HHHs and those
	// absent from every global report (workloads with hidden set);
	// hiddenMarginal is the part of hiddenMissed the engine's coverage
	// bound excuses.
	hiddenTotal, hiddenMissed, hiddenMarginal int
	seals                                     []sealRec
}

// verify runs the untimed correctness pass: one lap through a fresh rig,
// driven by oracle.Run at the workload's own report cadence with
// cmd/hhheval's default bounds.
func verify(w *workload, in *input, seed int64) (*verdict, error) {
	r, err := newRig(w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	rep, err := oracle.Run(w.name, globalView{r}, in.pkts, w.oracleConfig())
	if err != nil {
		return nil, err
	}
	v := &verdict{report: rep, attempted: len(rep.Snapshots)}
	for _, sr := range rep.Snapshots {
		if len(sr.Violations) > 0 {
			v.failed++
			v.why = append(v.why, fmt.Sprintf("oracle bound at %d: %s: %s",
				sr.At, sr.Violations[0].Kind, sr.Violations[0].Detail))
		}
	}
	// The paper's result: the sliding view must reveal what disjoint
	// windows hide. A Space-Saving engine owes a prefix only above the
	// threshold widened by one sketch error term for its own estimate and
	// one per over-discounting reported descendant (the bound oracle.Run
	// checks per report); a hidden HHH whose best conditioned share never
	// clears phi+2*eps is marginal and excused, every other one must be in
	// some global report.
	v.hiddenTotal = len(in.hidden)
	for p, share := range in.hidden {
		if rep.GotUnion.Contains(p) {
			continue
		}
		v.hiddenMissed++
		if share < phi+2*eps {
			v.hiddenMarginal++
			continue
		}
		v.failed++
		v.why = append(v.why, fmt.Sprintf("hidden HHH %v (conditioned share %.4f) absent from every global report", p, share))
	}
	if dropped, _ := r.det.DroppedMass(); dropped > 0 {
		v.failed++
		v.why = append(v.why, fmt.Sprintf("%d packets dropped in the verify pass", dropped))
	}
	_ = r.det.Close() // quiesce the recorder before reading it
	v.seals = r.rec.seals
	return v, nil
}

// digest fingerprints one global report: span, mass and every item.
func digest(rep *hiddenhhh.AggregatorReport) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d;", rep.Start, rep.End, rep.Bytes)
	for _, it := range rep.Set.Items() {
		fmt.Fprintf(h, "%v %d %d;", it.Prefix, it.Count, it.Conditioned)
	}
	return h.Sum64()
}

// sameReports is the determinism self-check: two replays of one seed must
// seal the same reports. a and b are matched by report End (the replays
// end differently: the verify pass stops at the lap's last packet, the
// timed run keeps going), and every common report must agree in sealed
// bytes and in the digest of the global report set.
func sameReports(a, b []sealRec) (common int, diffs []string) {
	byEnd := make(map[int64]sealRec, len(a))
	for _, rec := range a {
		byEnd[rec.end] = rec
	}
	for _, rb := range b {
		ra, ok := byEnd[rb.end]
		if !ok {
			continue
		}
		common++
		if ra.frameBytes != rb.frameBytes {
			diffs = append(diffs, fmt.Sprintf("report end=%d: sealed %d vs %d bytes", rb.end, ra.frameBytes, rb.frameBytes))
		} else if da, db := digest(ra.report), digest(rb.report); da != db {
			diffs = append(diffs, fmt.Sprintf("report end=%d: set digest %x vs %x", rb.end, da, db))
		}
	}
	return common, diffs
}
