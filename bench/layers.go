package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hiddenhhh"
)

// target names the end-to-end metric, on one workload, that a per-layer
// metric is expected to move. It is written down before anything is
// measured so that a later gain can be checked against the prediction.
type target struct{ metric, workload string }

// decl declares one metric: its name, unit and the direction that is
// better. For per-layer metrics, moves lists the predictions; for
// end-to-end metrics, bound is the share of the baseline median by which
// the metric may worsen before a change counts as a regression.
type decl struct {
	name, unit, better string
	moves              []target
	bound              float64
}

const (
	wPerLevel   = "windowed-perlevel"
	wRHHH       = "windowed-rhhh-v6"
	wSliding    = "sliding-wcss-live"
	wContinuous = "continuous-decay"
)

// endToEndDecls are the metrics a user of the service would see. They are
// measured with tracing off. BENCHMARK.json carries their bounds.
var endToEndDecls = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "e2e_mpps", unit: "Mpkt/s", better: "higher", bound: 0.25},
	{name: "report_lag_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "state_bytes", unit: "B", better: "lower", bound: 0.01},
	{name: "seal_bytes_per_report", unit: "B", better: "lower", bound: 0.10},
	{name: "alloc_bytes_per_pkt", unit: "B", better: "lower", bound: 0.15},
}

// layer declares one per-layer metric.
func layer(name, unit, better string, moves ...target) decl {
	return decl{name: name, unit: unit, better: better, moves: moves}
}

func lagOnAll(metric string) []target {
	return []target{{metric, wPerLevel}, {metric, wRHHH}, {metric, wSliding}, {metric, wContinuous}}
}

// perLayerDecls are the single-layer metrics of the traced run and the
// isolated kernels; layer = module name.
var perLayerDecls = []decl{
	layer("trace.decode_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wRHHH}),
	layer("trace.pack_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wRHHH}),
	layer("hashx.partition_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wRHHH}),
	layer("hashx.calib_mix64_ns", "ns", "lower"),
	layer("pipeline.observe_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wPerLevel}, target{"e2e_mpps", wRHHH}),
	layer("pipeline.handoff_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wPerLevel}, target{"e2e_mpps", wContinuous}),
	layer("pipeline.stage_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wRHHH}),
	layer("pipeline.snapshot_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wSliding}),
	layer("pipeline.snapshot_ms_p50", "ms", "lower", target{"report_lag_ms_p50", wSliding}, target{"e2e_mpps", wSliding}),
	layer("pipeline.barrier_ms_p50", "ms", "lower", lagOnAll("report_lag_ms_p50")...),
	layer("pipeline.barrier_merge_ms_mean", "ms", "lower", target{"report_lag_ms_p50", wSliding}, target{"report_lag_ms_p50", wContinuous}),
	layer("pipeline.drain_wait_ms_p50", "ms", "lower", target{"report_lag_ms_p50", wPerLevel}),
	layer("pipeline.ring_high_water", "count", "lower"),
	layer("pipeline.shard_skew", "ratio", "lower"),
	layer("pipeline.batches", "count", "lower"),
	layer("pipeline.seals", "count", "higher"),
	layer("pipeline.dropped_packets", "count", "lower"),
	layer("pipeline.degraded_merges", "count", "lower"),
	layer("pipeline.worker_util_est", "ratio", "lower"),
	layer("detector.single_ns_per_pkt", "ns", "lower"),
	layer("hhh.update_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wPerLevel}),
	layer("hhh.merge_us", "us", "lower", target{"report_lag_ms_p50", wPerLevel}, target{"report_lag_ms_p50", wRHHH}),
	layer("hhh.query_us", "us", "lower", target{"report_lag_ms_p50", wPerLevel}, target{"report_lag_ms_p50", wRHHH}),
	layer("swhh.update_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wSliding}),
	layer("swhh.advance_us", "us", "lower", target{"report_lag_ms_p50", wSliding}),
	layer("swhh.merge_us", "us", "lower", target{"report_lag_ms_p50", wSliding}, target{"e2e_mpps", wSliding}),
	layer("swhh.query_us", "us", "lower", target{"report_lag_ms_p50", wSliding}, target{"e2e_mpps", wSliding}),
	layer("swhh.memento_update_ns_per_pkt", "ns", "lower"),
	layer("swhh.memento_merge_us", "us", "lower"),
	layer("swhh.memento_query_us", "us", "lower"),
	layer("continuous.update_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wContinuous}),
	layer("continuous.merge_us", "us", "lower", target{"report_lag_ms_p50", wContinuous}),
	layer("continuous.query_us", "us", "lower", target{"report_lag_ms_p50", wContinuous}),
	layer("continuous.active_len", "count", "lower"),
	layer("sketch.spacesaving_update_ns", "ns", "lower", target{"e2e_mpps", wPerLevel}),
	layer("sketch.spacesaving_merge_us", "us", "lower", target{"report_lag_ms_p50", wSliding}),
	layer("sketch.exact_update_ns", "ns", "lower"),
	layer("tdbf.add_ns", "ns", "lower", target{"e2e_mpps", wContinuous}),
	layer("tdbf.estimate_ns", "ns", "lower", target{"e2e_mpps", wContinuous}),
	layer("tdbf.merge_us", "us", "lower", target{"report_lag_ms_p50", wContinuous}),
	layer("wire.encode_us_per_frame", "us", "lower", target{"report_lag_ms_p50", wSliding}, target{"report_lag_ms_p50", wContinuous}),
	layer("wire.decode_us_per_frame", "us", "lower", target{"report_lag_ms_p50", wSliding}, target{"report_lag_ms_p50", wContinuous}),
	layer("wire.frame_bytes", "B", "lower", target{"seal_bytes_per_report", wSliding}, target{"alloc_bytes_per_pkt", wSliding}),
	layer("aggregate.ingest_us_per_frame", "us", "lower", target{"report_lag_ms_p50", wSliding}, target{"report_lag_ms_p50", wContinuous}),
	layer("aggregate.ingest_ns_per_pkt", "ns", "lower", target{"e2e_mpps", wSliding}),
	layer("aggregate.fanin4_us_per_frame", "us", "lower"),
	layer("aggregate.report_read_ns", "ns", "lower"),
	layer("aggregate.frames", "count", "higher"),
	layer("aggregate.late_frames", "count", "lower"),
	layer("aggregate.rejected_frames", "count", "lower"),
	layer("aggregate.degraded_merges", "count", "lower"),
	layer("pcap.decode_ns_per_pkt", "ns", "lower"),
	layer("telemetry.scrape_us", "us", "lower"),
	layer("telemetry.samples", "count", "lower"),
	layer("oracle.reports_checked", "count", "higher"),
	layer("oracle.bound_violations", "count", "lower"),
	layer("oracle.worst_over_frac", "ratio", "lower"),
	layer("oracle.worst_under_frac", "ratio", "lower"),
	layer("oracle.hidden_total", "count", "higher"),
	layer("oracle.hidden_missed", "count", "lower"),
	layer("bench.wall_ns_per_pkt", "ns", "lower"),
	layer("bench.unattributed_ns_per_pkt", "ns", "lower"),
	layer("bench.trace_overhead_pct", "%", "lower"),
	// Demoted from the end-to-end list (README, "Steadiness"): the p90 of
	// the report lag does not hold its bound across seeds on a shared
	// 2-vCPU host, and the mean recall and precision of the sampled engines
	// swing by a fifth from seed to seed. Correctness is gated by failed
	// operations, not by these.
	layer("report_lag_ms_p90", "ms", "lower"),
	layer("report_lag_samples", "count", "higher"),
	layer("oracle.mean_recall", "ratio", "higher"),
	layer("oracle.mean_precision", "ratio", "higher"),
}

// sumShards adds a per-shard registry family over the fixed shard count.
func sumShards(f func(sample string) float64, family string) (total, max float64) {
	for i := 0; i < shards; i++ {
		v := f(fmt.Sprintf(`%s{shard="%d"}`, family, i))
		total += v
		max = math.Max(max, v)
	}
	return total, max
}

// engineKernel is the isolated update kernel of the engine the workload's
// shards run.
func engineKernel(w *workload) string {
	switch w.mode {
	case hiddenhhh.ModeSliding:
		return "swhh.update_ns_per_pkt"
	case hiddenhhh.ModeContinuous:
		return "continuous.update_ns_per_pkt"
	default:
		return "hhh.update_ns_per_pkt"
	}
}

// perLayer assembles every per-layer value: producer-side spans from the
// traced segment, worker-side figures from the registry the pipeline
// already fills and from the OnSeal records, kernels as measured, the
// verify pass, and the harness-health rows. Span rows are per packet of
// the traced laps; registry and OnSeal rows per packet of all timed laps.
func perLayer(w *workload, tr *segment, k map[string]float64, v *verdict) map[string]float64 {
	l := make(map[string]float64, len(perLayerDecls))
	for name, val := range k {
		l[name] = val
	}
	var decode, observe, snap, wall time.Duration
	var snapMs []float64
	var tracedPkts, allWall float64
	for _, lap := range tr.laps {
		allWall += float64(lap.wall)
		if !lap.traced {
			continue
		}
		tracedPkts += float64(lap.packets)
		wall += lap.wall
		decode += lap.decode
		observe += lap.observe
		for _, sn := range lap.snaps {
			snap += sn.d
			snapMs = append(snapMs, ms(sn.d))
		}
	}
	pk := float64(tr.packets())
	l["bench.wall_ns_per_pkt"] = float64(wall) / tracedPkts
	l["trace.decode_ns_per_pkt"] = float64(decode) / tracedPkts
	l["pipeline.observe_ns_per_pkt"] = float64(observe) / tracedPkts
	l["pipeline.snapshot_ns_per_pkt"] = float64(snap) / tracedPkts
	l["pipeline.snapshot_ms_p50"] = percentile(snapMs, 0.5)
	l["bench.unattributed_ns_per_pkt"] = float64(wall-decode-observe-snap) / tracedPkts
	// Ring push including full-ring wait: the time the producer waited for
	// the engines. A Snapshot's staging flush is in here too, so on the
	// Snapshot-driven workloads stage slightly undercounts.
	l["pipeline.handoff_ns_per_pkt"] = tr.delta("hhh_pipeline_handoff_seconds_sum") * 1e9 / pk
	l["pipeline.stage_ns_per_pkt"] = math.Max(0, l["pipeline.observe_ns_per_pkt"]-l["pipeline.handoff_ns_per_pkt"])
	l["pipeline.batches"] = tr.delta("hhh_pipeline_handoff_seconds_count")

	var barrier, lag []float64
	var ingest time.Duration
	for _, rec := range tr.timed {
		barrier = append(barrier, ms(rec.entry.Sub(rec.trigger)))
		lag = append(lag, ms(rec.done.Sub(rec.trigger)))
		ingest += rec.done.Sub(rec.entry)
	}
	// The registry times the whole barrier completion, the benchmark's
	// callback included; take the callback back out. Both sides are cut at
	// the same wall-clock instant (the scrape before the first timed lap).
	var callback time.Duration
	for _, rec := range tr.seals {
		if rec.entry.After(tr.timedStart) {
			callback += rec.done.Sub(rec.entry)
		}
	}
	merges := tr.delta("hhh_pipeline_barrier_merge_seconds_count")
	l["pipeline.barrier_ms_p50"] = percentile(barrier, 0.5)
	l["pipeline.barrier_merge_ms_mean"] = math.Max(0,
		(tr.delta("hhh_pipeline_barrier_merge_seconds_sum")*1e3-ms(callback))/math.Max(1, merges))
	l["pipeline.drain_wait_ms_p50"] = math.Max(0, l["pipeline.barrier_ms_p50"]-l["pipeline.barrier_merge_ms_mean"])
	l["report_lag_ms_p90"] = percentile(lag, 0.9)
	l["report_lag_samples"] = float64(len(lag))
	l["aggregate.ingest_us_per_frame"] = float64(ingest) / 1e3 / math.Max(1, float64(len(lag)))
	l["aggregate.ingest_ns_per_pkt"] = float64(ingest) / pk

	_, l["pipeline.ring_high_water"] = sumShards(func(s string) float64 { return tr.scrape1[s] }, "hhh_pipeline_ring_high_water")
	absorbed, most := sumShards(tr.delta, "hhh_pipeline_shard_packets_total")
	l["pipeline.shard_skew"] = most / math.Max(1, absorbed/shards)
	l["pipeline.seals"] = tr.delta(`hhh_pipeline_window_seals_total{result="normal"}`) +
		tr.delta(`hhh_pipeline_window_seals_total{result="degraded"}`)
	l["pipeline.dropped_packets"] = float64(tr.stats.DroppedPackets)
	l["pipeline.degraded_merges"] = float64(tr.stats.DegradedWindows)
	// Names the bottleneck: the share of the processors the shard workers
	// can use that their update kernels account for; ~1 when the workers
	// are the limit, <<1 when the producer is.
	l["pipeline.worker_util_est"] = l[engineKernel(w)] * absorbed / (allWall * min(shards, procs))

	for _, n := range tr.agg.Nodes {
		l["aggregate.frames"] += float64(n.Frames)
	}
	l["aggregate.late_frames"] = float64(tr.agg.LateFrames)
	l["aggregate.rejected_frames"] = float64(tr.agg.Rejected)
	l["aggregate.degraded_merges"] = float64(tr.agg.DegradedMerges)

	for _, sr := range v.report.Snapshots {
		if sr.Warm {
			l["oracle.reports_checked"]++
		}
	}
	l["oracle.mean_recall"] = v.report.MeanRecall
	l["oracle.mean_precision"] = v.report.MeanPrecision
	l["oracle.bound_violations"] = float64(v.report.Violations)
	l["oracle.worst_over_frac"] = v.report.WorstOver
	l["oracle.worst_under_frac"] = v.report.WorstUnder
	l["oracle.hidden_total"] = float64(v.hiddenTotal)
	l["oracle.hidden_missed"] = float64(v.hiddenMissed)

	l["bench.trace_overhead_pct"] = 100 * (tr.mpps(false)/tr.mpps(true) - 1)
	return l
}

// health checks the harness itself on the traced run: tracing must cost
// under 5 % and the producer spans must account for 90 % of the wall.
func health(l map[string]float64) []string {
	var bad []string
	if o := l["bench.trace_overhead_pct"]; o > 5 {
		bad = append(bad, fmt.Sprintf("bench.trace_overhead_pct %.1f > 5", o))
	}
	if u, wall := l["bench.unattributed_ns_per_pkt"], l["bench.wall_ns_per_pkt"]; u > 0.1*wall {
		bad = append(bad, fmt.Sprintf("bench.unattributed_ns_per_pkt %.1f > 10%% of %.1f", u, wall))
	}
	return bad
}

// printBudget prints the per-layer ns/packet budget: the producer rows
// tile the producer goroutine's wall and sum to it; the worker and kernel
// rows beside them say why the producer rows are as large as they are.
// Largest row first in both blocks.
func printBudget(out io.Writer, w *workload, l map[string]float64) {
	type row struct {
		name string
		ns   float64
	}
	wall := l["bench.wall_ns_per_pkt"]
	show := func(title string, rows []row, total bool) {
		sort.Slice(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
		fmt.Fprintf(out, "  %s\n", title)
		var sum float64
		for _, r := range rows {
			fmt.Fprintf(out, "    %-34s %10.1f ns/pkt %6.1f%%\n", r.name, r.ns, 100*r.ns/wall)
			sum += r.ns
		}
		if total {
			fmt.Fprintf(out, "    %-34s %10.1f ns/pkt   (wall %.1f = 1000/%.3f Mpkt/s)\n", "sum", sum, wall, 1000/wall)
		}
	}
	producer := []row{
		{"trace.decode_ns_per_pkt", l["trace.decode_ns_per_pkt"]},
		{"pipeline.stage_ns_per_pkt", l["pipeline.stage_ns_per_pkt"]},
		{"pipeline.handoff_ns_per_pkt", l["pipeline.handoff_ns_per_pkt"]},
		{"pipeline.snapshot_ns_per_pkt", l["pipeline.snapshot_ns_per_pkt"]},
		{"bench.unattributed_ns_per_pkt", l["bench.unattributed_ns_per_pkt"]},
	}
	show("producer goroutine (rows tile the wall)", producer, true)
	beside := []row{
		{engineKernel(w) + " x absorbed share / processor", l["pipeline.worker_util_est"] * wall},
		{"aggregate.ingest_ns_per_pkt", l["aggregate.ingest_ns_per_pkt"]},
		{"trace.pack_ns_per_pkt (kernel)", l["trace.pack_ns_per_pkt"]},
		{"hashx.partition_ns_per_pkt (kernel)", l["hashx.partition_ns_per_pkt"]},
		{"detector.single_ns_per_pkt (kernel)", l["detector.single_ns_per_pkt"]},
	}
	show("workers and kernels (explain the rows above; do not add up)", beside, false)
}

// span is one record of the in-memory trace. Aggregated spans (count > 1)
// cover Count calls whose durations were summed: start is the parent's
// start and end is start plus the summed duration.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the first timed lap began
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count,omitempty"`
	// ReportSeq is the seal sequence number, the identifier the spans of
	// one report share.
	ReportSeq int64 `json:"report_seq,omitempty"`
}

// writeSpans writes the traced segment's spans to dir/trace-<workload>.json:
// lap -> trace.decode / pipeline.observe aggregated per lap, and report ->
// pipeline.snapshot -> pipeline.barrier -> aggregate.ingest individually.
func writeSpans(dir string, w *workload, tr *segment) (string, error) {
	var spans []span
	rel := func(t time.Time) int64 { return int64(t.Sub(tr.timedStart)) }
	add := func(s span) int {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s.ID
	}
	snapAt := map[int64]snapRec{}
	for i, lap := range tr.laps {
		start := rel(lap.start)
		id := add(span{Name: fmt.Sprintf("lap %d", i+1), StartNs: start, EndNs: start + int64(lap.wall)})
		if !lap.traced {
			continue // the overhead reference laps record no spans of their own
		}
		add(span{Parent: id, Name: "trace.decode", StartNs: start, EndNs: start + int64(lap.decode), Count: lap.batches})
		add(span{Parent: id, Name: "pipeline.observe", StartNs: start, EndNs: start + int64(lap.observe), Count: lap.batches})
		for _, sn := range lap.snaps {
			snapAt[sn.at] = sn
		}
	}
	for _, rec := range tr.timed {
		parent := add(span{Name: "report", StartNs: rel(rec.trigger), EndNs: rel(rec.done), ReportSeq: rec.seq})
		if sn, ok := snapAt[rec.end]; ok {
			parent = add(span{Parent: parent, Name: "pipeline.snapshot", StartNs: rel(sn.start),
				EndNs: rel(sn.start.Add(sn.d)), ReportSeq: rec.seq})
		}
		parent = add(span{Parent: parent, Name: "pipeline.barrier", StartNs: rel(rec.trigger), EndNs: rel(rec.entry), ReportSeq: rec.seq})
		add(span{Parent: parent, Name: "aggregate.ingest", StartNs: rel(rec.entry), EndNs: rel(rec.done), ReportSeq: rec.seq})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+w.name+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
