// Telemetry instrumentation for the sharded pipeline.
//
// The wiring deliberately splits by cost class. Everything that already
// exists as an atomic counter or mutex-guarded field — ingest totals,
// per-shard packet counts, ring depths, shed/quarantine accounting,
// merge/seal counts — is exported through function-backed metrics that
// read the live value at scrape time, adding zero instructions to the
// ingest path. In particular the degradation families read the very same
// per-shard atomics Degradation() and DroppedMass() sum, so /metrics and
// the JSON degradation report can never disagree. Only three histograms
// observe actively, and all on event-frequency paths: batch hand-off
// latency (once per staged batch, ~hundreds of packets), barrier-merge
// duration (once per window close or query barrier), and snapshot
// latency (once per Snapshot). The producer's stageRun loop carries no
// instrumentation: its three totals are one atomic add each per run.
package pipeline

import (
	"strconv"

	"hiddenhhh/internal/telemetry"
)

// pipeTelemetry holds the pipeline's active (non-function-backed) metric
// handles; nil when Config.Metrics is unset, and every observation site
// is nil-guarded.
type pipeTelemetry struct {
	handoff  *telemetry.Histogram
	merge    *telemetry.Histogram
	snapshot *telemetry.Histogram
}

// registerMetrics wires d into r and returns the active handles. Called
// once from New; the function-backed families keep reading d's live
// counters on every scrape.
func (d *Sharded) registerMetrics(r *telemetry.Registry) *pipeTelemetry {
	engine, mode := d.cfg.Engine.String(), d.cfg.Mode.String()

	// Detector-level families: engine×mode labeled, one child per
	// detector instance (hhhserve runs exactly one).
	r.CounterVec("hhh_detector_packets_total",
		"Packets observed by the detector, by engine and window model.",
		"engine", "mode").WithFunc(d.packets.Load, engine, mode)
	r.CounterVec("hhh_detector_bytes_total",
		"Bytes observed by the detector, by engine and window model.",
		"engine", "mode").WithFunc(d.bytes.Load, engine, mode)
	r.GaugeVec("hhh_detector_summary_bytes",
		"Current summary state footprint (all shard summaries plus the merge accumulator).",
		"engine", "mode").WithFunc(func() float64 { return float64(d.SizeBytes()) }, engine, mode)
	snapshot := r.HistogramVec("hhh_detector_snapshot_seconds",
		"Snapshot latency: barrier broadcast to published merged HHH set.",
		telemetry.LatencyBuckets, "engine", "mode").With(engine, mode)

	// Pipeline merge/seal families. Windows are sealed by published
	// merges (plus the coordinator's empty-window fast path), so the seal
	// counters read the same atomics and published WindowReport Stats
	// reports — no lock is shared with the merge or ingest paths.
	seals := r.CounterVec("hhh_pipeline_window_seals_total",
		"Published merges (window closes and query barriers), split by whether every shard contributed.",
		"result")
	seals.WithFunc(func() int64 { return d.merges.Load() - d.degradedMerges.Load() }, "normal")
	seals.WithFunc(d.degradedMerges.Load, "degraded")
	folds := r.CounterVec("hhh_pipeline_fold_slots_total",
		"Sealed-frame slots of the merge accumulator, by whether a barrier folded them afresh or reused its previous fold (engines with frame rings only).",
		"result")
	folds.WithFunc(d.foldedSlots.Load, "folded")
	folds.WithFunc(d.keptSlots.Load, "reused")
	registerEngineMetrics(r, d.merged)
	if st := d.seal; st != nil {
		n := r.CounterVec("hhh_pipeline_seals_total",
			"Frames handed to OnSeal, by form: full (decodes on its own) or delta (the ring slots written since the previous seal; wcss only). Their sum is the newest Sealed.Seq.",
			"form")
		b := r.CounterVec("hhh_pipeline_seal_bytes_total",
			"Bytes of the frames handed to OnSeal, by form.", "form")
		for i, form := range [...]string{"full", "delta"} {
			n.WithFunc(st.seals[i].Load, form)
			b.WithFunc(st.sealBytes[i].Load, form)
		}
	}
	r.CounterFunc("hhh_pipeline_filtered_packets_total",
		"Packets observed but kept out of every shard by the hierarchy's address-family filter.",
		d.filtered.Load)
	r.CounterFunc("hhh_pipeline_barriers_total",
		"Barrier tokens broadcast to the shards (window closes plus query barriers).",
		d.barrierSeq.Load)
	r.GaugeFunc("hhh_pipeline_last_window_bytes",
		"Total mass of the most recently published merge (the HHH threshold denominator).",
		func() float64 { return float64(d.pub.Load().Bytes) })
	r.CounterFunc("hhh_pipeline_panics_total",
		"Engine panics recovered by the shard workers' panic isolation.",
		func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.panicked
		})

	// Per-shard families. Shed and quarantine children read the exact
	// atomics behind Degradation()/DroppedMass() — 1:1 by construction.
	ringDepth := r.GaugeVec("hhh_pipeline_ring_depth",
		"Current occupancy of the shard's ingest ring, in queued messages.", "shard")
	ringHigh := r.GaugeVec("hhh_pipeline_ring_high_water",
		"Highest ring occupancy seen at a batch hand-off since start.", "shard")
	shardPkts := r.CounterVec("hhh_pipeline_shard_packets_total",
		"Packets absorbed into the shard's summary.", "shard")
	tableUpds := r.CounterVec("hhh_pipeline_table_updates_total",
		"Space-Saving table updates the shard's coalescing block has applied (perlevel and wcss; 0 for other engines), as of its last batch or barrier: over hhh_pipeline_shard_packets_total, the table updates a packet costs.", "shard")
	shedPkts := r.CounterVec("hhh_pipeline_shed_packets_total",
		"Packets shed by the shard: ring-full drops, quarantined substream, missed merges.", "shard")
	shedBytes := r.CounterVec("hhh_pipeline_shed_bytes_total",
		"Bytes shed by the shard: ring-full drops, quarantined substream, missed merges.", "shard")
	quarantined := r.GaugeVec("hhh_pipeline_shard_quarantined",
		"1 while the shard's engine is quarantined after a panic, else 0.", "shard")
	lag := r.GaugeVec("hhh_pipeline_shard_barrier_lag",
		"Broadcast barriers the shard has not yet passed (0 = caught up).", "shard")
	sumBytes := r.GaugeVec("hhh_pipeline_shard_summary_bytes",
		"Last published footprint of the shard's summary.", "shard")
	for i, s := range d.shards {
		s, is := s, strconv.Itoa(i)
		ringDepth.WithFunc(func() float64 { return float64(s.ring.depth()) }, is)
		ringHigh.WithFunc(func() float64 { return float64(s.highWater.Load()) }, is)
		shardPkts.WithFunc(s.packets.Load, is)
		tableUpds.WithFunc(s.tableUpdates.Load, is)
		shedPkts.WithFunc(s.droppedPackets.Load, is)
		shedBytes.WithFunc(s.droppedBytes.Load, is)
		quarantined.WithFunc(func() float64 {
			if s.quarantined.Load() {
				return 1
			}
			return 0
		}, is)
		lag.WithFunc(func() float64 {
			return float64(d.barrierSeq.Load() - s.lastBarrier.Load())
		}, is)
		sumBytes.WithFunc(func() float64 { return float64(s.size.Load()) }, is)
	}

	return &pipeTelemetry{
		handoff: r.Histogram("hhh_pipeline_handoff_seconds",
			"Batch hand-off latency: staging a full batch into its shard ring, including any bounded ring-full wait.",
			telemetry.LatencyBuckets),
		merge: r.Histogram("hhh_pipeline_barrier_merge_seconds",
			"Barrier-merge duration: merging the registered shard summaries, querying, and publishing.",
			telemetry.LatencyBuckets),
		snapshot: snapshot,
	}
}
