package hiddenhhh

import (
	"io"
	"time"

	"hiddenhhh/internal/telemetry"
)

// MetricsRegistry collects runtime metrics — counters, gauges,
// fixed-bucket histograms, labeled families — and writes them in
// Prometheus text exposition format. It is the registry behind
// ShardedConfig.Metrics, InstrumentDetector and the hhhserve /metrics
// endpoint; see internal/telemetry for the metric model and the naming
// and cardinality conventions.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// WriteMetrics writes every family registered on r in Prometheus text
// exposition format (the payload hhhserve serves on /metrics).
func WriteMetrics(w io.Writer, r *MetricsRegistry) error { return r.WritePrometheus(w) }

// ValidateMetricsExposition parses a Prometheus text exposition and
// checks it against the grammar and coherence rules the repository's
// registries guarantee (no duplicate families or samples, histogram
// bucket/sum/count coherence). It returns the number of sample lines
// validated; tests use it as the conformance oracle for /metrics.
func ValidateMetricsExposition(text string) (samples int, err error) {
	return telemetry.ValidateExposition(text)
}

// AttackEvent is one structured attack lifecycle event emitted by an
// AttackWatcher: an onset (a prefix's conditioned share of the window
// mass crossed the threshold) or the matching offset.
type AttackEvent = telemetry.Event

// AttackEventType discriminates attack lifecycle events.
type AttackEventType = telemetry.EventType

// Attack lifecycle event types.
const (
	// AttackOnset marks a prefix crossing the watcher threshold.
	AttackOnset = telemetry.EventOnset
	// AttackOffset marks the end of an attack episode.
	AttackOffset = telemetry.EventOffset
)

// AttackWatcherConfig parameterises NewAttackWatcher; the zero value
// picks the documented defaults (threshold 0.25, MinLevel 1, HoldOn 1,
// HoldOff 2, capacity 256).
type AttackWatcherConfig = telemetry.WatcherConfig

// AttackWatcher turns per-window HHH sets into attack onset/offset
// events with hysteresis: feed it one ObserveWindow call per sampled
// window and read the ring-buffered events back with Events. Register
// exposes the hhh_attacks_active gauge and onset/offset counters on a
// MetricsRegistry. hhhserve samples its detector once per closed window
// and serves the watcher on /events.
type AttackWatcher = telemetry.Watcher

// NewAttackWatcher builds an attack onset/offset watcher.
func NewAttackWatcher(cfg AttackWatcherConfig) *AttackWatcher {
	return telemetry.NewWatcher(cfg)
}

// instrumentedDetector wraps a Detector with ingest counters and a
// snapshot latency histogram (see InstrumentDetector).
type instrumentedDetector struct {
	d        Detector
	packets  *telemetry.Counter
	bytes    *telemetry.Counter
	snapshot *telemetry.Histogram
}

// InstrumentDetector wraps a single-goroutine Detector so that its
// ingest volume (hhh_detector_packets_total / hhh_detector_bytes_total,
// labeled engine×mode), snapshot latency and summary footprint are
// registered on r — the same families a sharded detector with
// ShardedConfig.Metrics reports, so dashboards work across both.
// Register at most one detector per engine×mode pair on a registry.
// Unlike the sharded pipeline's function-backed wiring, the wrapper
// counts on the ingest path itself (two atomic adds per batch); it is
// meant for evaluation harnesses (cmd/hhheval) and low-rate detectors,
// not the sharded hot path — sharded detectors instrument themselves
// through ShardedConfig.Metrics instead.
func InstrumentDetector(d Detector, r *MetricsRegistry, engine, mode string) Detector {
	w := &instrumentedDetector{d: d}
	w.packets = r.CounterVec("hhh_detector_packets_total",
		"Packets observed by the detector, by engine and window model.",
		"engine", "mode").With(engine, mode)
	w.bytes = r.CounterVec("hhh_detector_bytes_total",
		"Bytes observed by the detector, by engine and window model.",
		"engine", "mode").With(engine, mode)
	w.snapshot = r.HistogramVec("hhh_detector_snapshot_seconds",
		"Snapshot latency: barrier broadcast to published merged HHH set.",
		telemetry.LatencyBuckets, "engine", "mode").With(engine, mode)
	r.GaugeVec("hhh_detector_summary_bytes",
		"Current summary state footprint (all shard summaries plus the merge accumulator).",
		"engine", "mode").WithFunc(func() float64 { return float64(d.SizeBytes()) }, engine, mode)
	return w
}

// Observe implements Detector, counting the packet through to d.
func (w *instrumentedDetector) Observe(p *Packet) {
	w.d.Observe(p)
	w.packets.Inc()
	w.bytes.Add(int64(p.Size))
}

// ObserveBatch implements Detector, counting the batch through to d.
func (w *instrumentedDetector) ObserveBatch(pkts []Packet) {
	w.d.ObserveBatch(pkts)
	var bytes int64
	for i := range pkts {
		bytes += int64(pkts[i].Size)
	}
	w.packets.Add(int64(len(pkts)))
	w.bytes.Add(bytes)
}

// Snapshot implements Detector, timing the wrapped snapshot.
func (w *instrumentedDetector) Snapshot(now int64) Set {
	t0 := time.Now()
	set := w.d.Snapshot(now)
	w.snapshot.Observe(time.Since(t0).Seconds())
	return set
}

// SizeBytes implements Detector.
func (w *instrumentedDetector) SizeBytes() int { return w.d.SizeBytes() }
