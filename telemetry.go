package hiddenhhh

import (
	"io"

	"hiddenhhh/internal/telemetry"
)

// MetricsRegistry collects runtime metrics — counters, gauges,
// fixed-bucket histograms, labeled families — and writes them in
// Prometheus text exposition format. It is the registry behind
// ShardedConfig.Metrics and the hhhserve /metrics endpoint; see
// internal/telemetry for the metric model and the naming and cardinality
// conventions.
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
