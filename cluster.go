// Cluster mode: the public surface for running hidden-HHH detection
// across multiple processes. Ingest processes run a ShardedDetector
// with ShardedConfig.OnSeal set; every completed merge arrives at the
// callback as a SealedSummary whose Frame is a stable, versioned,
// CRC-framed binary encoding (see ARCHITECTURE.md, "Cluster mode").
// An aggregator process feeds frames from the whole fleet into an
// Aggregator, which aligns them per window (windowed engines) or
// latest-frame-per-node (sliding and continuous engines), merges them
// through the same Merge contracts the in-process shards use, and
// publishes a global report. Late or missing nodes degrade the report's
// declared coverage, never its correctness.

package hiddenhhh

import (
	"fmt"

	"hiddenhhh/internal/pipeline"
)

// SealedSummary is one merged summary sealed into a wire frame plus the
// alignment metadata an Aggregator needs: the window span, a per-process
// monotonic sequence number, and the local degradation verdict. Its Delta
// field says whether the frame is self-contained (false) or carries only
// what changed since the sender's previous seal, which it names and has to
// be applied over — the form EngineWCSS seals in, bar its first seal, every
// 64th and the one after ResyncSeal. An Aggregator takes both; whatever
// stores frames must keep a delta with the frames it builds on.
type SealedSummary = pipeline.Sealed

// AggregatorConfig configures NewAggregator.
type AggregatorConfig = pipeline.AggregatorConfig

// AggregatorReport is one published global merge: the fleet-wide HHH
// set, the span it covers, and its coverage markers.
type AggregatorReport = pipeline.AggReport

// AggregatorStats is the aggregator-wide counter snapshot, including
// per-node frame counts, sequence high-water marks and lag.
type AggregatorStats = pipeline.AggStats

// AggregatorNodeStats is the per-ingest-node view inside
// AggregatorStats.
type AggregatorNodeStats = pipeline.AggNodeStats

// ErrFrameRejected wraps every Aggregator.Ingest rejection that is the
// sender's fault: undecodable frames, kind or hierarchy drift against
// the fleet, and merge geometry mismatches.
var ErrFrameRejected = pipeline.ErrFrameRejected

// ErrNeedFull is Aggregator.Ingest's answer to a delta frame
// (SealedSummary.Delta) it holds no base for. It is not an
// ErrFrameRejected: the node's retained summary is untouched and keeps
// contributing, and the sender recovers with ShardedDetector.ResyncSeal.
var ErrNeedFull = pipeline.ErrNeedFull

// Aggregator merges sealed summary frames from a fleet of ingest
// processes into a global HHH report. Ingest validates every frame
// before it touches an engine and never panics on malformed input; all
// methods are safe for concurrent use. See pipeline.Aggregator for the
// alignment and degradation semantics.
type Aggregator = pipeline.Aggregator

// NewAggregator builds an aggregator for a fleet of cfg.Expected ingest
// nodes shipping sealed frames of one engine kind over one hierarchy.
// Callers should Close it to release pending round timers.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	a, err := pipeline.NewAggregator(cfg)
	if err != nil {
		return nil, fmt.Errorf("hiddenhhh: %w", err)
	}
	return a, nil
}
