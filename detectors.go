package hiddenhhh

import (
	"fmt"
	"strings"
	"time"

	"hiddenhhh/internal/pipeline"
)

// Detector is the uniform streaming interface over the three window
// models the paper compares. Feed packets in time order with ObserveBatch;
// read the current report with Snapshot. Implementations are not safe for
// concurrent use.
type Detector interface {
	// ObserveBatch processes a run of packets in time order — the one way
	// packets enter. How a stream is cut into runs changes no report: a
	// run is packed once into a reused columnar key batch and handed to
	// the engine whole, window-boundary checks amortised over it.
	// Steady-state ingest allocates nothing in any of the three window
	// models.
	ObserveBatch(pkts []Packet)
	// Snapshot returns the detector's current HHH set at time now (ns,
	// >= the last observed timestamp). For windowed detectors this is
	// the set reported at the end of the most recently completed window.
	Snapshot(now int64) Set
	// SizeBytes reports the detector's state footprint.
	SizeBytes() int
}

// Accounting exposes the reference frame behind a detector's Snapshot:
// the total mass the report's threshold was computed against (window
// bytes, covered sliding bytes, or decayed mass, truncated to int64) and
// the time span the report aggregates. Every detector in this package —
// windowed, sliding, continuous and their sharded variants — implements
// it; the oracle-differential harness uses it to pin a detector's own
// denominator and coverage against the exact reference.
//
// Both methods follow Snapshot's contract — call them from the ingest
// goroutine, immediately after Snapshot(now) with the same now; the
// results describe that snapshot's report. (The single-goroutine
// detectors also advance window state themselves when called out of
// order, but the sharded pipeline reads the last published merge, so
// only the call-after-Snapshot pattern is portable across
// implementations.)
type Accounting interface {
	// ReportMass returns the threshold denominator of Snapshot(now).
	ReportMass(now int64) int64
	// CoveredSpan returns the time span Snapshot(now) aggregates: the
	// last closed window [lo, hi) for windowed detectors, the
	// frame-aligned covered span [lo, now] for sliding ones, and
	// (math.MinInt64, now] for the continuous detector, whose
	// exponentially decayed aggregate has no sharp lower edge.
	CoveredSpan(now int64) (lo, hi int64)
}

// Engine selects a detector's summary structure: the per-window summary
// of a windowed detector (EngineExact, EnginePerLevel, EngineRHHH) or
// the sliding summary of a sliding detector (EngineWCSS, EngineMemento).
type Engine int

// Supported engines. The first three are windowed; the last two sliding.
const (
	// EngineExact keeps an exact per-source byte map (the offline
	// reference, linear state).
	EngineExact Engine = iota
	// EnginePerLevel runs one Space-Saving summary per hierarchy level
	// (the classical data-plane design).
	EnginePerLevel
	// EngineRHHH samples one level per packet (Ben Basat et al.).
	EngineRHHH
	// EngineWCSS is the sliding default: a ring of per-frame Space-Saving
	// summaries per level (Window Compact Space Saving).
	EngineWCSS
	// EngineMemento is the Memento-class sliding engine: one aged counter
	// table per level with amortized frame expiry, combined with
	// RHHH-style level sampling (H-Memento) — O(1) counters touched per
	// packet and no per-frame rescan at query time.
	EngineMemento
)

// String names the engine ("exact", "perlevel", "rhhh", "wcss",
// "memento").
func (e Engine) String() string { return pipeline.Kind(e).String() }

// ParseEngine resolves an engine by the name String prints.
func ParseEngine(name string) (Engine, error) { return parseEnum("engine", name, EngineMemento+1) }

// parseEnum resolves name among the values [0, end) of a String-named
// enum; the error lists them.
func parseEnum[T interface {
	~int
	String() string
}](what, name string, end T) (T, error) {
	var names []string
	for v := T(0); v < end; v++ {
		if v.String() == name {
			return v, nil
		}
		names = append(names, v.String())
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, name, strings.Join(names, ", "))
}

// WindowedConfig configures NewWindowedDetector.
type WindowedConfig struct {
	// Window is the disjoint window length. Required.
	Window time.Duration
	// Phi is the threshold fraction of per-window bytes. Required.
	Phi float64
	// Engine selects the summary structure. Default EngineExact.
	Engine Engine
	// Counters per level for sketch engines. Default 512.
	Counters int
	// Hierarchy is the prefix lattice to detect over. Defaults to the
	// IPv4 byte ladder; packets outside its address family are ignored.
	Hierarchy Hierarchy
	// Seed drives EngineRHHH sampling.
	Seed uint64
	// OnWindow, when set, receives every completed window's HHH set.
	OnWindow func(start, end int64, set Set)
}

// NewWindowedDetector builds a disjoint-window HHH detector. It applies
// the reset-per-window discipline the paper critiques: state is cleared
// at every boundary, so bursts straddling a boundary are split and can
// fall below threshold in both halves. SizeBytes reports the peak
// footprint over the windows seen.
func NewWindowedDetector(cfg WindowedConfig) (Detector, error) {
	return newSingle(pipeline.Config{
		Mode:      pipeline.ModeWindowed,
		Window:    cfg.Window,
		Phi:       cfg.Phi,
		Engine:    pipeline.Kind(cfg.Engine),
		Counters:  cfg.Counters,
		Hierarchy: cfg.Hierarchy,
		Seed:      cfg.Seed,
		OnWindow:  cfg.OnWindow,
	})
}

// newSingle builds the single-goroutine driver the three window-model
// constructors share: the same summary, window clock and report path as
// one shard of NewShardedDetector, without rings or workers.
func newSingle(cfg pipeline.Config) (Detector, error) {
	d, err := pipeline.NewSingle(cfg)
	if err != nil {
		return nil, fmt.Errorf("hiddenhhh: %w", err)
	}
	return d, nil
}

// Mode selects the window model a sharded detector parallelises.
type Mode int

// Supported sharded window models.
const (
	// ModeWindowed shards the disjoint-window detector: summaries reset
	// at every boundary and Snapshot reports the most recently completed
	// window's merged set.
	ModeWindowed Mode = iota
	// ModeSliding shards the WCSS-style sliding-window detector: each
	// shard keeps a frame ring per hierarchy level, and Snapshot merges
	// the live shard summaries frame by frame at the query timestamp.
	ModeSliding
	// ModeContinuous shards the time-decaying Bloom filter detector:
	// Snapshot merges the shard filters cell-wise (decay-to-common-time
	// plus add) at the query timestamp.
	ModeContinuous
)

// String names the mode ("windowed", "sliding", "continuous").
func (m Mode) String() string { return pipeline.Mode(m).String() }

// ParseMode resolves a window model by the name String prints.
func ParseMode(name string) (Mode, error) { return parseEnum("mode", name, ModeContinuous+1) }

// ShardedConfig configures NewShardedDetector.
type ShardedConfig struct {
	// Mode selects the window model. Default ModeWindowed.
	Mode Mode
	// Shards is the number of parallel worker shards. Default GOMAXPROCS.
	Shards int
	// Window is the disjoint window length (ModeWindowed), the sliding
	// span queries cover (ModeSliding), or the decay time constant tau
	// (ModeContinuous). Required.
	Window time.Duration
	// Phi is the threshold fraction of the mode's total mass: per-window
	// bytes, covered sliding-window bytes, or total decayed mass.
	// Required.
	Phi float64
	// Engine selects the per-shard summary structure. ModeWindowed takes
	// EngineExact (the default, lossless merge), EnginePerLevel or
	// EngineRHHH (bounded merge error, see SpaceSaving.Merge).
	// ModeSliding takes EngineWCSS (its frame-ring default — the windowed
	// engine values are also accepted and treated as EngineWCSS, as
	// pre-existing configurations relied on being ignored) or
	// EngineMemento (level-sampled aged tables, seeded per shard from
	// Seed). ModeContinuous fixes its engine (TDBFs) and ignores this.
	Engine Engine
	// Counters per level for sketch engines (per frame and level in
	// ModeSliding). Default 512.
	Counters int
	// Frames is ModeSliding's expiry granularity (coverage overshoots by
	// Window/Frames). Default 8.
	Frames int
	// Cells and Hashes size ModeContinuous's hashed levels' Bloom filters (a
	// level whose prefix space fits is held exactly in 2^r). Defaults 1<<16, 4.
	Cells  int
	Hashes int
	// Hierarchy is the prefix lattice every shard detects over. Defaults
	// to the IPv4 byte ladder; packets outside its address family are
	// ignored.
	Hierarchy Hierarchy
	// Seed drives EngineRHHH and EngineMemento level sampling (each
	// shard derives its own deterministic stream from it) and
	// ModeContinuous's filter hashes (shared verbatim across shards, so
	// the filters merge cell-wise).
	Seed uint64
	// OnWindow, when set, receives every completed window's merged HHH
	// set (ModeWindowed only). It runs on a worker goroutine (in window
	// order) and must not call back into the detector or block.
	OnWindow func(start, end int64, set Set)
	// OnSeal, when set, additionally receives every completed merge
	// sealed into a versioned wire frame — each window close in
	// ModeWindowed, each Snapshot barrier in the sliding and continuous
	// modes — ready to ship to an Aggregator in another process (cluster
	// mode). EngineWCSS seals deltas — the ring slots written since the
	// previous seal — between full frames (see SealedSummary.Delta and
	// ResyncSeal). Like OnWindow it runs on the merging goroutine and must
	// not call back into the detector (ResyncSeal excepted) or block.
	OnSeal func(SealedSummary)
	// Overload selects the ingest behaviour when a shard's ring stays
	// full: OverloadBlock (default) parks ingest until the ring drains —
	// lossless; OverloadShed bounds the wait at ShedWait and then drops
	// that shard's slice of the batch, every dropped packet and byte
	// accounted exactly (Stats, Degradation).
	Overload OverloadPolicy
	// ShedWait bounds the full-ring wait under OverloadShed. Default 1ms.
	ShedWait time.Duration
	// BarrierTimeout, when positive, bounds every merge barrier: a window
	// close or Snapshot that cannot gather every shard within the
	// deadline publishes a degraded merge from the shards that arrived
	// (stragglers rejoin at the next barrier, their unmerged window
	// slices shed and accounted), and Close abandons workers that fail to
	// drain, returning ErrDetectorStalled. Zero (default) keeps the
	// lossless unbounded waits.
	BarrierTimeout time.Duration
	// Metrics, when set, registers the detector's runtime telemetry on
	// the registry: ingest and degradation counters function-backed (read
	// at scrape time, exactly equal to Stats()/Degradation(), zero
	// ingest-path cost) plus hand-off, barrier-merge and snapshot latency
	// histograms observed at batch/barrier frequency. Register at most
	// one detector per engine×mode pair on a registry — the per-shard and
	// per-detector series would otherwise collide. Nil (default) disables
	// all instrumentation.
	Metrics *MetricsRegistry
}

// OverloadPolicy selects what sharded ingest does when a shard's ring
// stays full; see ShardedConfig.Overload.
type OverloadPolicy = pipeline.Overload

// Supported overload policies.
const (
	// OverloadBlock parks ingest until the ring drains: lossless, the
	// default.
	OverloadBlock = pipeline.OverloadBlock
	// OverloadShed drops a shard's slice of the batch after a bounded
	// full-ring wait, with exact per-shard drop accounting.
	OverloadShed = pipeline.OverloadShed
)

// DegradationReport declares everything a sharded detector observed but
// excluded from its reports — shed mass per shard, merges published
// without every shard, quarantined shards — so operators and the
// differential harness can judge reports relative to declared observed
// mass rather than trusting silently narrowed coverage.
type DegradationReport = pipeline.Degradation

// ErrDetectorStalled reports a Close that gave up waiting for stuck
// shard workers (only possible with ShardedConfig.BarrierTimeout set).
var ErrDetectorStalled = pipeline.ErrStalled

// WindowReport is one published merge of a sharded detector: the HHH
// set of the most recently completed window (or query barrier) plus its
// metadata (end timestamp, total mass, degradation markers). Reports
// are immutable once published; LastWindow hands out a shared pointer's
// copy, so callers must not mutate the Set.
type WindowReport = pipeline.WindowReport

// PipelineStats is a point-in-time view of a sharded detector's ingest
// and windowing counters.
type PipelineStats = pipeline.Stats

// ErrDetectorClosed reports an ingest call on a sharded detector whose
// Close has already run.
var ErrDetectorClosed = pipeline.ErrClosed

// ShardedDetector is a Detector with the lifecycle and introspection
// surface of the concurrent pipeline. ObserveBatch and Snapshot follow
// the usual single-goroutine Detector contract; Stats and SizeBytes may
// be called concurrently with ingest, and Snapshot and Stats are
// additionally safe to race with Close. Close releases the worker
// goroutines; afterwards the ingest surface degrades to defined no-ops —
// ObserveBatch drops its packets (TryObserveBatch reports
// ErrDetectorClosed instead of dropping them silently) and Snapshot
// returns the last published set.
type ShardedDetector interface {
	Detector
	Accounting
	// TryObserveBatch is ObserveBatch with the closed state surfaced: it
	// returns ErrDetectorClosed once Close has run.
	TryObserveBatch(pkts []Packet) error
	// LastWindow returns the most recently published merge — set, end
	// timestamp, total mass and degradation markers, mutually consistent
	// — as a wait-free atomic read that never blocks (or is blocked by)
	// ingest. Prefer it over Snapshot for read-heavy query surfaces.
	LastWindow() WindowReport
	// Stats reports ingest and windowing counters, including dropped
	// mass, per-shard barrier lag, and degraded-window state.
	Stats() PipelineStats
	// Degradation reports the cumulative degradation state: shed mass
	// per shard, degraded merges, quarantined shards, recovered panics.
	// Safe to call concurrently with ingest.
	Degradation() DegradationReport
	// DroppedMass reports cumulative shed packets and bytes across all
	// shards. Safe to call concurrently with ingest.
	DroppedMass() (packets, bytes int64)
	// DegradedMerges reports how many merges were published without
	// every shard. Safe to call concurrently with ingest.
	DegradedMerges() int64
	// ResyncSeal makes the next frame OnSeal receives a full one
	// (SealedSummary.Delta false). Call it when a sealed frame did not
	// reach its Aggregator or Ingest answered ErrNeedFull: the deltas after
	// a lost frame have no base at the receiver. Safe to call from any
	// goroutine, the OnSeal callback included.
	ResyncSeal()
	// Close stops the worker shards and waits for them to drain (a wait
	// bounded by BarrierTimeout when one is configured — stuck workers
	// are abandoned and ErrDetectorStalled returned). It is idempotent
	// and safe to call concurrently with Snapshot and Stats.
	Close() error
}

// NewShardedDetector builds an HHH detector — windowed, sliding or
// continuous, per cfg.Mode — that ingests through N parallel worker
// shards. Packets are hash-partitioned by source address onto per-shard
// bounded SPSC rings; each shard feeds an independent mergeable summary.
// In windowed mode the shard summaries are merged and reset at every
// window close; in sliding and continuous mode the live summaries are
// merged — without being consumed — at every Snapshot, which is the
// query-time merged view. Because the shards partition the stream, the
// merged error bound telescopes to the single-engine bound N/k; merging
// summaries of overlapping streams would instead sum the bounds.
func NewShardedDetector(cfg ShardedConfig) (ShardedDetector, error) {
	d, err := pipeline.New(pipeline.Config{
		Mode:      pipeline.Mode(cfg.Mode),
		Shards:    cfg.Shards,
		Window:    cfg.Window,
		Phi:       cfg.Phi,
		Engine:    pipeline.Kind(cfg.Engine),
		Counters:  cfg.Counters,
		Frames:    cfg.Frames,
		Cells:     cfg.Cells,
		Hashes:    cfg.Hashes,
		Hierarchy: cfg.Hierarchy,
		Seed:      cfg.Seed,
		OnWindow:  cfg.OnWindow,
		OnSeal:    cfg.OnSeal,

		Overload:       cfg.Overload,
		ShedWait:       cfg.ShedWait,
		BarrierTimeout: cfg.BarrierTimeout,
		Metrics:        cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("hiddenhhh: %w", err)
	}
	return d, nil
}

// SlidingConfig configures NewSlidingDetector.
type SlidingConfig struct {
	// Window is the sliding span queries cover. Required.
	Window time.Duration
	// Phi is the threshold fraction of windowed bytes. Required.
	Phi float64
	// Engine selects the sliding summary: EngineWCSS (the default, also
	// selected by the zero value EngineExact and the other windowed
	// engine values) keeps a ring of per-frame Space-Saving summaries per
	// level; EngineMemento keeps one aged counter table per level and
	// samples one level per packet.
	Engine Engine
	// Frames is the expiry granularity (window coverage overshoots by
	// W/Frames). Default 8.
	Frames int
	// Counters is the key capacity per level: per frame for EngineWCSS,
	// for the whole window for EngineMemento. Default 512.
	Counters int
	// Hierarchy is the prefix lattice to detect over. Defaults to the
	// IPv4 byte ladder; packets outside its address family are ignored.
	Hierarchy Hierarchy
	// Seed drives EngineMemento's level sampling (ignored by EngineWCSS).
	Seed uint64
}

// NewSlidingDetector builds a streaming sliding-window HHH detector:
// frame-based WCSS per hierarchy level by default, or the Memento-class
// level-sampled engine with cfg.Engine == EngineMemento.
func NewSlidingDetector(cfg SlidingConfig) (Detector, error) {
	return newSingle(pipeline.Config{
		Mode:      pipeline.ModeSliding,
		Window:    cfg.Window,
		Phi:       cfg.Phi,
		Engine:    pipeline.Kind(cfg.Engine),
		Frames:    cfg.Frames,
		Counters:  cfg.Counters,
		Hierarchy: cfg.Hierarchy,
		Seed:      cfg.Seed,
	})
}

// ContinuousConfig configures NewContinuousDetector.
type ContinuousConfig struct {
	// Horizon is the decay time constant tau — the continuous analogue
	// of the window length. Required.
	Horizon time.Duration
	// Phi is the threshold fraction of total decayed mass. Required.
	Phi float64
	// Cells and Hashes size a hashed level's time-decaying Bloom filter (a
	// level whose prefix space fits is held exactly in 2^r). Defaults 1<<16, 4.
	Cells  int
	Hashes int
	// Seed drives the filter hashes.
	Seed uint64
	// Hierarchy is the prefix lattice to detect over. Defaults to the
	// IPv4 byte ladder; packets outside its address family are ignored.
	Hierarchy Hierarchy
	// OnEnter/OnExit, when set, observe detection transitions.
	OnEnter func(p Prefix, at int64)
	OnExit  func(p Prefix, at int64)
}

// NewContinuousDetector builds the paper's proposed windowless detector:
// per-level time-decaying Bloom filters with inline admission.
func NewContinuousDetector(cfg ContinuousConfig) (Detector, error) {
	return newSingle(pipeline.Config{
		Mode:      pipeline.ModeContinuous,
		Window:    cfg.Horizon,
		Phi:       cfg.Phi,
		Cells:     cfg.Cells,
		Hashes:    cfg.Hashes,
		Hierarchy: cfg.Hierarchy,
		Seed:      cfg.Seed,
		OnEnter:   cfg.OnEnter,
		OnExit:    cfg.OnExit,
	})
}
