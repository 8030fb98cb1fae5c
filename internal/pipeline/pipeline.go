// Package pipeline implements the sharded concurrent ingest pipeline: N
// worker shards, each owning an independent mergeable summary fed through
// a bounded SPSC ring of packet batches, with packets hash-partitioned by
// source address.
//
// The pipeline is generic over the paper's three window models, selected
// by Config.Mode. Each shard holds a Summary — a mergeable digest of its
// substream — and all coordination happens through barrier tokens pushed
// into every shard's ring. Ring FIFO order guarantees a shard reaches a
// token only after absorbing every batch staged before it; the last shard
// to arrive has exclusive access to every shard's summary, merges them
// all into one accumulator, queries it, publishes the result and releases
// the barrier.
//
//   - ModeWindowed (disjoint windows): the coordinator (the caller's
//     goroutine) sees the global time-ordered stream, so it alone decides
//     window boundaries; at each boundary it broadcasts a closing barrier.
//     After the merged set is published the shards reset and continue with
//     the next window's batches, which the coordinator has been queueing
//     behind the token — ingest never stops for a merge.
//   - ModeSliding (WCSS frame ring per level) and ModeContinuous
//     (time-decaying Bloom filters per level): there are no boundaries, so
//     barriers are query-driven. Snapshot(now) broadcasts a query barrier
//     carrying now; each shard first advances its summary to now (aligning
//     sliding frame rings; a no-op for the lazily-decaying filters), the
//     merged accumulator absorbs all shards *without resetting them*, and
//     the merged set at now is published. Shards keep their state and
//     continue — the merge reads, never consumes.
//
// Correctness rests on the summaries being mergeable with bounded error
// (Agarwal et al., "Mergeable Summaries"): Space-Saving summaries merge
// with summed bounds (Mitzenmacher, Steinke & Thaler) — which covers the
// windowed engines and the sliding detector's per-frame summaries
// (Ben-Basat et al., INFOCOM 2016) — and time-decaying Bloom filters
// merge cell-wise by decay-to-common-time plus add, preserving the
// conservative overestimate. RHHH's per-packet level sampling is
// order-insensitive (Ben Basat et al.), so hash-partitioned substreams
// recombine exactly. Because the shards partition the stream, the merged
// error bound telescopes: K shards with k counters each over a stream of
// N bytes still bound overestimation by N/k, the single-engine bound.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
)

// ErrClosed reports an ingest or query call on a detector whose Close
// has already run. The Detector-shaped methods (ObserveBatch, Snapshot)
// cannot return it, so they degrade to defined no-ops instead — use
// TryObserveBatch where the error matters.
var ErrClosed = errors.New("pipeline: detector closed")

// Mode selects the window model the pipeline shards. Values mirror the
// public hiddenhhh.Mode constants.
type Mode int

// Supported window models.
const (
	// ModeWindowed is the disjoint-window model: summaries reset at every
	// boundary and Snapshot reports the most recently completed window.
	ModeWindowed Mode = iota
	// ModeSliding shards the WCSS-style sliding-window detector; Snapshot
	// merges the live shard summaries at the query timestamp.
	ModeSliding
	// ModeContinuous shards the time-decaying Bloom filter detector;
	// Snapshot merges filters cell-wise at the query timestamp.
	ModeContinuous
)

// String names the mode ("windowed", "sliding", "continuous").
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

// Config parameterises New.
type Config struct {
	// Mode selects the window model. Default ModeWindowed.
	Mode Mode
	// Shards is the worker count. Default GOMAXPROCS.
	Shards int
	// Window is the disjoint window length (ModeWindowed), the sliding
	// span (ModeSliding), or the decay horizon tau (ModeContinuous).
	// Required.
	Window time.Duration
	// Phi is the threshold fraction of the mode's total mass. Required.
	Phi float64
	// Engine selects the per-shard summary among the mode's engines (see
	// the registry in summary.go). The zero value, like any windowed kind
	// outside ModeWindowed, selects the mode's default: exact, WCSS frame
	// rings, or — ModeContinuous has only one — TDBFs. New normalises it
	// to the engine that runs.
	Engine Kind
	// Counters per level for sketch engines (per frame and level for
	// ModeSliding). Default 512.
	Counters int
	// Frames is the sliding ring's expiry granularity. Default 8
	// (ModeSliding only).
	Frames int
	// Cells and Hashes size a hashed level's Bloom filter; a level whose prefix
	// space fits is held exactly in 2^r (ModeContinuous only). Defaults 1<<16, 4.
	Cells  int
	Hashes int
	// Sampled updates one random level per packet (ModeContinuous only).
	Sampled bool
	// Hierarchy is the prefix lattice every shard detects over
	// (family, step, depth — see internal/addr). Defaults to the IPv4
	// byte ladder.
	Hierarchy addr.Hierarchy
	// Seed drives the sampled engines' level draws — shard i derives its
	// own stream from it (shard 0 uses Seed itself, so a 1-shard pipeline
	// reproduces the single-detector sequence exactly) — and the
	// continuous mode's filter hashes, where every shard shares it
	// verbatim: cell-wise filter merging requires identical hash seeds.
	Seed uint64
	// Batch is the packets staged per shard before a ring push.
	// Default 256.
	Batch int
	// RingDepth is the per-shard ring capacity in batches (rounded up to
	// a power of two). Default 64.
	RingDepth int
	// Overload selects the ingest behaviour when a shard's ring stays
	// full: OverloadBlock (default) parks the ingest goroutine until the
	// ring drains, OverloadShed bounds the wait at ShedWait and then
	// drops that shard's slice of the batch, accounting it in Stats and
	// Degradation.
	Overload Overload
	// ShedWait is OverloadShed's bounded wait for ring space before a
	// batch is dropped. Default 1ms (OverloadShed only).
	ShedWait time.Duration
	// BarrierTimeout bounds every barrier wait. 0 (the default) keeps
	// the lossless pre-degradation behaviour: barriers wait for every
	// shard, and a stuck shard wedges merges process-wide. When
	// positive, a barrier that has not seen every shard within the
	// deadline completes with the shards that arrived — the window is
	// published degraded, the straggler's unmerged slice is shed and
	// accounted when it rejoins, and Snapshot and Close return within
	// the deadline instead of hanging.
	BarrierTimeout time.Duration
	// Chaos, when set, receives fault-injection callbacks from the shard
	// workers (see internal/chaos). Test-only; nil in production.
	Chaos Breaker
	// Metrics, when set, registers the pipeline on the registry: ingest
	// and degradation counters function-backed (zero ingest-path cost,
	// read at scrape time and exactly equal to Stats/Degradation), plus
	// hand-off, barrier-merge and snapshot latency histograms observed at
	// batch/barrier frequency (see telemetry.go). Nil disables all
	// instrumentation.
	Metrics *telemetry.Registry
	// OnWindow, when set, receives every completed window's merged HHH
	// set, in window order (ModeWindowed only). For windows with traffic
	// it runs on a worker goroutine while the other shards wait at the
	// barrier; for empty windows it runs on the ingest goroutine. It must
	// not call back into the detector and must not block: a stalled
	// callback stalls the merge it is published from.
	OnWindow func(start, end int64, set hhh.Set)
	// OnSeal, when set, receives every completed merge additionally
	// sealed into a versioned internal/wire frame (see seal.go): each
	// closed window in ModeWindowed, and each Snapshot barrier in the
	// sliding and continuous modes. This is the ingest-node export seam
	// of cluster mode — the callback typically queues the frame for
	// delivery to an aggregator process. Like OnWindow it runs on the
	// merging goroutine (the coordinator for empty windows) and must not
	// block or call back into the detector.
	OnSeal func(Sealed)
	// OnEnter and OnExit, when set, observe the continuous engine's
	// detection transitions on the ingest goroutine (see
	// continuous.Config). ModeContinuous on NewSingle only: a shard's
	// transitions are its own, not the merged report's.
	OnEnter, OnExit func(p addr.Prefix, at int64)
}

func (c *Config) setDefaults() error {
	if c.Mode < ModeWindowed || c.Mode > ModeContinuous {
		return fmt.Errorf("pipeline: unknown mode %v", c.Mode)
	}
	if c.Window <= 0 {
		return fmt.Errorf("pipeline: window must be positive")
	}
	if c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("pipeline: phi %v out of (0,1]", c.Phi)
	}
	if err := c.resolveEngine(); err != nil {
		return err
	}
	if c.OnWindow != nil && c.Mode != ModeWindowed {
		return fmt.Errorf("pipeline: OnWindow requires ModeWindowed (mode %v has no window closes)", c.Mode)
	}
	if (c.OnEnter != nil || c.OnExit != nil) && c.Mode != ModeContinuous {
		return fmt.Errorf("pipeline: OnEnter/OnExit require ModeContinuous (mode %v has no transitions)", c.Mode)
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Counters <= 0 {
		c.Counters = 512
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.RingDepth <= 0 {
		c.RingDepth = 64
	}
	if c.Overload < OverloadBlock || c.Overload > OverloadShed {
		return fmt.Errorf("pipeline: unknown overload policy %v", c.Overload)
	}
	if c.Overload == OverloadShed && c.ShedWait <= 0 {
		c.ShedWait = time.Millisecond
	}
	return nil
}

// tokenWait is the bounded wait for pushing a barrier token into a full
// ring: the barrier deadline when one is configured, the shed wait when
// shedding, and 0 (block forever, the lossless default) otherwise.
func (c *Config) tokenWait() time.Duration {
	if c.BarrierTimeout > 0 {
		return c.BarrierTimeout
	}
	if c.Overload == OverloadShed {
		return c.ShedWait
	}
	return 0
}

// shard is one worker: a ring, a summary, and a key-batch freelist, plus
// the per-shard degradation state (see degrade.go).
//
// The fields are grouped by writer and separated by cache-line pads
// (audited for false sharing — shards are allocated independently, but
// the groups within one shard are hammered by different goroutines: the
// worker bumps its absorption counters per batch while the ingest
// goroutine updates the producer-side high-water mark, and the stats/
// telemetry readers poll both). A full-line pad between two groups keeps
// them off each other's 64-byte line wherever the struct lands; the
// constants after the struct hold every pad to that on every build.
type shard struct {
	// Read-mostly identity: set at construction, read everywhere.
	idx  int
	ring *spscRing
	eng  Summary // worker-owned between barriers; merger-owned inside them
	free chan *trace.KeyBatch

	_ linePad
	// Worker-written hot state: bumped once per absorbed batch.
	packets      atomic.Int64
	size         atomic.Int64 // last published summary footprint
	tableUpdates atomic.Int64 // the engine's tally (see tableUpdates) at the last batch or barrier
	// absorbed* track mass folded into eng since its last reset —
	// worker-owned plain fields, read only on the worker itself when a
	// quarantine or late barrier rejoin sheds the unmerged summary.
	absorbedPackets int64
	absorbedBytes   int64
	// lastBarrier is the sequence number of the last barrier this shard
	// passed; Stats derives per-shard lag from it.
	lastBarrier atomic.Int64

	_ linePad
	// Producer-written state: the ingest goroutine updates it once per
	// batch hand-off, concurrently with the worker group above.
	// highWater is the deepest ring occupancy seen at a batch hand-off
	// (telemetry only).
	highWater atomic.Int64

	_ linePad
	// Degradation accounting: mass this shard's substream lost to
	// overload shedding, quarantine, or missed merges. Written on the
	// ingest goroutine (ring-full sheds) and the worker (everything
	// else); read by Stats/Degradation. Cold unless the pipeline is
	// degrading, so sharing a line among themselves is fine — the pads
	// only keep them off the hot groups.
	droppedPackets atomic.Int64
	droppedBytes   atomic.Int64
	// resync is set by the coordinator when a reset-barrier token could
	// not be pushed into this shard's saturated ring: the worker sheds
	// (and accounts) batches until the next token it does receive, so a
	// missed window close cannot leak one window's mass into the next.
	resync atomic.Bool
	// quarantined is set when this shard's engine panicked: the worker
	// keeps draining its ring and answering barriers with a fresh empty
	// summary, shedding and accounting its substream.
	quarantined atomic.Bool
}

// linePad is one cache line of padding between two writer groups of a
// hot struct.
type linePad [64]byte

// The padding contract of shard and Sharded, checked by the compiler for
// whatever GOARCH it builds: between the last field before a pad and the
// first field after it lie at least 64 bytes. Each line is that gap less
// 64 as a uintptr constant, so a pad that is shrunk or dropped makes it
// negative — "constant overflows uintptr" — and the build fails.
const (
	_ = unsafe.Offsetof(shard{}.packets) - unsafe.Offsetof(shard{}.free) - unsafe.Sizeof(shard{}.free) - 64
	_ = unsafe.Offsetof(shard{}.highWater) - unsafe.Offsetof(shard{}.lastBarrier) - unsafe.Sizeof(shard{}.lastBarrier) - 64
	_ = unsafe.Offsetof(shard{}.droppedPackets) - unsafe.Offsetof(shard{}.highWater) - unsafe.Sizeof(shard{}.highWater) - 64
	_ = unsafe.Offsetof(Sharded{}.packets) - unsafe.Offsetof(Sharded{}.keptSlots) - unsafe.Sizeof(Sharded{}.keptSlots) - 64
	_ = unsafe.Offsetof(Sharded{}.wg) - unsafe.Offsetof(Sharded{}.filtered) - unsafe.Sizeof(Sharded{}.filtered) - 64
)

// WindowReport is one published merge: the HHH set of the most recently
// completed window (or query barrier), together with the metadata the
// read surfaces report about it. Reports are immutable once published —
// readers receive a shared pointer and must not mutate the Set — which
// is what makes the wait-free LastWindow/Snapshot read path safe.
type WindowReport struct {
	// Set is the merged HHH set.
	Set hhh.Set
	// End is the publication timestamp: the window end in windowed mode,
	// the query timestamp otherwise.
	End int64
	// Bytes is the total mass of the merge — the HHH threshold
	// denominator (window bytes, covered sliding bytes, or decayed mass).
	Bytes int64
	// Degraded marks a merge that completed without every shard;
	// Shards is how many contributed.
	Degraded bool
	// Shards is the number of shard summaries merged into Set.
	Shards int
}

// Sharded is the concurrent HHH detector over any of the three window
// models. The ingest surface (ObserveBatch, Snapshot) follows
// the Detector contract — one goroutine at a time — while Stats,
// SizeBytes, LastWindow, ReportMass and CoveredSpan may be called
// concurrently with ingest (hhhserve reads them from HTTP handlers).
//
// Published results live behind a single atomic pointer (pub): every
// merge builds an immutable WindowReport and stores it in one step, so
// the read surfaces never take a lock the merge path holds — queries
// cannot stall ingest, and ingest cannot stall queries.
type Sharded struct {
	// Read-mostly identity: set at construction.
	cfg    Config
	shards []*shard
	merged Summary
	// tel holds the actively-observed metric handles; nil when
	// Config.Metrics is unset (every observation site nil-guards).
	tel *pipeTelemetry
	// seal carries the OnSeal callback plus the seal sequence and the
	// cached empty-window frame; nil when Config.OnSeal is unset
	// (emission sites nil-guard).
	seal *sealState

	// Coordinator state: owned by the ingest goroutine.
	tumble      tumbler
	staging     []stagingSlot
	lastBarrier *barrier

	// Lifecycle: closed flips exactly once; lifeMu serialises Close
	// against the barrier-broadcasting paths (Snapshot, and Close itself)
	// so a Snapshot racing a Close either completes its merge before the
	// rings shut or observes closed and returns the last published set.
	closed atomic.Bool
	lifeMu sync.Mutex

	// mergeMu serialises barrier completions. Without degradation the
	// barrier protocol alone orders merges (no shard passes barrier N
	// before its merge finishes, so no shard can trigger barrier N+1's
	// merge); with deadlines a straggler rejoining barrier N can race a
	// timed-out completion of barrier N+1, and the mutex keeps the
	// shared merge accumulator single-writer and publications ordered.
	mergeMu sync.Mutex
	// mergeFrom is the round's source list, reused under mergeMu.
	mergeFrom []Summary

	// barrierSeq numbers broadcast barriers; per-shard lag in Stats is
	// barrierSeq minus the shard's lastBarrier.
	barrierSeq atomic.Int64

	// mu guards only the recorded panic state now; every other shared
	// field is an atomic or lives inside the published WindowReport.
	mu        sync.Mutex
	panicked  int64 // engine panics recovered (see quarantine)
	lastPanic string

	// Publication state, written by whichever goroutine completes a
	// barrier (or the coordinator's empty-window fast path).
	pub            atomic.Pointer[WindowReport]
	merges         atomic.Int64
	degradedMerges atomic.Int64 // merges published without every shard
	mergedSize     atomic.Int64
	// foldedSlots and keptSlots mirror the accumulator's slot tally (see
	// slotTally) once per merge, for the scrape-time counters.
	foldedSlots, keptSlots atomic.Int64

	_ linePad
	// Ingest totals: published by the producer once per staged run (see
	// stageRun), padded off the merge-side publication fields above.
	// filtered counts the packets the family filter kept out of the
	// shards: packets = absorbed + shed + filtered once the rings drain.
	packets  atomic.Int64
	bytes    atomic.Int64
	filtered atomic.Int64

	_  linePad
	wg sync.WaitGroup
}

// New builds and starts a sharded pipeline. The caller must Close it to
// release the worker goroutines.
func New(cfg Config) (*Sharded, error) {
	if cfg.OnEnter != nil || cfg.OnExit != nil {
		return nil, fmt.Errorf("pipeline: OnEnter/OnExit require NewSingle (a shard's transitions are its own)")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	merged, err := newSummary(&cfg, 0)
	if err != nil {
		return nil, err
	}
	d := &Sharded{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		merged:  merged,
		staging: make([]stagingSlot, cfg.Shards),
	}
	if cfg.Mode == ModeWindowed {
		d.tumble = tumbler{width: int64(cfg.Window), close: d.closeWindow}
	}
	d.pub.Store(&WindowReport{Set: hhh.NewSet()})
	d.mergedSize.Store(int64(d.merged.SizeBytes()))
	if cfg.OnSeal != nil {
		d.seal = &sealState{fn: cfg.OnSeal}
	}
	for i := range d.shards {
		eng, err := newSummary(&cfg, i)
		if err != nil {
			return nil, err
		}
		s := &shard{
			idx:  i,
			ring: newRing(cfg.RingDepth),
			eng:  eng,
			free: make(chan *trace.KeyBatch, cfg.RingDepth+2),
		}
		s.size.Store(int64(s.eng.SizeBytes()))
		d.shards[i] = s
		d.staging[i].kb = setRows(trace.NewKeyBatch(cfg.Batch), cfg.Batch)
	}
	if cfg.Metrics != nil {
		d.tel = d.registerMetrics(cfg.Metrics)
	}
	for _, s := range d.shards {
		d.wg.Add(1)
		go d.worker(s)
	}
	return d, nil
}

// worker drains one shard's ring until the ring is closed. Batches are
// absorbed through the panic-isolating absorb path; a shard that has
// been quarantined (engine panic) or flagged for resync (missed reset
// token) sheds its batches with exact accounting instead.
func (d *Sharded) worker(s *shard) {
	defer d.wg.Done()
	for {
		m, ok := s.ring.pop()
		if !ok {
			return
		}
		if m.bar != nil {
			d.arrive(m.bar, s)
			continue
		}
		if s.quarantined.Load() || s.resync.Load() {
			d.shedBatch(s, m.kb)
			continue
		}
		d.absorb(s, m.kb)
	}
}

// absorb folds one key-batch into the shard's summary, isolating engine
// panics: a panic quarantines the shard (substream shed and accounted)
// instead of killing the worker and deadlocking its barrier peers.
func (d *Sharded) absorb(s *shard, kb *trace.KeyBatch) {
	defer func() {
		if r := recover(); r != nil {
			d.quarantine(s, r, kb)
		}
	}()
	if d.cfg.Chaos != nil {
		d.cfg.Chaos.BeforeBatch(s.idx)
	}
	s.eng.UpdateKeys(kb)
	s.absorbedPackets += int64(kb.Len())
	s.absorbedBytes += kb.Bytes()
	s.packets.Add(int64(kb.Len()))
	s.size.Store(int64(s.eng.SizeBytes()))
	s.tableUpdates.Store(tableUpdates(s.eng))
	d.recycle(s, kb)
}

// recycle returns a drained key-batch to the shard's freelist, truncated
// in place so the columns' capacity is reused — the steady state of the
// ingest path allocates nothing per packet.
func (d *Sharded) recycle(s *shard, kb *trace.KeyBatch) {
	kb.Reset()
	select {
	case s.free <- kb:
	default: // freelist full; let the GC take it
	}
}

// shardOfKey is the partition rule: a packed leaf-level hierarchy key —
// computed once per packet by the producer — feeds the mix, so
// partitioning costs no additional Addr math and two sources the
// hierarchy cannot distinguish (equal leaf keys) always land on the same
// shard.
func shardOfKey(key uint64, shards int) int {
	return hashx.Bucket(hashx.Mix64(key), shards)
}

// ObserveBatch processes a run of packets in time order — the one way
// packets enter. In windowed mode the run is split at window boundaries;
// the other modes have none, so the whole run scatters straight across the
// shards. After Close it is a defined no-op (see TryObserveBatch).
func (d *Sharded) ObserveBatch(pkts []trace.Packet) { _ = d.TryObserveBatch(pkts) }

// TryObserveBatch is ObserveBatch with the closed state surfaced: it
// returns ErrClosed — and drops the batch — once Close has run, instead of
// pushing onto rings no worker drains. Like ObserveBatch it is part of the
// single-goroutine ingest surface: the guarantee covers Close calls that
// happened-before the ingest call (use-after-Close), not a Close racing
// ingest from another goroutine — sequence ingest against Close externally.
func (d *Sharded) TryObserveBatch(pkts []trace.Packet) error {
	if d.closed.Load() {
		return ErrClosed
	}
	for len(pkts) > 0 {
		n := d.tumble.next(pkts)
		d.stageRun(pkts[:n])
		pkts = pkts[n:]
	}
	return nil
}

// stageRun packs a run of packets of one window onto the shards' staging
// key-batches, flushing each batch into its ring the moment it fills.
// This is the single place the hierarchy key is packed, the family filter
// runs and the ingest totals are bumped: packets of the other address
// family are counted (in the totals and as filtered) but never staged
// (the engines would have dropped them anyway), and everything downstream
// — rings, engines, merges — sees only packed keys.
//
// The totals move once per run, so a concurrent Stats reader sees them
// advance a run at a time. The packet total is published before the run
// is staged: absorbed + shed + filtered never exceeds it, even while a
// full ring holds the producer half-way through the run.
func (d *Sharded) stageRun(pkts []trace.Packet) {
	d.packets.Add(int64(len(pkts)))
	h := d.cfg.Hierarchy
	mask, high, v4 := h.KeyMask(0), h.KeyFromHigh(), h.Family() == addr.V4
	shards, batch := len(d.shards), d.cfg.Batch
	var bytes, filtered int64
	for i := range pkts {
		p := &pkts[i]
		bytes += int64(p.Size)
		if p.Src.Is4() != v4 {
			filtered++
			continue
		}
		key := p.Src.Lo()
		if high {
			key = p.Src.Hi()
		}
		key &= mask
		si := shardOfKey(key, shards)
		st := &d.staging[si]
		kb, n := st.kb, st.n
		kb.Keys[n], kb.Sizes[n], kb.Ts[n] = key, p.Size, p.Ts
		st.n = n + 1
		if st.n == batch {
			d.pushBatch(si)
		}
	}
	d.bytes.Add(bytes)
	if filtered > 0 {
		d.filtered.Add(filtered)
	}
	if filtered < int64(len(pkts)) {
		d.tumble.hasData = true
	}
}

// stagingSlot is one shard's open batch: kb's columns are held at the
// full Batch rows while stageRun fills them by index, n is how many rows
// are filled.
type stagingSlot struct {
	kb *trace.KeyBatch
	n  int
}

// setRows reslices kb's three columns to n rows: the full Batch while the
// batch is open for staging, the rows filled when it is handed off.
func setRows(kb *trace.KeyBatch, n int) *trace.KeyBatch {
	kb.Keys, kb.Sizes, kb.Ts = kb.Keys[:n], kb.Sizes[:n], kb.Ts[:n]
	return kb
}

// pushBatch hands shard si's staged rows to its ring and replaces the
// staging slot from the freelist (allocating only when the freelist runs
// dry, i.e. when the ring is persistently deep). A bounded-wait push
// that finds the ring still full drops the batch — only that shard's
// slice of the stream — and accounts every dropped packet and byte to
// the shard's shed counters. The wait is ShedWait under OverloadShed;
// under OverloadBlock it is unbounded (lossless) unless BarrierTimeout
// opted the pipeline into bounded-loss degradation, in which case the
// deadline bounds ingest pushes too — otherwise a saturated ring of a
// stuck shard would still hang Snapshot and Close in their staging
// flushes.
func (d *Sharded) pushBatch(si int) {
	s, st, batch := d.shards[si], &d.staging[si], d.cfg.Batch
	kb := setRows(st.kb, st.n)
	st.n = 0
	var t0 time.Time
	if d.tel != nil {
		t0 = time.Now()
	}
	var wait time.Duration
	if d.cfg.Overload == OverloadShed {
		wait = d.cfg.ShedWait
	} else {
		wait = d.cfg.BarrierTimeout
	}
	if wait <= 0 {
		s.ring.push(message{kb: kb})
	} else if !s.ring.pushWait(message{kb: kb}, wait) {
		accountDropped(s, int64(kb.Len()), kb.Bytes())
		if d.tel != nil {
			d.tel.handoff.Observe(time.Since(t0).Seconds())
		}
		setRows(kb, batch) // dropped in place: reuse the columns
		return
	}
	if d.tel != nil {
		d.tel.handoff.Observe(time.Since(t0).Seconds())
		if dep := int64(s.ring.depth()); dep > s.highWater.Load() {
			// Single writer (the ingest goroutine), so load-then-store is a
			// race-free running maximum.
			s.highWater.Store(dep)
		}
	}
	var nb *trace.KeyBatch
	select {
	case nb = <-s.free:
	default:
		nb = trace.NewKeyBatch(batch)
	}
	st.kb = setRows(nb, batch)
}

// flushStaging pushes every non-empty staging batch.
func (d *Sharded) flushStaging() {
	for si := range d.staging {
		if d.staging[si].n > 0 {
			d.pushBatch(si)
		}
	}
}

// broadcast flushes staged batches and pushes b into every shard's ring.
// When a ring is so saturated that even the token cannot be placed
// within the bounded wait (tokenWait > 0), the shard is skipped: the
// barrier's quorum shrinks so its peers are not held hostage, and for
// reset barriers the shard is flagged for resync so the missed window
// close cannot leak one window's mass into the next.
func (d *Sharded) broadcast(b *barrier) {
	d.flushStaging()
	b.seq = d.barrierSeq.Add(1)
	wait := d.cfg.tokenWait()
	for _, s := range d.shards {
		if wait <= 0 {
			s.ring.push(message{bar: b})
			continue
		}
		if !s.ring.pushWait(message{bar: b}, wait) {
			if b.reset {
				s.resync.Store(true)
			}
			d.skipShard(b)
		}
	}
	d.lastBarrier = b
}

// closeWindow is the tumbler's callback (ModeWindowed): it flushes staged
// batches and broadcasts a closing barrier for window [start, end). The
// coordinator does not wait for the merge: the next
// window's batches queue behind the token, and the barrier itself orders
// the shards.
//
// Empty windows — common when a trace has idle gaps much longer than the
// window — skip the barrier entirely: the shard summaries hold nothing,
// so the coordinator publishes the empty set itself after waiting out any
// in-flight merge (which keeps window reports ordered). A gap of G
// windows then costs one barrier wait plus G cheap publishes instead of
// G full shard synchronisations.
func (d *Sharded) closeWindow(start, end int64, empty bool) {
	if empty {
		if b := d.lastBarrier; b != nil {
			d.waitBarrier(b)
		}
		set := hhh.NewSet()
		d.pub.Store(&WindowReport{Set: set, End: end, Shards: len(d.shards)})
		d.merges.Add(1)
		if d.cfg.OnWindow != nil {
			d.cfg.OnWindow(start, end, set)
		}
		if d.seal != nil {
			d.emitSeal(d.emptySealFrame(), start, end, false)
		}
		return
	}
	d.broadcast(newBarrier(d, start, end, end, true))
}

// Snapshot implements Detector. In windowed mode it closes every window
// that ends at or before now, waits for its merge to complete, and
// returns the most recently completed window's merged HHH set. In sliding
// and continuous mode it broadcasts a query barrier at now — every shard
// aligns its live summary to now, the last arriver merges them all
// (without consuming them) and queries the merged summary — and returns
// the freshly published set.
// With BarrierTimeout configured, Snapshot returns within the deadline
// even when shards are stuck: the barrier completes with the shards that
// arrived and the set is published degraded (see Stats.LastWindowShards
// and Degradation).
// After Close, Snapshot returns the most recently published set without
// broadcasting (a closed pipeline has no workers to run a merge).
// Snapshot may race Close from another goroutine: the lifecycle mutex
// guarantees an in-flight broadcast completes before the rings shut.
func (d *Sharded) Snapshot(now int64) hhh.Set {
	var t0 time.Time
	if d.tel != nil {
		t0 = time.Now()
	}
	d.lifeMu.Lock()
	var b *barrier
	if !d.closed.Load() {
		if d.cfg.Mode == ModeWindowed {
			d.tumble.closeDue(now)
		} else {
			d.broadcast(newBarrier(d, 0, 0, now, false))
		}
		b = d.lastBarrier
	}
	d.lifeMu.Unlock()
	if b != nil {
		d.waitBarrier(b)
	}
	set := d.pub.Load().Set
	if d.tel != nil {
		d.tel.snapshot.Observe(time.Since(t0).Seconds())
	}
	return set
}

// LastWindow returns the most recently published merge without
// broadcasting anything: a wait-free atomic-pointer read that never
// takes a lock the merge or ingest paths hold. This is the query path
// for read-heavy consumers (the hhhserve /hhh handler): ingest keeps
// publishing windows while any number of readers snapshot the last one.
// The report — including its Set — is shared and must not be mutated.
func (d *Sharded) LastWindow() WindowReport {
	return *d.pub.Load()
}

// ReportMass implements the public Accounting surface: the total mass of
// the most recently published merge. Call after Snapshot(now) with the
// same timestamp (Snapshot publishes the merge ReportMass reads).
func (d *Sharded) ReportMass(int64) int64 {
	return d.pub.Load().Bytes
}

// CoveredSpan implements the public Accounting surface: the last closed
// window [lo, hi) in windowed mode, the frame-aligned covered span
// [lo, now] in sliding mode, and (math.MinInt64, now] in continuous
// mode. Like ReportMass, call it after Snapshot(now).
func (d *Sharded) CoveredSpan(now int64) (lo, hi int64) {
	return d.cfg.coveredSpan(now, d.pub.Load().End, d.merges.Load() > 0)
}

// SizeBytes reports the pipeline's summary footprint: every shard summary
// plus the merge accumulator. Safe to call concurrently with ingest.
func (d *Sharded) SizeBytes() int {
	n := int(d.mergedSize.Load())
	for _, s := range d.shards {
		n += int(s.size.Load())
	}
	return n
}

// Stats is a point-in-time view of the pipeline, JSON-ready for the
// query server.
type Stats struct {
	Mode    string `json:"mode"`
	Shards  int    `json:"shards"`
	Engine  string `json:"engine"`
	Packets int64  `json:"packets"`
	Bytes   int64  `json:"bytes"`
	// FilteredPackets counts the packets — included in Packets — of the
	// address family the hierarchy does not cover: observed, never handed
	// to a shard. Once the rings have drained, Packets = sum(ShardPackets)
	// + DroppedPackets + FilteredPackets.
	FilteredPackets int64 `json:"filtered_packets"`
	// Windows counts published merges: window closes in windowed mode,
	// snapshot-time merged queries in sliding/continuous mode.
	Windows       int64 `json:"windows"`
	LastWindowEnd int64 `json:"last_window_end_ns"`
	// LastWindowBytes is the total mass of the most recently published
	// merge — the denominator of its HHH threshold (window bytes, covered
	// sliding bytes, or decayed mass).
	LastWindowBytes int64   `json:"last_window_bytes"`
	ShardPackets    []int64 `json:"shard_packets"`
	QueueDepth      []int   `json:"queue_depth"`
	SizeBytes       int     `json:"size_bytes"`

	// Degradation counters: see the Degradation report for the same
	// numbers with per-shard breakdowns and the recorded panic.

	// DroppedPackets and DroppedBytes total the mass shed across all
	// shards — ring-full drops, quarantined substreams, and unmerged
	// straggler slices — i.e. traffic the pipeline observed but excluded
	// from every published report.
	DroppedPackets int64 `json:"dropped_packets"`
	DroppedBytes   int64 `json:"dropped_bytes"`
	// DegradedWindows counts merges published without every shard
	// (stall-tolerant barriers only; 0 unless BarrierTimeout is set).
	DegradedWindows int64 `json:"degraded_windows"`
	// LastWindowDegraded marks the most recent merge as missing shards;
	// LastWindowShards is how many contributed.
	LastWindowDegraded bool `json:"last_window_degraded"`
	LastWindowShards   int  `json:"last_window_shards"`
	// ShardLag is, per shard, how many broadcast barriers the shard has
	// not yet passed (0 = fully caught up; growing = stalled).
	ShardLag []int64 `json:"shard_lag"`
	// Quarantined lists shards whose engine panicked and whose
	// substream is being shed.
	Quarantined []int `json:"quarantined_shards,omitempty"`
	// Panics counts recovered engine panics.
	Panics int64 `json:"panics"`
}

// Stats reports ingest and merge counters. Safe to call concurrently
// with ingest.
func (d *Sharded) Stats() Stats {
	st := Stats{
		Mode:         d.cfg.Mode.String(),
		Shards:       len(d.shards),
		Engine:       d.cfg.Engine.String(),
		Packets:      d.packets.Load(),
		Bytes:        d.bytes.Load(),
		ShardPackets: make([]int64, len(d.shards)),
		QueueDepth:   make([]int, len(d.shards)),
		SizeBytes:    d.SizeBytes(),
	}
	st.FilteredPackets = d.filtered.Load()
	st.ShardLag = make([]int64, len(d.shards))
	seq := d.barrierSeq.Load()
	for i, s := range d.shards {
		st.ShardPackets[i] = s.packets.Load()
		st.QueueDepth[i] = s.ring.depth()
		st.DroppedPackets += s.droppedPackets.Load()
		st.DroppedBytes += s.droppedBytes.Load()
		st.ShardLag[i] = seq - s.lastBarrier.Load()
		if s.quarantined.Load() {
			st.Quarantined = append(st.Quarantined, i)
		}
	}
	rep := d.pub.Load()
	st.Windows = d.merges.Load()
	st.LastWindowEnd = rep.End
	st.LastWindowBytes = rep.Bytes
	st.DegradedWindows = d.degradedMerges.Load()
	st.LastWindowDegraded = rep.Degraded
	st.LastWindowShards = rep.Shards
	d.mu.Lock()
	st.Panics = d.panicked
	d.mu.Unlock()
	return st
}

// Close flushes staged batches, stops the workers and waits for them to
// drain. Close is idempotent and safe to call concurrently with Snapshot
// and Stats; after it returns, the ingest surface degrades to defined
// no-ops (TryObserveBatch reports ErrClosed, Snapshot returns
// the last published set). In windowed mode, packets of the final,
// never-closed window are absorbed into shard summaries but — exactly
// like the single-threaded windowed detector — are only reported if a
// Snapshot past the window boundary closed it first.
//
// With BarrierTimeout configured the drain wait is bounded too: if a
// worker is still stuck after the close deadline (ten barrier timeouts,
// at least one second — generous for a healthy backlog, finite for a
// wedged shard), Close abandons it and returns ErrStalled. The
// abandoned worker touches only its own shard state if it ever revives,
// so the detector's read surface stays safe.
func (d *Sharded) Close() error {
	d.lifeMu.Lock()
	defer d.lifeMu.Unlock()
	if d.closed.Swap(true) {
		return nil
	}
	d.flushStaging()
	for _, s := range d.shards {
		s.ring.close()
	}
	if d.cfg.BarrierTimeout <= 0 {
		d.wg.Wait()
		return nil
	}
	drained := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(drained)
	}()
	deadline := 10 * d.cfg.BarrierTimeout
	if deadline < time.Second {
		deadline = time.Second
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-drained:
		return nil
	case <-timer.C:
		return fmt.Errorf("%w after %v", ErrStalled, deadline)
	}
}
