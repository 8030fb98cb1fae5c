// Degradation layer: bounded-loss behaviour for the sharded pipeline
// when it is overloaded or a shard misbehaves.
//
// The design goal is "degrade coverage measurably instead of wedging or
// lying": every path that gives up on traffic — a shed batch, a
// quarantined substream, a straggler's unmerged window slice — accounts
// the exact packets and bytes it dropped, and every merge published
// without a full shard quorum is marked degraded. Reports therefore stay
// honest relative to their *declared* observed mass (ReportMass), which
// is what the oracle-differential harness verifies the paper-family
// bounds against.
//
// Three mechanisms compose:
//
//   - Overload shedding (Config.Overload = OverloadShed): a batch push
//     onto a full shard ring waits at most ShedWait, then drops that
//     shard's slice of the batch into its shed counters. The other
//     shards' substreams are untouched.
//   - Stall-tolerant barriers (Config.BarrierTimeout > 0): a barrier
//     that has not seen every shard within the deadline completes with
//     the shards that arrived; the merged set is published marked
//     degraded. A straggler that later reaches the sealed token rejoins
//     at the next barrier — for window closes its unmerged slice is
//     shed and accounted, so one window's mass can never leak into the
//     next.
//   - Panic isolation (always on): a shard worker recovers engine
//     panics, rebuilds a fresh empty summary so barrier merges stay
//     safe, and quarantines the shard — its substream is shed and
//     accounted from then on, but it keeps answering barriers so its
//     peers never deadlock.
//
// With the defaults (OverloadBlock, BarrierTimeout 0, no faults) none of
// these paths engage and the pipeline is byte-identical to its
// pre-degradation behaviour.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hiddenhhh/internal/trace"
)

// ErrStalled reports a Close that gave up waiting for stuck shard
// workers (BarrierTimeout configured). The abandoned workers only touch
// their own shard state if they ever revive; the detector's read surface
// remains safe.
var ErrStalled = errors.New("pipeline: stalled shard workers did not drain before the close deadline")

// Overload selects the ingest behaviour when a shard's ring stays full.
type Overload int

// Supported overload policies.
const (
	// OverloadBlock parks the ingest goroutine until the ring drains:
	// lossless, the default.
	OverloadBlock Overload = iota
	// OverloadShed bounds the full-ring wait at Config.ShedWait, then
	// drops that shard's slice of the batch and accounts every dropped
	// packet and byte (Stats.DroppedPackets/DroppedBytes, Degradation).
	OverloadShed
)

// String names the overload policy ("block", "shed").
func (o Overload) String() string {
	switch o {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	default:
		return fmt.Sprintf("overload(%d)", int(o))
	}
}

// Breaker is the fault-injection surface Config.Chaos accepts: the shard
// workers call it before absorbing a batch and before registering at a
// barrier, and it may sleep, block, or panic to simulate a slow, stuck,
// or crashing shard (see internal/chaos for the concrete plan). A panic
// thrown from either hook flows through the worker's panic isolation
// exactly like an engine panic.
type Breaker interface {
	// BeforeBatch runs on the shard's worker before a batch is absorbed.
	BeforeBatch(shard int)
	// BeforeBarrier runs on the shard's worker before it registers at a
	// barrier.
	BeforeBarrier(shard int)
}

// Degradation declares everything the pipeline observed but excluded
// from published reports, plus the fault state behind it. All counters
// are cumulative since New. Safe to call concurrently with ingest.
type Degradation struct {
	// DroppedPackets and DroppedBytes total the shed mass across all
	// shards: ring-full drops, quarantined substreams, and straggler
	// window slices that missed their merge.
	DroppedPackets int64 `json:"dropped_packets"`
	DroppedBytes   int64 `json:"dropped_bytes"`
	// ShardDroppedPackets and ShardDroppedBytes break the totals down
	// by shard.
	ShardDroppedPackets []int64 `json:"shard_dropped_packets"`
	ShardDroppedBytes   []int64 `json:"shard_dropped_bytes"`
	// DegradedMerges counts merges published without every shard.
	DegradedMerges int64 `json:"degraded_merges"`
	// Quarantined lists shards whose engine panicked; their substreams
	// are being shed.
	Quarantined []int `json:"quarantined_shards,omitempty"`
	// Panics counts recovered engine panics; LastPanic records the most
	// recent panic value.
	Panics    int64  `json:"panics"`
	LastPanic string `json:"last_panic,omitempty"`
}

// Degradation reports the pipeline's cumulative degradation state. Safe
// to call concurrently with ingest; hhhserve surfaces it on /healthz.
func (d *Sharded) Degradation() Degradation {
	deg := Degradation{
		ShardDroppedPackets: make([]int64, len(d.shards)),
		ShardDroppedBytes:   make([]int64, len(d.shards)),
	}
	for i, s := range d.shards {
		deg.ShardDroppedPackets[i] = s.droppedPackets.Load()
		deg.ShardDroppedBytes[i] = s.droppedBytes.Load()
		deg.DroppedPackets += deg.ShardDroppedPackets[i]
		deg.DroppedBytes += deg.ShardDroppedBytes[i]
		if s.quarantined.Load() {
			deg.Quarantined = append(deg.Quarantined, i)
		}
	}
	deg.DegradedMerges = d.degradedMerges.Load()
	d.mu.Lock()
	deg.Panics = d.panicked
	deg.LastPanic = d.lastPanic
	d.mu.Unlock()
	return deg
}

// DroppedMass reports the cumulative packets and bytes shed across all
// shards. Together with DegradedMerges it implements the oracle
// harness's Degraded surface: bound checks run relative to the mass the
// detector declares observed.
func (d *Sharded) DroppedMass() (packets, bytes int64) {
	for _, s := range d.shards {
		packets += s.droppedPackets.Load()
		bytes += s.droppedBytes.Load()
	}
	return packets, bytes
}

// DegradedMerges reports how many merges were published without every
// shard (the other half of the oracle harness's Degraded surface).
func (d *Sharded) DegradedMerges() int64 {
	return d.degradedMerges.Load()
}

// accountDropped charges p packets and b bytes of shed traffic to s.
func accountDropped(s *shard, p, b int64) {
	if p == 0 && b == 0 {
		return
	}
	s.droppedPackets.Add(p)
	s.droppedBytes.Add(b)
}

// shedBatch accounts a key-batch the shard will not absorb (quarantined
// or resyncing) and recycles it.
func (d *Sharded) shedBatch(s *shard, kb *trace.KeyBatch) {
	accountDropped(s, int64(kb.Len()), kb.Bytes())
	d.recycle(s, kb)
}

// shedSummary drops the shard's absorbed-but-unmerged summary state:
// the absorbed mass is accounted as shed and the engine reset. Used when
// a straggler rejoins after its window merged without it, and when a
// resyncing shard reaches its next token.
func (d *Sharded) shedSummary(s *shard) {
	accountDropped(s, s.absorbedPackets, s.absorbedBytes)
	s.absorbedPackets, s.absorbedBytes = 0, 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				d.quarantine(s, r, nil)
			}
		}()
		s.eng.Reset()
	}()
	s.size.Store(int64(s.eng.SizeBytes()))
}

// quarantine handles an engine panic on s's worker: the suspect summary
// state and the in-flight batch are accounted as shed, the engine is
// replaced with a fresh empty one (so barrier merges stay safe), and the
// shard is flagged quarantined — from here on its substream is shed with
// exact accounting, but it keeps draining its ring and answering
// barriers so its peers never deadlock.
func (d *Sharded) quarantine(s *shard, cause any, kb *trace.KeyBatch) {
	var packets, bytes int64
	if kb != nil {
		packets, bytes = int64(kb.Len()), kb.Bytes()
	}
	accountDropped(s, s.absorbedPackets+packets, s.absorbedBytes+bytes)
	s.absorbedPackets, s.absorbedBytes = 0, 0
	if fresh, err := newSummary(&d.cfg, s.idx); err == nil {
		s.eng = fresh
		s.size.Store(int64(fresh.SizeBytes()))
	}
	s.quarantined.Store(true)
	d.mu.Lock()
	d.panicked++
	d.lastPanic = fmt.Sprint(cause)
	d.mu.Unlock()
}

// barrier synchronises one merge point across the shards: a window close
// (reset true) or a snapshot-time query (reset false). Shards register
// as they reach the token; the one whose registration meets the quorum
// seals the barrier and runs the merge. With BarrierTimeout configured,
// a waiter whose deadline expires seals and merges with whoever has
// arrived instead — the degraded path — and shards reaching a sealed
// token rejoin late.
type barrier struct {
	seq        int64
	start, end int64 // window span (ModeWindowed) — end doubles as query time
	at         int64 // query/alignment timestamp
	reset      bool  // shards reset after the merged set is published

	mu     sync.Mutex
	need   int    // quorum: shards the token reached (shrinks via skipShard)
	count  int    // shards registered so far
	joined []bool // registration by shard index — merges iterate in index order
	sealed bool   // merge started; late registrants are excluded
	done   chan struct{}
}

// newBarrier builds a barrier expecting every shard of d.
func newBarrier(d *Sharded, start, end, at int64, reset bool) *barrier {
	return &barrier{
		start:  start,
		end:    end,
		at:     at,
		reset:  reset,
		need:   len(d.shards),
		joined: make([]bool, len(d.shards)),
		done:   make(chan struct{}),
	}
}

// skipShard removes one shard from b's quorum after its token could not
// be delivered (ring saturated past the bounded wait). Runs on the
// coordinator; if the remaining quorum has already registered, the
// coordinator completes the merge itself.
func (d *Sharded) skipShard(b *barrier) {
	b.mu.Lock()
	if b.sealed {
		b.mu.Unlock()
		return
	}
	b.need--
	if b.count >= b.need {
		d.sealAndComplete(b)
		return
	}
	b.mu.Unlock()
}

// register records s's arrival at b. It returns late=true when the
// barrier was already sealed — s's summary was not part of the merge.
// Otherwise it returns after the merged set is published, having run the
// merge itself if s's registration met the quorum.
func (d *Sharded) register(b *barrier, s *shard) (late bool) {
	b.mu.Lock()
	if b.sealed {
		b.mu.Unlock()
		return true
	}
	b.joined[s.idx] = true
	b.count++
	if b.count >= b.need {
		d.sealAndComplete(b)
		return false
	}
	b.mu.Unlock()
	d.waitBarrier(b)
	return false
}

// sealAndComplete marks b sealed and runs its merge with the registered
// shards. Called with b.mu held; unlocks it.
func (d *Sharded) sealAndComplete(b *barrier) {
	b.sealed = true
	joined := append([]bool(nil), b.joined...)
	count := b.count
	b.mu.Unlock()
	d.completeBarrier(b, joined, count)
}

// waitBarrier waits for b's merge to be published. With BarrierTimeout
// configured the wait is bounded: on expiry the caller seals the barrier
// and completes a degraded merge with whoever has arrived — this is what
// keeps Snapshot, window closes, and parked workers from hanging on a
// stuck shard (including the no-waiter case where every worker is stuck
// and only the coordinator is left to run the merge).
func (d *Sharded) waitBarrier(b *barrier) {
	if d.cfg.BarrierTimeout <= 0 {
		<-b.done
		return
	}
	timer := time.NewTimer(d.cfg.BarrierTimeout)
	defer timer.Stop()
	select {
	case <-b.done:
		return
	case <-timer.C:
	}
	b.mu.Lock()
	if b.sealed {
		b.mu.Unlock()
		<-b.done
		return
	}
	d.sealAndComplete(b)
}

// arrive is the shard side of a barrier token. A resyncing shard first
// sheds its unpublishable summary (it missed the previous reset). The
// shard then advances its summary to the barrier timestamp — aligning
// sliding frame rings so the merge is frame-for-frame — and registers.
// On-time shards return once the merged set is published and, for window
// closes, reset; a late shard's summary missed the merge, so for window
// closes it is shed and accounted instead of silently leaking into the
// next window.
func (d *Sharded) arrive(b *barrier, s *shard) {
	if s.resync.Swap(false) {
		d.shedSummary(s)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				d.quarantine(s, r, nil)
			}
		}()
		if d.cfg.Chaos != nil {
			d.cfg.Chaos.BeforeBarrier(s.idx)
		}
		if !s.quarantined.Load() {
			s.eng.Advance(b.at)
			s.tableUpdates.Store(tableUpdates(s.eng)) // Advance applied the pending block
		}
	}()
	late := d.register(b, s)
	s.lastBarrier.Store(b.seq)
	if !b.reset {
		return
	}
	if late {
		d.shedSummary(s)
		return
	}
	s.eng.Reset()
	s.absorbedPackets, s.absorbedBytes = 0, 0
	s.size.Store(int64(s.eng.SizeBytes()))
}

// completeBarrier folds the registered shards' summaries — the whole
// round in one Fold, in shard-index order (deterministic regardless of
// arrival order) — queries the merged summary at the barrier timestamp,
// and publishes the result, marked degraded when any shard is missing. It
// runs on whichever goroutine
// sealed the barrier (the quorum-meeting worker, a deadline-expired
// waiter, or the coordinator) while every registered shard is parked at
// the barrier, so it has exclusive access to their summaries; mergeMu
// serialises it against a concurrent completion of a neighbouring
// barrier. A panic during the merge (engine or OnWindow callback) is
// recovered so b.done always closes and the pipeline keeps running; the
// affected window keeps the previously published set.
func (d *Sharded) completeBarrier(b *barrier, joined []bool, count int) {
	defer close(b.done)
	d.mergeMu.Lock()
	defer d.mergeMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			d.mu.Lock()
			d.panicked++
			d.lastPanic = fmt.Sprint(r)
			d.mu.Unlock()
		}
	}()
	if d.tel != nil {
		t0 := time.Now()
		defer func() { d.tel.merge.Observe(time.Since(t0).Seconds()) }()
	}
	d.mergeFrom = d.mergeFrom[:0]
	for i, s := range d.shards {
		if joined[i] {
			d.mergeFrom = append(d.mergeFrom, s.eng)
		}
	}
	d.merged.Fold(d.mergeFrom...)
	set, total := d.merged.Query(b.at)
	d.mergedSize.Store(int64(d.merged.SizeBytes()))
	if d.tel != nil {
		folded, kept := slotTally(d.merged)
		d.foldedSlots.Store(folded)
		d.keptSlots.Store(kept)
	}
	degraded := count < len(d.shards)
	// Publish the whole result in one atomic pointer store: readers
	// (Snapshot, LastWindow, ReportMass, Stats, telemetry closures) get
	// an immutable, mutually consistent report without any lock shared
	// with this merge path. The deferred close(b.done) — declared first,
	// so it runs last — orders the store before any waitBarrier return.
	d.pub.Store(&WindowReport{Set: set, End: b.at, Bytes: total, Degraded: degraded, Shards: count})
	d.merges.Add(1)
	if degraded {
		d.degradedMerges.Add(1)
	}
	if d.cfg.OnWindow != nil {
		d.cfg.OnWindow(b.start, b.end, set)
	}
	if d.seal != nil {
		// Query barriers (sliding/continuous Snapshot) carry no window
		// span of their own; the seal covers the trailing width ending
		// at the barrier timestamp.
		start, end := b.start, b.end
		if !b.reset {
			start, end = b.at-int64(d.cfg.Window), b.at
		}
		d.emitSeal(nil, start, end, degraded)
	}
}
