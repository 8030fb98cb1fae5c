// Cluster aggregation: the receive side of cluster mode. An Aggregator
// accepts sealed wire frames from a fleet of ingest processes (each
// running its own Sharded pipeline with Config.OnSeal set), aligns them
// — per exact window for the windowed engines, latest-frame-per-node for
// the sliding and continuous engines — folds them through the same Fold
// contract the in-process shards use, and publishes a global HHH report.
// Late or missing nodes degrade the report's declared coverage (Nodes <
// Expected, Degraded set), never its correctness: a published set is
// always the true answer over the frames that arrived.
//
// Alignment rules
//
//   - Windowed kinds (per-level, exact, rhhh): frames are grouped into
//     rounds keyed by their window End. A round publishes as soon as
//     every expected node has contributed, or when RoundGrace expires,
//     whichever is first; the grace path publishes with the nodes that
//     arrived and marks the report degraded. Frames for already
//     published rounds are counted late and dropped. A round's frames
//     restore into the summaries the nodes' previous rounds left, table
//     for table.
//   - Sliding kinds (sliding, memento) and continuous: the aggregator
//     is a barrier whose shards are nodes. It keeps one restored summary
//     per node, brought up to date by each accepted frame (decoded once;
//     the WCSS rings are restored in place, a full frame every slot — a
//     WCSS node seals deltas, the slots that changed, each applied only
//     over the very frame it names and otherwise answered ErrNeedFull), and
//     on every ingest advances the node summaries to the fleet-wide
//     maximum End, folds them in node-name order into its accumulator
//     and queries it; a lone contributing node is queried directly.
//     A silent node's last frame keeps contributing until it ages out
//     of the window naturally — exactly the sliding model's semantics —
//     and the report is marked degraded once any node's End trails the
//     fleet maximum by more than the window span.
//
// Every frame is validated by the wire codec before it touches an
// engine; kind or hierarchy drift against the first accepted frame is
// rejected with a typed error, and engine panics on geometry mismatches
// (e.g. two nodes configured with different counter budgets) are
// recovered and reported as errors, keeping the aggregator alive.

package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/wire"
)

// ErrFrameRejected wraps every Aggregator.Ingest rejection that is the
// sender's fault (undecodable frame, kind or hierarchy drift, merge
// geometry mismatch) so servers can map it to a 4xx response.
var ErrFrameRejected = errors.New("pipeline: frame rejected")

// ErrNeedFull is Aggregator.Ingest's answer to a delta frame (Sealed.Delta)
// it cannot apply: the base it names is not the last frame applied for that
// node — one was lost, swapped or refused on the way, the sender restarted,
// or the aggregator did — or a ring slot it leaves out has since expired
// from the node's retained summary. Not an ErrFrameRejected: the retained
// summary is untouched and keeps contributing, nothing counts as rejected,
// and the sender recovers with one full frame (Sharded.ResyncSeal).
var ErrNeedFull = errors.New("pipeline: delta frame has no base here, need a full frame")

// AggregatorConfig parameterises NewAggregator.
type AggregatorConfig struct {
	// Expected is the ingest fleet size the aggregator waits for before
	// publishing a windowed round, and the denominator for coverage
	// degradation. Required.
	Expected int
	// Phi is the global threshold fraction applied to the merged
	// summary. Required for every kind except continuous, whose decoded
	// detectors carry their own phi.
	Phi float64
	// RoundGrace bounds how long a windowed round waits for stragglers
	// after its first frame arrives; on expiry the round publishes
	// degraded with the nodes present. Default 2s.
	RoundGrace time.Duration
	// Metrics, when set, registers per-node frame/lag/last-seen series
	// and aggregate merge counters on the registry.
	Metrics *telemetry.Registry
}

func (c *AggregatorConfig) setDefaults() error {
	if c.Expected <= 0 {
		return fmt.Errorf("pipeline: aggregator expects a positive fleet size, got %d", c.Expected)
	}
	if !(c.Phi > 0 && c.Phi <= 1) {
		return fmt.Errorf("pipeline: aggregator phi %v out of (0,1]", c.Phi)
	}
	if c.RoundGrace <= 0 {
		c.RoundGrace = 2 * time.Second
	}
	return nil
}

// AggReport is one published global merge.
type AggReport struct {
	// Set is the merged fleet-wide HHH set.
	Set hhh.Set
	// Start and End delimit the span the report covers (the round's
	// window for windowed kinds, the trailing span ending at the fleet
	// maximum End for sliding kinds).
	Start, End int64
	// Bytes is the merged total mass the threshold was computed from.
	Bytes int64
	// Nodes is how many ingest nodes contributed frames.
	Nodes int
	// Expected is the configured fleet size.
	Expected int
	// Degraded marks a report missing nodes (or lagging ones, for
	// sliding kinds) or built from frames that were themselves sealed
	// degraded on their ingest node.
	Degraded bool
	// Seq numbers publications monotonically from 1.
	Seq int64
}

// AggNodeStats is the per-node view served by Aggregator.Stats.
type AggNodeStats struct {
	// Node is the sender's self-declared name.
	Node string `json:"node"`
	// Frames counts accepted frames from this node.
	Frames int64 `json:"frames"`
	// LastSeq is the highest seal sequence number seen.
	LastSeq int64 `json:"last_seq"`
	// LastEnd is the newest window End covered by this node's frames.
	LastEnd int64 `json:"last_end"`
	// LastSeenUnixNano is the wall-clock receipt time of the newest
	// frame.
	LastSeenUnixNano int64 `json:"last_seen_unix_nano"`
	// LagNs is how far this node's LastEnd trails the fleet maximum.
	LagNs int64 `json:"lag_ns"`
	// Rejected counts frames from this node that failed decode or
	// validation.
	Rejected int64 `json:"rejected"`
	// NeedFull counts delta frames from this node answered ErrNeedFull:
	// a frame offered is late (AggStats.LateFrames), NeedFull, or in Frames.
	NeedFull int64 `json:"need_full"`
}

// AggStats is the aggregator-wide counter snapshot.
type AggStats struct {
	// Kind is the summary kind the fleet ships ("" until the first
	// frame).
	Kind string `json:"kind"`
	// Expected is the configured fleet size.
	Expected int `json:"expected"`
	// Merges counts published reports; DegradedMerges the subset
	// published without full fleet coverage.
	Merges         int64 `json:"merges"`
	DegradedMerges int64 `json:"degraded_merges"`
	// LateFrames counts frames that arrived for an already published
	// round (or behind the sender's own newest sequence) and were
	// dropped.
	LateFrames int64 `json:"late_frames"`
	// Rejected counts frames refused for decode or validation errors.
	Rejected int64 `json:"rejected"`
	// Nodes holds the per-node views, sorted by name.
	Nodes []AggNodeStats `json:"nodes"`
}

// aggNode tracks one sender.
type aggNode struct {
	name     string
	frames   int64
	lastSeq  int64
	lastEnd  int64
	lastSeen int64 // wall-clock unix nanos
	rejected int64
	needFull int64
	// sum is the summary restored from the frames applied so far (windowed
	// kinds: kept to restore the next round's into) and at the last of them
	// (latest-frame kinds); both zero until a frame is applied.
	sum         Summary
	at          sealedAt
	frameCtr    *telemetry.Counter
	needFullCtr *telemetry.Counter
}

// aggRound is one pending windowed round.
type aggRound struct {
	start, end int64
	frames     map[string]wire.Frame // verified at Ingest, decoded at publication
	degraded   bool                  // any contributing frame sealed degraded
	timer      *time.Timer           // RoundGrace: armed when a frame leaves the round incomplete
}

// Aggregator merges sealed summary frames from many ingest processes
// into a global HHH report. All methods are safe for concurrent use.
type Aggregator struct {
	cfg AggregatorConfig

	mu        sync.Mutex
	eng       *engine     // registry row pinned by the first accepted frame
	hdr       wire.Header // descriptor pinned alongside it
	spanWidth int64       // window span learned from sealed metadata
	nodes     map[string]*aggNode
	order     []*aggNode          // the same nodes sorted by name: the fold order
	acc       Summary             // what a round of ≥ 2 summaries folds into
	rounds    map[int64]*aggRound // windowed kinds only
	published int64               // newest published round End
	fleetEnd  int64               // newest End any node has sent
	closed    bool

	pub            atomic.Pointer[AggReport]
	pubSeq         atomic.Int64
	merges         atomic.Int64
	degradedMerges atomic.Int64
	lateFrames     atomic.Int64
	rejected       atomic.Int64
	// Ring slots restored from accepted sliding frames and slots a delta
	// left out, and the footprint of everything retained between ingests
	// (node summaries, the accumulator).
	restoredSlots, skippedSlots atomic.Int64
	stateBytes                  atomic.Int64

	frameVec    *telemetry.CounterVec
	needFullVec *telemetry.CounterVec
	lagVec      *telemetry.GaugeVec
	seenVec     *telemetry.GaugeVec
}

// NewAggregator builds an aggregator for a fleet of cfg.Expected ingest
// nodes. Callers should Close it to release pending round timers.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	a := &Aggregator{
		cfg:    cfg,
		nodes:  make(map[string]*aggNode),
		rounds: make(map[int64]*aggRound),
	}
	a.pub.Store(&AggReport{Set: hhh.NewSet(), Expected: cfg.Expected})
	if r := cfg.Metrics; r != nil {
		a.frameVec = r.CounterVec("hhh_aggregator_frames_total",
			"Sealed frames accepted, by ingest node.", "node")
		a.needFullVec = r.CounterVec("hhh_aggregator_need_full_total",
			"Delta frames answered ErrNeedFull — their base is not the node's last applied frame, or a slot they omit has expired here — by ingest node; the sender's next seal is a full frame.", "node")
		a.lagVec = r.GaugeVec("hhh_aggregator_node_lag_seconds",
			"How far each node's newest window End trails the fleet maximum.", "node")
		a.seenVec = r.GaugeVec("hhh_aggregator_node_last_seen_seconds",
			"Wall-clock receipt time of each node's newest frame (unix seconds).", "node")
		r.CounterFunc("hhh_aggregator_merges_total",
			"Global reports published.", a.merges.Load)
		r.CounterFunc("hhh_aggregator_degraded_merges_total",
			"Global reports published without full fleet coverage.", a.degradedMerges.Load)
		r.CounterFunc("hhh_aggregator_late_frames_total",
			"Frames dropped for arriving behind an already published round.", a.lateFrames.Load)
		r.CounterFunc("hhh_aggregator_rejected_frames_total",
			"Frames refused for decode or validation errors.", a.rejected.Load)
		slots := r.CounterVec("hhh_aggregator_restore_slots_total",
			"Ring slots of accepted sliding frames, by whether the slot was restored into the node's summary or skipped as left out of a delta.",
			"result")
		slots.WithFunc(a.restoredSlots.Load, "restored")
		slots.WithFunc(a.skippedSlots.Load, "skipped")
		r.GaugeFunc("hhh_aggregator_state_bytes",
			"Footprint of the state retained between ingests: the node summaries — a windowed node's as its newest round restored it, kept for the next round's frame to restore into — plus the merge accumulator, both alignment models.",
			func() float64 { return float64(a.stateBytes.Load()) })
	}
	return a, nil
}

// node returns (creating on first use) the tracker for a sender.
// Caller holds a.mu.
func (a *Aggregator) node(name string) *aggNode {
	n, ok := a.nodes[name]
	if !ok {
		n = &aggNode{name: name}
		if a.frameVec != nil {
			n.frameCtr = a.frameVec.With(name)
			n.needFullCtr = a.needFullVec.With(name)
			a.lagVec.WithFunc(func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(a.lagLocked(n)) / 1e9
			}, name)
			a.seenVec.WithFunc(func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(n.lastSeen) / 1e9
			}, name)
		}
		a.nodes[name] = n
		i := sort.Search(len(a.order), func(i int) bool { return a.order[i].name > name })
		a.order = slices.Insert(a.order, i, n)
	}
	return n
}

// lagLocked is how far n's newest End trails the fleet's: 0 for the
// leader and for a node that has sent nothing yet. Caller holds a.mu.
func (a *Aggregator) lagLocked(n *aggNode) int64 {
	if n.lastEnd == 0 {
		return 0
	}
	return a.fleetEnd - n.lastEnd
}

// reject counts and wraps a sender-fault error.
func (a *Aggregator) reject(n *aggNode, format string, args ...any) error {
	a.rejected.Add(1)
	if n != nil {
		n.rejected++
	}
	return fmt.Errorf("%w: %s", ErrFrameRejected, fmt.Sprintf(format, args...))
}

// Ingest accepts one sealed frame from the named node. Rejections wrap
// ErrFrameRejected; a nil return means the frame was accepted (it may
// still have been dropped as late, which Stats counts).
func (a *Aggregator) Ingest(nodeName string, s Sealed) error {
	frame, err := wire.Verify(s.Frame)
	hdr := frame.Header
	if err != nil {
		a.mu.Lock()
		n := a.node(nodeName)
		err := a.reject(n, "bad frame from %s: %v", nodeName, err)
		a.mu.Unlock()
		return err
	}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("pipeline: aggregator closed")
	}
	n := a.node(nodeName)
	if a.eng == nil {
		if a.eng = engineOfWire(hdr.Kind); a.eng == nil {
			err := a.reject(n, "kind %v is not a mergeable top-level summary", hdr.Kind)
			a.mu.Unlock()
			return err
		}
		a.hdr = hdr
	}
	if hdr.Kind != a.eng.wire && hdr.Kind != a.eng.delta {
		err := a.reject(n, "kind drift: fleet ships %v, %s sent %v", a.eng.wire, nodeName, hdr.Kind)
		a.mu.Unlock()
		return err
	}
	if hdr.Family != a.hdr.Family || hdr.Step != a.hdr.Step || hdr.Depth != a.hdr.Depth {
		a.rejected.Add(1)
		n.rejected++
		a.mu.Unlock()
		return fmt.Errorf("%w: %w: fleet hierarchy (%d/%d/%d), %s sent (%d/%d/%d)",
			ErrFrameRejected, wire.ErrHierarchyMismatch,
			a.hdr.Family, a.hdr.Step, a.hdr.Depth,
			nodeName, hdr.Family, hdr.Step, hdr.Depth)
	}
	if s.Seq <= n.lastSeq || a.eng.roundAligned && s.End <= a.published {
		a.lateFrames.Add(1)
		a.mu.Unlock()
		return nil
	}
	if a.eng.roundAligned {
		a.acceptLocked(n, s)
		err = a.ingestRoundLocked(nodeName, s, frame)
	} else {
		err = a.ingestLatestLocked(n, s, frame)
	}
	a.mu.Unlock()
	return err
}

// acceptLocked books a frame that is neither late nor refused for want of
// its base against its node and the fleet clock. Caller holds a.mu.
func (a *Aggregator) acceptLocked(n *aggNode, s Sealed) {
	n.frames++
	n.lastSeq = s.Seq
	if s.End > n.lastEnd {
		n.lastEnd = s.End
		a.fleetEnd = max(a.fleetEnd, s.End)
	}
	n.lastSeen = time.Now().UnixNano()
	if n.frameCtr != nil {
		n.frameCtr.Inc()
	}
	if w := s.End - s.Start; w > 0 {
		a.spanWidth = w
	}
}

// ingestLatestLocked brings the node's summary up to its new frame and
// republishes (latest-frame kinds). A delta that does not follow the frame
// the summary stands at is answered ErrNeedFull before anything is written
// or booked. A frame that does not restore is rejected and takes the
// node's summary with it — an in-place restore has no way back — so the
// node stops contributing until its next good full frame. Caller holds a.mu.
func (a *Aggregator) ingestLatestLocked(n *aggNode, s Sealed, frame wire.Frame) error {
	sum, restored, skipped, err := restore(n.sum, n.at, frame, a.cfg.Phi)
	if errors.Is(err, wire.ErrBase) {
		n.needFull++
		if n.needFullCtr != nil {
			n.needFullCtr.Inc()
		}
		return fmt.Errorf("%w: %s seal %d: %v", ErrNeedFull, n.name, s.Seq, err)
	}
	a.acceptLocked(n, s)
	if err != nil {
		n.sum, n.at = nil, sealedAt{}
		return a.reject(n, "bad frame from %s: %v", n.name, err)
	}
	n.sum, n.at = sum, sealedAt{seq: s.Seq, sum: wire.Checksum(s.Frame)}
	a.restoredSlots.Add(int64(restored))
	a.skippedSlots.Add(int64(skipped))
	return a.publishLatestLocked(s.Degraded)
}

// ingestRoundLocked files a frame into its window round, not yet
// published, publishing the round when the fleet is complete. Caller holds
// a.mu.
func (a *Aggregator) ingestRoundLocked(nodeName string, s Sealed, frame wire.Frame) error {
	r, ok := a.rounds[s.End]
	if !ok {
		r = &aggRound{start: s.Start, end: s.End, frames: make(map[string]wire.Frame)}
		a.rounds[s.End] = r
	}
	r.frames[nodeName] = frame
	r.degraded = r.degraded || s.Degraded
	if len(r.frames) >= a.cfg.Expected {
		return a.publishRoundsThroughLocked(r.end)
	}
	if r.timer == nil {
		r.timer = time.AfterFunc(a.cfg.RoundGrace, func() { a.expireRound(s.End) })
	}
	return nil
}

// expireRound is the RoundGrace timer body: publish the round with
// whoever arrived.
func (a *Aggregator) expireRound(end int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.rounds[end] == nil || end <= a.published {
		return
	}
	_ = a.publishRoundsThroughLocked(end)
}

// publishRoundsThroughLocked publishes every pending round with End ≤
// end in window order (older rounds flush degraded ahead of a completed
// newer one, keeping publications monotone). Caller holds a.mu.
func (a *Aggregator) publishRoundsThroughLocked(end int64) error {
	var ends []int64
	for e := range a.rounds {
		if e <= end {
			ends = append(ends, e)
		}
	}
	slices.Sort(ends)
	var firstErr error
	for _, e := range ends {
		r := a.rounds[e]
		delete(a.rounds, e)
		if r.timer != nil { // nil: complete on its first frame
			r.timer.Stop()
		}
		a.published = e
		if err := a.publishRoundLocked(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// publishRoundLocked restores one round's frames, in node-name order, each
// into the summary its node's previous round left, and publishes their fold
// as the global report. A frame that does not restore rejects the round and
// drops its node's summary, which may be half written: the node's next
// frame restores cold. Caller holds a.mu.
func (a *Aggregator) publishRoundLocked(r *aggRound) error {
	sums := make([]Summary, 0, len(r.frames))
	for _, n := range a.order {
		if f, ok := r.frames[n.name]; ok {
			s, _, _, err := restore(n.sum, sealedAt{}, f, a.cfg.Phi)
			if n.sum = s; err != nil {
				return a.reject(nil, "round %d: %v", r.end, err)
			}
			sums = append(sums, s)
		}
	}
	set, total, err := a.fold(sums, r.end)
	if err != nil {
		return a.reject(nil, "round %d: %v", r.end, err)
	}
	a.store(&AggReport{
		Set:      set,
		Start:    r.start,
		End:      r.end,
		Bytes:    total,
		Nodes:    len(r.frames),
		Expected: a.cfg.Expected,
		Degraded: r.degraded || len(r.frames) < a.cfg.Expected,
	})
	return nil
}

// publishLatestLocked merges every node's summary as of its newest frame
// (latest-frame kinds). Caller holds a.mu.
func (a *Aggregator) publishLatestLocked(sealDegraded bool) error {
	var sums []Summary
	var maxEnd int64
	for _, n := range a.order {
		if n.sum == nil {
			continue
		}
		sums = append(sums, n.sum)
		if n.lastEnd > maxEnd {
			maxEnd = n.lastEnd
		}
	}
	set, total, err := a.fold(sums, maxEnd)
	if err != nil {
		return a.reject(nil, "%v", err)
	}
	degraded := sealDegraded || len(sums) < a.cfg.Expected
	if width := a.spanWidth; width > 0 {
		for _, n := range a.order {
			if n.sum != nil && maxEnd-n.lastEnd > width {
				degraded = true // node's last frame has aged past the span
			}
		}
	}
	a.store(&AggReport{
		Set:      set,
		Start:    a.latestStart(maxEnd),
		End:      maxEnd,
		Bytes:    total,
		Nodes:    len(sums),
		Expected: a.cfg.Expected,
		Degraded: degraded,
	})
	return nil
}

// latestStart derives the published span start for sliding kinds: the
// fleet span ends at the maximum End and is window-sized, with the
// width learned from sealed metadata (nodes share one config).
func (a *Aggregator) latestStart(maxEnd int64) int64 {
	if a.spanWidth <= 0 {
		return maxEnd
	}
	return maxEnd - a.spanWidth
}

// store publishes a report with the next sequence number.
func (a *Aggregator) store(r *AggReport) {
	r.Seq = a.pubSeq.Add(1)
	a.pub.Store(r)
	a.merges.Add(1)
	if r.Degraded {
		a.degradedMerges.Add(1)
	}
}

// fold is the one combining step of both alignment models, the step a
// shard barrier takes: every summary of the round — a window's restored
// frames or the nodes' retained summaries, in node-name order, only read —
// is advanced to at; a lone one is queried as it stands (a fold would
// rebuild every table for the union it already holds), otherwise the
// accumulator takes the round in one Fold and is queried. The accumulator
// is a summary of the fleet's geometry, made once by decoding the first
// summary's own frame. A panic (geometry drift between nodes) is
// recovered into an error and drops the accumulator, which it may have
// left half folded. On the way out it records the footprint of what stays
// retained: the node summaries and the accumulator. Caller holds a.mu.
func (a *Aggregator) fold(sums []Summary, at int64) (set hhh.Set, total int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			set, total, err = nil, 0, fmt.Errorf("merge panic: %v", r)
			a.acc = nil
		}
		state := 0
		for _, n := range a.order {
			if n.sum != nil {
				state += n.sum.SizeBytes()
			}
		}
		if a.acc != nil {
			state += a.acc.SizeBytes()
		}
		a.stateBytes.Store(int64(state))
	}()
	if len(sums) == 0 {
		return hhh.NewSet(), 0, nil
	}
	for _, s := range sums {
		s.Advance(at)
	}
	acc := sums[0]
	if len(sums) > 1 {
		if a.acc == nil {
			first, err := wire.Verify(sums[0].Encode())
			if err != nil {
				return nil, 0, err
			}
			if a.acc, _, _, err = restore(nil, sealedAt{}, first, a.cfg.Phi); err != nil {
				return nil, 0, err
			}
		}
		acc = a.acc
		acc.Fold(sums...)
	}
	set, total = acc.Query(at)
	return set, total, nil
}

// Report returns the newest published global report. Never nil.
func (a *Aggregator) Report() *AggReport { return a.pub.Load() }

// Stats snapshots the aggregator counters and per-node views.
func (a *Aggregator) Stats() AggStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AggStats{
		Expected:       a.cfg.Expected,
		Merges:         a.merges.Load(),
		DegradedMerges: a.degradedMerges.Load(),
		LateFrames:     a.lateFrames.Load(),
		Rejected:       a.rejected.Load(),
	}
	if a.eng != nil {
		st.Kind = a.eng.wire.String()
	}
	for _, n := range a.order {
		st.Nodes = append(st.Nodes, AggNodeStats{
			Node:             n.name,
			Frames:           n.frames,
			LastSeq:          n.lastSeq,
			LastEnd:          n.lastEnd,
			LastSeenUnixNano: n.lastSeen,
			LagNs:            a.lagLocked(n),
			Rejected:         n.rejected,
			NeedFull:         n.needFull,
		})
	}
	return st
}

// Flush publishes every pending windowed round immediately (degraded if
// incomplete). A no-op for sliding kinds, whose reports are always
// current.
func (a *Aggregator) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || len(a.rounds) == 0 {
		return
	}
	var maxEnd int64
	for e := range a.rounds {
		if e > maxEnd {
			maxEnd = e
		}
	}
	_ = a.publishRoundsThroughLocked(maxEnd)
}

// Close stops pending round timers. Further Ingest calls fail.
func (a *Aggregator) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	for _, r := range a.rounds {
		r.timer.Stop()
	}
}
