// The engine seam: everything in this package (and the root package, and
// cmd/hhhserve) that depends on which summary engine is running lives in
// this file. The rest of the pipeline — rings, barriers, the single-
// goroutine driver, sealing, the Aggregator — sees only the Summary
// contract and the engine's row of the registry below. ARCHITECTURE.md,
// "The engine seam", has the recipe for adding an engine.

package pipeline

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// Summary is the engine contract: a mergeable digest of a packet
// substream that can sit behind a shard's ring, behind the single-
// goroutine driver, or — restored from its own wire frame — inside the
// Aggregator. All methods are called from one goroutine at a time.
//
// What the drivers call when: packets only ever enter through UpdateKeys.
// A windowed driver closes a window with Query(end) then Reset; the
// sliding and continuous drivers answer a snapshot with Advance(now) then
// Query(now) and never reset. Wherever several summaries are combined —
// a shard barrier, an Aggregator round — each is advanced to the common
// instant, the accumulator takes the whole round in one Fold call, and
// the accumulator is queried; Encode seals it for the next hop.
type Summary interface {
	// UpdateKeys absorbs a time-ordered columnar batch of pre-packed,
	// family-filtered leaf keys (see trace.KeyBatch). The producer packs
	// each key exactly once; summaries derive per-level keys by masking.
	UpdateKeys(b *trace.KeyBatch)
	// Advance settles the summary for a merge, on the goroutine that feeds
	// it: time-dependent state is aligned to now (expiring sliding frames)
	// so that equally-advanced summaries merge frame-for-frame, and packets
	// held back from the tables are applied (perlevel's coalescing block).
	// Summaries with neither treat it as a no-op.
	Advance(now int64)
	// Fold makes the receiver the merge of srcs — summaries of the same
	// engine and geometry, left unmodified — whatever it held before. It is
	// the one merge entry: a round's sources arrive together, so the
	// Space-Saving engines merge each table K ways, one truncation whatever
	// the order, and an engine whose state is mostly sealed between rounds
	// (wcss) keeps the parts of its previous fold that still stand.
	Fold(srcs ...Summary)
	// Query returns the HHH set at time now together with the total mass
	// (the threshold denominator: window bytes, covered sliding bytes, or
	// decayed mass).
	Query(now int64) (hhh.Set, int64)
	// Reset returns the summary to its empty state.
	Reset()
	// SizeBytes reports the summary's state footprint.
	SizeBytes() int
	// Encode seals the summary into its internal/wire frame;
	// wrap(wire.Decode(frame)) restores an equivalent summary.
	Encode() []byte
}

// Kind selects the summary engine. KindExact..KindMemento mirror the
// public Engine constants; KindTDBF is the continuous mode's only engine
// and has no public name, because ModeContinuous implies it.
type Kind int

// Supported engines, in registry order.
const (
	KindExact Kind = iota
	KindPerLevel
	KindRHHH
	KindWCSS
	KindMemento
	KindTDBF
)

// engine is one registry row: what the pipeline needs to know about a
// summary engine beyond the Summary contract.
type engine struct {
	// name labels the engine in Stats, metrics and sealed frames.
	name string
	// mode is the window model the engine serves.
	mode Mode
	// wire is the frame kind Encode produces, delta the kind of the frames
	// carrying what changed since the previous seal (encodeSeal), 0 for none.
	wire, delta wire.Kind
	// roundAligned says how the Aggregator aligns frames: merged per exact
	// window (true) or latest-frame-per-node (false).
	roundAligned bool
	// build constructs shard's raw engine from a defaulted Config, in the
	// form wire.Decode returns it (so wrap serves both).
	build func(cfg *Config, shard int) (any, error)
}

// sealedAt names the frame a restored summary stands at: the Seq its sender
// gave it and its checksum — what a delta calls its base.
type sealedAt struct {
	seq int64
	sum uint32
}

// engines is the registry, indexed by Kind. Within a mode the first row
// is the mode's default engine.
var engines = [...]engine{
	KindExact:    {"exact", ModeWindowed, wire.KindExact, 0, true, buildExact},
	KindPerLevel: {"perlevel", ModeWindowed, wire.KindPerLevel, 0, true, buildPerLevel},
	KindRHHH:     {"rhhh", ModeWindowed, wire.KindRHHH, 0, true, buildRHHH},
	KindWCSS:     {"wcss", ModeSliding, wire.KindSliding, wire.KindSlidingDelta, false, buildWCSS},
	KindMemento:  {"memento", ModeSliding, wire.KindMemento, 0, false, buildMemento},
	KindTDBF:     {"tdbf", ModeContinuous, wire.KindContinuous, 0, false, buildTDBF},
}

// row returns k's registry row, nil for an unknown kind.
func (k Kind) row() *engine {
	if k < 0 || int(k) >= len(engines) {
		return nil
	}
	return &engines[k]
}

// String names the engine kind ("exact", "perlevel", "rhhh", "wcss",
// "memento", "tdbf").
func (k Kind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// engineOfWire returns the row whose frames, full or delta, carry wire
// kind w, nil when no engine seals that kind (bare sketches and filters).
func engineOfWire(w wire.Kind) *engine {
	for i := range engines {
		if engines[i].wire == w || engines[i].delta == w {
			return &engines[i]
		}
	}
	return nil
}

// resolveEngine normalises c.Engine to the row the pipeline will run.
// The windowed kinds double as "unset" outside ModeWindowed — Engine's
// zero value is one of them, and configurations written before the
// sliding engines existed relied on them being ignored — so there they
// select the mode's default engine; any other mismatch is an error.
func (c *Config) resolveEngine() error {
	r := c.Engine.row()
	if r == nil {
		return fmt.Errorf("pipeline: unknown engine %v", c.Engine)
	}
	if r.mode == ModeWindowed && c.Mode != ModeWindowed {
		for k := range engines {
			if engines[k].mode == c.Mode {
				c.Engine, r = Kind(k), &engines[k]
				break
			}
		}
	}
	if r.mode != c.Mode {
		return fmt.Errorf("pipeline: engine %v requires %v mode", c.Engine, r.mode)
	}
	return nil
}

// newSummary builds one shard's summary for a defaulted cfg.
func newSummary(cfg *Config, shard int) (Summary, error) {
	e, err := cfg.Engine.row().build(cfg, shard)
	if err != nil {
		return nil, err
	}
	return wrap(e, cfg.Phi)
}

// wrap puts a raw engine — freshly built, or restored by wire.Decode —
// behind the Summary contract, thresholding queries at phi (the
// continuous detector carries its own).
func wrap(e any, phi float64) (Summary, error) {
	switch e := e.(type) {
	case wire.ExactSummary:
		return &exactSummary{h: e.Hierarchy, ex: e.Leaves, phi: phi}, nil
	case *hhh.PerLevel:
		return &perLevelSummary{d: e, phi: phi}, nil
	case *swhh.SlidingHHH:
		return &wcssSummary{d: e, phi: phi}, nil
	case *swhh.MementoHHH:
		return &mementoSummary{d: e, phi: phi}, nil
	case *continuous.Detector:
		return &tdbfSummary{d: e, occupied: make([]atomic.Int64, e.Config().Hierarchy.Levels())}, nil
	default:
		return nil, fmt.Errorf("pipeline: %T is not a pipeline engine", e)
	}
}

// restore brings a sender's summary to the state sealed in frame and
// returns it with the ring slots it restored and skipped. prev is the
// summary previous calls brought to the frame at names, nil when there is
// none. Every engine is restored over prev's own where the frame fits it
// (wire.Frame.DecodeInto; memento is decoded anew): wcss slot by slot, a
// full frame every slot and a delta the slots it carries, the rest
// untouched, stamps and all, so an accumulator's memo of them stands
// (ApplySlidingDelta); tdbf over its own cells; the windowed engines into
// their own tables. On error prev must be discarded, bar wire.ErrBase: a
// delta that does not follow at, refused unwritten.
func restore(prev Summary, at sealedAt, frame wire.Frame, phi float64) (sum Summary, restored, skipped int, err error) {
	var raw, e any
	switch p := prev.(type) {
	case *exactSummary:
		raw = wire.ExactSummary{Hierarchy: p.h, Leaves: p.ex}
	case *perLevelSummary:
		raw = p.d
	case *wcssSummary:
		raw = p.d
	case *tdbfSummary:
		raw = p.d
	}
	if frame.Header.Kind == wire.KindSlidingDelta {
		d, _ := raw.(*swhh.SlidingHHH)
		e = raw
		restored, skipped, err = frame.ApplySlidingDelta(d, at.seq, at.sum)
	} else {
		e, restored, err = frame.DecodeInto(raw)
	}
	switch {
	case err != nil:
		return nil, 0, 0, err
	case e == raw: // restored over prev's own engine
		return prev, restored, skipped, nil
	}
	sum, err = wrap(e, phi)
	return sum, restored, skipped, err
}

// encodeSeal is Encode on the OnSeal path. A wcss summary records what it
// sealed and, with delta set, frames only the ring slots written since the
// previous call, naming that call's frame — sealed under baseSeq, of
// checksum baseSum — as its base (wire.SealSliding); the other engines have
// no delta form. It reports whether the frame is a delta.
func encodeSeal(s Summary, delta bool, baseSeq int64, baseSum uint32) ([]byte, bool) {
	if e, ok := s.(*wcssSummary); ok {
		return wire.SealSliding(e.d, delta, baseSeq, baseSum), delta
	}
	return s.Encode(), false
}

// slotTally reports how many sealed-frame slots the accumulator s has
// folded afresh and how many it has kept from its previous fold, in total
// (swhh.SlidingHHH.Fold): the measure of what a round of sliding
// snapshots cost against what it would have cost cold. Engines without
// sealed frames fold everything every round and report zeros.
func slotTally(s Summary) (folded, kept int64) {
	if e, ok := s.(*wcssSummary); ok {
		return e.d.FoldTally()
	}
	return 0, 0
}

// tableUpdates reports how many Space-Saving updates the coalescing block
// of s's engine has applied since the engine was built (hhh.Block.Settle):
// over the packets absorbed, what a packet costs the tables. Engines
// without a block report zero.
func tableUpdates(s Summary) int64 {
	switch e := s.(type) {
	case *perLevelSummary:
		return e.d.TableUpdates()
	case *wcssSummary:
		return e.d.TableUpdates()
	}
	return 0
}

// shardSeed derives shard i's level-sampling stream from the configured
// seed by splitmix64 increments. Shard 0 keeps the seed itself, so the
// single-goroutine driver and a 1-shard pipeline draw the same sequence.
func shardSeed(cfg *Config, shard int) uint64 {
	return cfg.Seed ^ (uint64(shard) * 0x9e3779b97f4a7c15)
}

// slidingConfig is the single source of the sliding summary geometry:
// the sliding engines are built from it and CoveredSpan derives the
// covered span from it, so detector frames and accounting cannot drift
// apart (swhh applies the frame-length floor inside both paths).
func (c *Config) slidingConfig() swhh.Config {
	return swhh.Config{Window: c.Window, Frames: c.Frames, Counters: c.Counters}
}

func buildExact(cfg *Config, _ int) (any, error) {
	return wire.ExactSummary{Hierarchy: cfg.Hierarchy, Leaves: sketch.NewExact(1024)}, nil
}

func buildPerLevel(cfg *Config, _ int) (any, error) {
	return hhh.NewPerLevel(cfg.Hierarchy, cfg.Counters), nil
}

func buildRHHH(cfg *Config, shard int) (any, error) {
	return hhh.NewRHHH(cfg.Hierarchy, cfg.Counters, shardSeed(cfg, shard)), nil
}

func buildWCSS(cfg *Config, _ int) (any, error) {
	return swhh.NewSlidingHHH(cfg.Hierarchy, cfg.slidingConfig())
}

func buildMemento(cfg *Config, shard int) (any, error) {
	return swhh.NewMementoHHH(cfg.Hierarchy, cfg.slidingConfig(), shardSeed(cfg, shard))
}

// buildTDBF shares cfg.Seed verbatim across shards: cell-wise filter
// merging requires identical hash seeds.
func buildTDBF(cfg *Config, _ int) (any, error) {
	return continuous.NewDetector(continuous.Config{
		Hierarchy: cfg.Hierarchy,
		Phi:       cfg.Phi,
		Filter: tdbf.Config{
			Cells:  cfg.Cells,
			Hashes: cfg.Hashes,
			Decay:  tdbf.Exponential{Tau: cfg.Window},
		},
		Sampled: cfg.Sampled,
		Seed:    cfg.Seed,
		OnEnter: cfg.OnEnter,
		OnExit:  cfg.OnExit,
	})
}

// foldEach is Fold for the engines that take a round one source at a
// time: the receiver r is Reset, then f merges each source, in order, into
// it.
func foldEach[T Summary](r Summary, srcs []Summary, f func(o T)) {
	r.Reset()
	for _, o := range srcs {
		f(o.(T))
	}
}

// The windowed adapters carry no time state: Query ignores now,
// thresholding against the accumulated window volume, and Advance has
// nothing to align.

// exactSummary adapts the exact leaf map. Counts live at the leaf level
// only, so the packed key is the counter key verbatim.
type exactSummary struct {
	h   addr.Hierarchy
	ex  *sketch.Exact
	phi float64
	qs  hhh.ExactScratch
}

func (e *exactSummary) UpdateKeys(b *trace.KeyBatch) {
	sizes := b.Sizes[:len(b.Keys)]
	for i, k := range b.Keys {
		e.ex.Update(k, int64(sizes[i]))
	}
}
func (e *exactSummary) Advance(int64)  {}
func (e *exactSummary) Reset()         { e.ex.Reset() }
func (e *exactSummary) SizeBytes() int { return e.ex.Len() * 16 }
func (e *exactSummary) Encode() []byte { return wire.EncodeExact(e.h, e.ex) }

func (e *exactSummary) Fold(srcs ...Summary) {
	foldEach(e, srcs, func(o *exactSummary) { e.ex.AddAll(o.ex) })
}

func (e *exactSummary) Query(int64) (hhh.Set, int64) {
	total := e.ex.Total()
	return e.qs.Exact(e.ex, e.h, hhh.Threshold(total, e.phi)), total
}

// perLevelSummary adapts one Space-Saving summary per level, level-sampled
// (rhhh) or not (perlevel). Advance is where a shard settles its pending
// coalescing block, on its own goroutine, before the barrier merge reads
// its level summaries; a sampled engine has none.
type perLevelSummary struct {
	d   *hhh.PerLevel
	phi float64
}

func (e *perLevelSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *perLevelSummary) Advance(int64)                { e.d.Settle() }
func (e *perLevelSummary) Reset()                       { e.d.Reset() }
func (e *perLevelSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *perLevelSummary) Encode() []byte               { return wire.EncodePerLevel(e.d) }

func (e *perLevelSummary) Fold(srcs ...Summary) {
	round := make([]*hhh.PerLevel, 0, 8) // the usual round fits; a wider one spills to the heap
	for _, o := range srcs {
		round = append(round, o.(*perLevelSummary).d)
	}
	e.d.Reset()
	e.d.MergeAll(round)
}

func (e *perLevelSummary) Query(int64) (hhh.Set, int64) {
	return e.d.QueryFraction(e.phi), e.d.Total()
}

// wcssSummary adapts the per-level WCSS frame rings. Advance aligns the
// rings at the query instant so Fold is frame-by-frame. Fold is
// swhh.SlidingHHH.Fold: between two snapshots a source writes one or two
// of its ring slots, so the accumulator keeps every slot it would only
// fold again from unchanged inputs.
type wcssSummary struct {
	d    *swhh.SlidingHHH
	phi  float64
	from []*swhh.SlidingHHH // Fold's source list, reused
}

func (e *wcssSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *wcssSummary) Advance(now int64)            { e.d.Advance(now) }
func (e *wcssSummary) Reset()                       { e.d.Reset() }
func (e *wcssSummary) SizeBytes() int               { return e.d.SizeBytes() + cap(e.from)*8 }
func (e *wcssSummary) Encode() []byte               { return wire.EncodeSliding(e.d) }

func (e *wcssSummary) Fold(srcs ...Summary) {
	e.from = e.from[:0]
	for _, o := range srcs {
		e.from = append(e.from, o.(*wcssSummary).d)
	}
	e.d.Fold(e.from)
}

func (e *wcssSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.QueryMass(e.phi, now)
}

// mementoSummary adapts the level-sampled Memento sliding engine. Like
// wcssSummary, Advance aligns the frame clocks before a fold; the
// reported mass comes from the engine's exact totals ring, so accounting
// carries no sampling noise.
type mementoSummary struct {
	d   *swhh.MementoHHH
	phi float64
}

func (e *mementoSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *mementoSummary) Advance(now int64)            { e.d.Advance(now) }
func (e *mementoSummary) Reset()                       { e.d.Reset() }
func (e *mementoSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *mementoSummary) Encode() []byte               { return wire.EncodeMemento(e.d) }

func (e *mementoSummary) Fold(srcs ...Summary) {
	foldEach(e, srcs, func(o *mementoSummary) { e.d.Merge(o.d) })
}

func (e *mementoSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.Query(e.phi, now), e.d.WindowTotal(now)
}

// tdbfSummary adapts the time-decaying Bloom filter detector. The cells
// are scaled to a landmark and decay without being touched, so Advance has
// nothing to do; Fold rescales one side to the other's landmark as it
// adds them.
type tdbfSummary struct {
	d *continuous.Detector
	// occupied is each level's non-zero cell count at the last Fold, gauged.
	occupied []atomic.Int64
}

func (e *tdbfSummary) UpdateKeys(b *trace.KeyBatch) { e.d.ObserveKeys(b) }
func (e *tdbfSummary) Advance(int64)                {}
func (e *tdbfSummary) Reset()                       { e.d.Reset() }
func (e *tdbfSummary) SizeBytes() int               { return e.d.SizeBytes() }

func (e *tdbfSummary) Encode() []byte { return wire.EncodeContinuous(e.d) }

func (e *tdbfSummary) Fold(srcs ...Summary) {
	foldEach(e, srcs, func(o *tdbfSummary) { e.d.Merge(o.d) })
	for l, f := range e.d.Filters() {
		e.occupied[l].Store(int64(f.Occupied()))
	}
}

func (e *tdbfSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.Query(now), tdbf.SatInt64(e.d.TotalMass(now))
}

// registerEngineMetrics exports what only one engine has to show about
// the merge accumulator s: for tdbf, the occupied cells of each level's
// filter at the last merge over the cells the level has (Config.Cells where
// it is hashed, its whole prefix space where that is no larger): its fill.
func registerEngineMetrics(r *telemetry.Registry, s Summary) {
	e, ok := s.(*tdbfSummary)
	if !ok {
		return
	}
	occupied := r.GaugeVec("hhh_pipeline_tdbf_occupied_cells",
		"Non-zero cells of the merged time-decaying Bloom filter at each hierarchy level (0 = leaf), as of the most recent merge (a Snapshot or a window's barrier); 0 until the first. Over hhh_pipeline_tdbf_level_cells it is the level's fill: filter saturation at a hashed level, live prefixes over prefix space at a level held exactly.",
		"level")
	cells := r.GaugeVec("hhh_pipeline_tdbf_level_cells",
		"Cells of the time-decaying Bloom filter at each hierarchy level (0 = leaf), constant: Config.Cells at a hashed level, 2^r at a level whose r prefix bits give no more prefixes than that, which is held exactly.",
		"level")
	for l, f := range e.d.Filters() {
		occupied.WithFunc(func() float64 { return float64(e.occupied[l].Load()) }, strconv.Itoa(l))
		cells.With(strconv.Itoa(l)).Set(float64(f.Cells()))
	}
}
