package pipeline

import (
	"math"

	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
)

// Single is the ring-less driver: one Summary — the one shard 0 of a
// Sharded pipeline built from the same Config would own — fed on the
// caller's goroutine. It is what the public windowed, sliding and
// continuous detectors are. Packets are packed into a reused key-batch
// and enter through UpdateKeys, windows tumble on the same clock as the
// pipeline's, and a report is the summary's own Query, so a 1-shard
// pipeline and a Single report identically by construction. Config's
// pipeline-only fields (Shards, Batch, rings, overload, OnSeal, Metrics)
// are ignored. Not safe for concurrent use.
type Single struct {
	cfg    Config
	eng    Summary
	tumble tumbler
	kb     trace.KeyBatch // packing scratch, reused across calls

	// rep is the last report: the last closed window, or the last
	// Snapshot's query. reported is false until there is one.
	rep      WindowReport
	reported bool
	// peak is the largest footprint a window reached before its reset
	// (the exact engine's map grows with the window's distinct sources).
	peak int
}

// NewSingle builds the single-goroutine detector for cfg.
func NewSingle(cfg Config) (*Single, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	eng, err := newSummary(&cfg, 0)
	if err != nil {
		return nil, err
	}
	d := &Single{cfg: cfg, eng: eng, rep: WindowReport{Set: hhh.NewSet()}}
	if cfg.Mode == ModeWindowed {
		d.tumble = tumbler{width: int64(cfg.Window), close: d.closeWindow}
	}
	return d, nil
}

// ObserveBatch processes a run of packets in time order, split at window
// boundaries in windowed mode.
func (d *Single) ObserveBatch(pkts []trace.Packet) {
	for len(pkts) > 0 {
		n := d.tumble.next(pkts)
		d.kb.Reset()
		if d.kb.AppendPackets(d.cfg.Hierarchy, pkts[:n]) > 0 {
			d.tumble.hasData = true
			d.eng.UpdateKeys(&d.kb)
		}
		pkts = pkts[n:]
	}
}

// closeWindow is the tumbler's callback: report the window, then reset.
func (d *Single) closeWindow(start, end int64, empty bool) {
	set, total := hhh.NewSet(), int64(0)
	if !empty {
		set, total = d.eng.Query(end)
		d.peak = max(d.peak, d.eng.SizeBytes())
		d.eng.Reset()
	}
	d.publish(set, end, total)
	if d.cfg.OnWindow != nil {
		d.cfg.OnWindow(start, end, set)
	}
}

func (d *Single) publish(set hhh.Set, end, total int64) {
	d.rep, d.reported = WindowReport{Set: set, End: end, Bytes: total, Shards: 1}, true
}

// Snapshot returns the report at now: the most recently completed
// window's set in windowed mode (closing every window due), the
// summary's set at now otherwise.
func (d *Single) Snapshot(now int64) hhh.Set {
	if d.cfg.Mode == ModeWindowed {
		d.tumble.closeDue(now)
	} else {
		d.eng.Advance(now)
		set, total := d.eng.Query(now)
		d.publish(set, now, total)
	}
	return d.rep.Set
}

// ReportMass implements the public Accounting surface: the threshold
// denominator of Snapshot(now). Called on its own it takes the snapshot.
func (d *Single) ReportMass(now int64) int64 {
	if !d.reported || d.rep.End != now {
		d.Snapshot(now)
	}
	return d.rep.Bytes
}

// CoveredSpan implements the public Accounting surface (see
// Config.coveredSpan).
func (d *Single) CoveredSpan(now int64) (lo, hi int64) {
	d.tumble.closeDue(now) // nothing to close outside windowed mode
	return d.cfg.coveredSpan(now, d.rep.End, d.reported)
}

// coveredSpan is the span a report at now aggregates: the last closed
// window [lo, hi) in windowed mode — (0, 0) before any has closed, rather
// than a fabricated never-observed window — the frame-aligned covered
// span [lo, now] in sliding mode, and (math.MinInt64, now] in continuous
// mode, whose decayed aggregate has no sharp lower edge.
func (c *Config) coveredSpan(now, lastEnd int64, reported bool) (lo, hi int64) {
	switch c.Mode {
	case ModeSliding:
		return c.slidingConfig().CoveredSince(now), now
	case ModeContinuous:
		return math.MinInt64, now
	default:
		if !reported {
			return 0, 0
		}
		return windowStart(lastEnd, int64(c.Window)), lastEnd
	}
}

// SizeBytes reports the summary's footprint — in windowed mode the peak
// over the windows so far, since state is reset at every boundary.
func (d *Single) SizeBytes() int { return max(d.peak, d.eng.SizeBytes()) }
