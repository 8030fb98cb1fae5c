// Sealed-summary export: the ingest side of cluster mode. When
// Config.OnSeal is set, every completed merge — a window close in
// windowed mode, a snapshot barrier in the sliding and continuous modes
// — is additionally encoded into a stable internal/wire frame and handed
// to the callback, ready to ship to an aggregator node that merges
// frames from many ingest processes via the same Merge contracts the
// shards use locally.

package pipeline

import (
	"sync"
	"sync/atomic"
)

// Sealed is one merged summary sealed into a self-contained wire frame,
// plus the metadata an aggregator needs to align it: the window span it
// covers, a per-process monotonic sequence number, and the local
// degradation verdict. The Frame bytes are shared (empty windows reuse
// one cached frame) — treat as read-only.
type Sealed struct {
	// Mode is the pipeline's window model ("windowed", "sliding",
	// "continuous").
	Mode string
	// Engine names the summary engine the pipeline runs ("wcss", "tdbf",
	// …), as Stats().Engine and the metrics labels do.
	Engine string
	// Seq numbers this process's seals monotonically from 1; gaps at the
	// receiver mean frames were lost in transit.
	Seq int64
	// Start and End delimit the span the frame covers: the exact window
	// in windowed mode, the trailing window ending at the barrier
	// timestamp in sliding mode, and the decay-horizon-sized span ending
	// at the query timestamp in continuous mode.
	Start, End int64
	// Bytes is the merge's total mass (the threshold denominator).
	Bytes int64
	// Shards is how many shard summaries contributed.
	Shards int
	// Degraded marks a merge that completed without every shard.
	Degraded bool
	// Frame is the wire-encoded merged summary.
	Frame []byte
}

// sealState is the Sharded-side support for OnSeal: the callback, the
// seal sequence, and a lazily built cached frame for empty windows
// (whose summary state never varies, so one encoding serves them all).
type sealState struct {
	fn  func(Sealed)
	seq atomic.Int64

	emptyOnce  sync.Once
	emptyFrame []byte
}

// emptySealFrame returns the cached frame of a pristine summary, built
// on first use. Empty windows are common under idle traffic; caching
// keeps their fast path allocation-free after the first.
func (d *Sharded) emptySealFrame() []byte {
	d.seal.emptyOnce.Do(func() {
		eng, err := newSummary(&d.cfg, 0)
		if err != nil {
			return // New validated cfg already; unreachable
		}
		d.seal.emptyFrame = eng.Encode()
	})
	return d.seal.emptyFrame
}

// emitSeal encodes the merged summary and hands it to OnSeal. Runs on
// the goroutine that completed the merge (under mergeMu, so the summary
// is quiescent) or, for empty windows, on the coordinator with the
// cached empty frame.
func (d *Sharded) emitSeal(frame []byte, start, end, total int64, shards int, degraded bool) {
	d.seal.fn(Sealed{
		Mode:     d.cfg.Mode.String(),
		Engine:   d.cfg.Engine.String(),
		Seq:      d.seal.seq.Add(1),
		Start:    start,
		End:      end,
		Bytes:    total,
		Shards:   shards,
		Degraded: degraded,
		Frame:    frame,
	})
}
