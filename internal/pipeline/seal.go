// Sealed-summary export: the ingest side of cluster mode. When
// Config.OnSeal is set, every completed merge — a window close in
// windowed mode, a snapshot barrier in the sliding and continuous modes
// — is additionally encoded into a stable internal/wire frame and handed
// to the callback, ready to ship to an aggregator node that merges
// frames from many ingest processes via the same Fold contract the
// shards use locally.

package pipeline

import (
	"sync"
	"sync/atomic"

	"hiddenhhh/internal/wire"
)

// Sealed is one merged summary sealed into a wire frame, plus the metadata
// an aggregator needs to align it: the window span it covers, a
// per-process monotonic sequence number, and the local degradation
// verdict. The frame is self-contained unless Delta says otherwise. The
// Frame bytes are shared (empty windows reuse one cached frame) — treat as
// read-only.
type Sealed struct {
	// Seq numbers this process's seals monotonically from 1; gaps at the
	// receiver mean frames were lost in transit.
	Seq int64
	// Start and End delimit the span the frame covers: the exact window
	// in windowed mode, the trailing window ending at the barrier
	// timestamp in sliding mode, and the decay-horizon-sized span ending
	// at the query timestamp in continuous mode.
	Start, End int64
	// Degraded marks a merge that completed without every shard.
	Degraded bool
	// Delta marks a frame that carries only what the engine wrote since this
	// process's previous seal (Seq-1), which it names and must be applied
	// over: wcss seals, bar the first, every fullSealEvery-th and the one
	// after ResyncSeal. Every other frame decodes on its own.
	Delta bool
	// Frame is the wire-encoded merged summary.
	Frame []byte
}

// fullSealEvery is how often an engine that seals deltas sends the whole
// summary regardless: seals 1, 65, 129, … A receiver that cannot apply a
// delta says so and gets a full frame one seal later (ErrNeedFull,
// ResyncSeal), so this only bounds how long a fault nobody foresaw, or a
// receiver that cannot answer, goes uncorrected, at 1/64 of the bytes
// deltas save. A constant: no deployment has been shown to want another.
const fullSealEvery = 64

// sealState is the Sharded-side support for OnSeal: the callback, the
// seal sequence, and a lazily built cached frame for empty windows
// (whose summary state never varies, so one encoding serves them all).
type sealState struct {
	fn  func(Sealed)
	seq atomic.Int64
	// The delta chain, under mergeMu: the checksum of the frame sealed last
	// (with seq, the base the next delta names) and the deltas sealed since
	// the last full frame; resync asks for the next seal to be full.
	lastSum uint32
	deltas  int
	resync  atomic.Bool
	// Seals and their bytes by form (0 full, 1 delta), for the counters.
	seals, sealBytes [2]atomic.Int64

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

// emitSeal hands a sealed frame to OnSeal: frame, the cached empty one on
// the coordinator, or with frame nil the merged summary, encoded here — on
// the goroutine that completed the merge, under mergeMu, so the summary is
// quiescent — as a delta over the previous seal where the engine has that
// form (encodeSeal) and neither the chain's length nor ResyncSeal asks for
// a full frame.
func (d *Sharded) emitSeal(frame []byte, start, end int64, degraded bool) {
	st, form := d.seal, 0
	if frame == nil {
		delta := !st.resync.Swap(false) && st.seq.Load() > 0 && st.deltas < fullSealEvery-1
		if frame, delta = encodeSeal(d.merged, delta, st.seq.Load(), st.lastSum); delta {
			st.deltas, form = st.deltas+1, 1
		} else {
			st.deltas = 0
		}
		st.lastSum = wire.Checksum(frame)
	}
	st.seals[form].Add(1)
	st.sealBytes[form].Add(int64(len(frame)))
	st.fn(Sealed{
		Seq:      st.seq.Add(1),
		Start:    start,
		End:      end,
		Degraded: degraded,
		Delta:    form == 1,
		Frame:    frame,
	})
}

// ResyncSeal makes the next seal a full frame, whatever the engine: what a
// sender calls when a frame did not reach its receiver or the receiver
// answered ErrNeedFull, so that the deltas after it have a base the
// receiver holds. Safe to call from any goroutine, OnSeal included.
func (d *Sharded) ResyncSeal() {
	if d.seal != nil {
		d.seal.resync.Store(true)
	}
}
