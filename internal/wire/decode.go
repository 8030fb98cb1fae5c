package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
)

// ExactSummary is the decoded form of a KindExact frame: the exact
// leaf-key map together with the hierarchy it was collected under.
type ExactSummary struct {
	// Hierarchy the leaf keys belong to.
	Hierarchy addr.Hierarchy
	// Leaves holds the exact per-leaf-key counts.
	Leaves *sketch.Exact
}

// Decode parses any frame and returns the decoded summary as one of
// *sketch.SpaceSaving, ExactSummary, *hhh.PerLevel, *hhh.RHHH,
// *swhh.SlidingHHH, *swhh.MementoHHH, *tdbf.Filter, *continuous.Detector
// or SlidingDelta. It never panics on arbitrary input; failures wrap
// exactly one of the typed errors.
func Decode(frame []byte) (any, error) {
	f, err := Verify(frame)
	if err != nil {
		return nil, err
	}
	return f.Decode()
}

// Decode is the package-level Decode for a frame already verified.
func (f Frame) Decode() (any, error) {
	v, _, err := f.DecodeInto(nil)
	return v, err
}

// DecodeInto is Decode restoring in place into prev, what an earlier
// decode of a frame of the same kind returned, and returns the summary
// with the ring slots it restored (a full sliding frame restores every
// slot; the other kinds have none). The exact map is always refilled in
// place and the ExactSummary returned carries prev's Leaves. A per-level or
// rhhh engine over the frame's hierarchy is restored in place, each level
// into its own summary where the capacity is the frame's, else into a new
// one (decodeSS); a sliding or continuous engine of the frame's geometry
// through RestoreSliding or RestoreContinuous. Memento frames ignore prev.
// Any other prev, nil included, decodes anew. On error prev may be partly
// restored and must be discarded.
func (f Frame) DecodeInto(prev any) (_ any, restored int, err error) {
	hdr, payload := f.Header, f.payload
	// Each branch assigns through a typed variable and returns it only on
	// success, so a failed decode never leaks a typed nil inside the any.
	var v any
	switch hdr.Kind {
	case KindSpaceSaving:
		v, err = decodeSpaceSavingPayload(payload)
	case KindExact:
		ex, _ := prev.(ExactSummary)
		ex.Leaves, ex.Hierarchy, err = decodeExactPayload(hdr, payload, ex.Leaves)
		v = ex
	case KindPerLevel:
		p, _ := prev.(*hhh.PerLevel)
		v, err = decodePerLevelPayload(hdr, payload, p)
	case KindRHHH:
		r, _ := prev.(*hhh.RHHH)
		v, err = decodeRHHHPayload(hdr, payload, r)
	case KindSliding:
		d, _ := prev.(*swhh.SlidingHHH)
		v, restored, _, err = f.RestoreSliding(d)
	case KindMemento:
		v, err = decodeMementoPayload(hdr, payload)
	case KindFilter:
		v, err = decodeFilterPayload(hdr, payload)
	case KindContinuous:
		d, _ := prev.(*continuous.Detector)
		v, err = f.RestoreContinuous(d)
	case KindSlidingDelta:
		c, d, h, cfg, derr := f.slidingShape(KindSlidingDelta)
		if err = derr; err == nil {
			_, _, err = restoreSlots(c, nil, h, cfg, true, false)
		}
		v = d
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrKind, uint8(hdr.Kind))
	}
	if err != nil {
		return nil, 0, err
	}
	return v, restored, nil
}

// decodeSS reads one Space-Saving sub-payload at the cursor and restores
// it, charging the frame's summary and capacity budgets: into s when s has
// the declared capacity, allocating nothing, else into a new summary. It
// returns the summary restored; on error s may be emptied.
func decodeSS(c *cursor, s *sketch.SpaceSaving) (*sketch.SpaceSaving, error) {
	k := int(c.u32())
	total := c.i64()
	n := c.count(ssEntrySize)
	if !c.ok {
		return nil, fmt.Errorf("%w: short space-saving sub-payload", ErrCorrupt)
	}
	if k < 1 || k > maxCounters {
		return nil, fmt.Errorf("%w: space-saving capacity %d out of budget", ErrCorrupt, k)
	}
	c.summaries++
	c.counters += k
	if c.summaries > maxSummaries || c.counters > maxCountersTotal {
		return nil, fmt.Errorf("%w: per-frame summary budget exceeded", ErrCorrupt)
	}
	if n > k {
		return nil, fmt.Errorf("%w: %d entries exceed declared capacity %d", ErrCorrupt, n, k)
	}
	if s == nil || s.Capacity() != k {
		s = sketch.NewSpaceSaving(k)
	}
	err := s.Restore(total, n, func(int) sketch.KV {
		return sketch.KV{Key: c.u64(), Count: c.i64(), ErrUB: c.i64()}
	})
	if err != nil {
		return nil, corrupt(err)
	}
	return s, nil
}

// boundFrame rejects frame-clock values whose distance from any other
// representable clock could overflow or drive an unbounded per-frame
// advance loop. The uninitialised sentinel passes through verbatim.
func boundFrame(v int64) error {
	if v == swhh.FrameUninit {
		return nil
	}
	if v > maxAbsFrame || v < -maxAbsFrame {
		return fmt.Errorf("%w: frame clock %d out of range", ErrCorrupt, v)
	}
	return nil
}

// boundTime rejects timestamps far enough out to overflow decay or
// frame-index arithmetic.
func boundTime(v int64) error {
	if v > maxAbsTime || v < -maxAbsTime {
		return fmt.Errorf("%w: timestamp %d out of range", ErrCorrupt, v)
	}
	return nil
}

func decodeSpaceSavingPayload(payload []byte) (*sketch.SpaceSaving, error) {
	c := newCursor(payload)
	s, err := decodeSS(c, nil)
	if err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeExactPayload(hdr Header, payload []byte, ex *sketch.Exact) (*sketch.Exact, addr.Hierarchy, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, addr.Hierarchy{}, err
	}
	c := newCursor(payload)
	n := c.count(16)
	if !c.ok {
		return nil, addr.Hierarchy{}, fmt.Errorf("%w: short exact payload", ErrCorrupt)
	}
	if ex == nil {
		ex = sketch.NewExact(n)
	}
	ex.Reset()
	prev := uint64(0)
	for i := 0; i < n; i++ {
		key := c.u64()
		count := c.i64()
		if !c.ok {
			return nil, addr.Hierarchy{}, fmt.Errorf("%w: short exact entries", ErrCorrupt)
		}
		if i > 0 && key <= prev {
			return nil, addr.Hierarchy{}, fmt.Errorf("%w: exact keys not strictly increasing", ErrCorrupt)
		}
		if count <= 0 {
			return nil, addr.Hierarchy{}, fmt.Errorf("%w: non-positive exact count %d", ErrCorrupt, count)
		}
		prev = key
		ex.Update(key, count)
	}
	if err := c.finish(); err != nil {
		return nil, addr.Hierarchy{}, err
	}
	return ex, h, nil
}

func decodePerLevelPayload(hdr Header, payload []byte, p *hhh.PerLevel) (*hhh.PerLevel, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, err
	}
	if p == nil || p.Hierarchy() != h {
		p = new(hhh.PerLevel)
	}
	c := newCursor(payload)
	total := c.i64()
	sks, err := decodeLevels(c, h, p)
	if err != nil {
		return nil, err
	}
	if err := hhh.RestorePerLevel(p, h, total, sks); err != nil {
		return nil, corrupt(err)
	}
	return p, nil
}

func decodeRHHHPayload(hdr Header, payload []byte, r *hhh.RHHH) (*hhh.RHHH, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, err
	}
	if r == nil || r.Hierarchy() != h {
		r = new(hhh.RHHH)
	}
	c := newCursor(payload)
	total := c.i64()
	updates := c.i64()
	sampler := c.u64()
	sks, err := decodeLevels(c, h, r)
	if err != nil {
		return nil, err
	}
	if err := hhh.RestoreRHHH(r, h, total, updates, sampler, sks); err != nil {
		return nil, corrupt(err)
	}
	return r, nil
}

// decodeLevels reads a windowed engine's level count and its levels'
// Space-Saving sub-payloads, to the end of the payload. Level l is restored
// into into's level-l summary when into is an engine over h (see decodeSS).
func decodeLevels(c *cursor, h addr.Hierarchy, into interface {
	Hierarchy() addr.Hierarchy
	LevelSummary(l int) *sketch.SpaceSaving
}) ([]*sketch.SpaceSaving, error) {
	levels := int(c.u16())
	if !c.ok {
		return nil, fmt.Errorf("%w: short windowed payload", ErrCorrupt)
	}
	if levels != h.Levels() {
		return nil, fmt.Errorf("%w: %d level summaries for %d-level hierarchy", ErrCorrupt, levels, h.Levels())
	}
	sks := make([]*sketch.SpaceSaving, levels)
	for l := range sks {
		var s *sketch.SpaceSaving
		if into.Hierarchy() == h {
			s = into.LevelSummary(l)
		}
		var err error
		if sks[l], err = decodeSS(c, s); err != nil {
			return nil, err
		}
	}
	return sks, c.finish()
}

// slidingGeometry reads and validates the shared sliding-engine
// geometry prefix (window, frame count, counters per frame).
func slidingGeometry(c *cursor) (window time.Duration, frames, counters int, err error) {
	windowNs := c.i64()
	frames = int(c.u16())
	counters = int(c.u32())
	if !c.ok {
		return 0, 0, 0, fmt.Errorf("%w: short sliding geometry", ErrCorrupt)
	}
	if windowNs <= 0 || windowNs > maxAbsTime {
		return 0, 0, 0, fmt.Errorf("%w: window %dns out of range", ErrCorrupt, windowNs)
	}
	if frames < 1 || frames+1 > maxRing {
		return 0, 0, 0, fmt.Errorf("%w: ring of %d frames out of budget", ErrCorrupt, frames)
	}
	if counters < 1 || counters > maxCounters {
		return 0, 0, 0, fmt.Errorf("%w: %d counters out of budget", ErrCorrupt, counters)
	}
	return time.Duration(windowNs), frames, counters, nil
}

// slidingShape opens f, a frame of kind want, KindSliding or
// KindSlidingDelta: the base a delta names, then what both have ahead of
// their levels — geometry and level count — held to the frame's hierarchy
// and the summary budgets. c is left at the first level.
func (f Frame) slidingShape(want Kind) (c *cursor, v SlidingDelta, h addr.Hierarchy, cfg swhh.Config, err error) {
	if f.Header.Kind != want {
		return nil, v, h, cfg, fmt.Errorf("%w: got %v, want %v", ErrKind, f.Header.Kind, want)
	}
	if h, err = f.Header.Hierarchy(); err != nil {
		return nil, v, h, cfg, err
	}
	c = newCursor(f.payload)
	if want == KindSlidingDelta {
		v = SlidingDelta{BaseSeq: c.i64(), BaseSum: c.u32(), frame: f}
	}
	window, frames, counters, err := slidingGeometry(c)
	if err != nil {
		return nil, v, h, cfg, err
	}
	levels := int(c.u16())
	if !c.ok {
		return nil, v, h, cfg, fmt.Errorf("%w: short sliding payload", ErrCorrupt)
	}
	if levels != h.Levels() {
		return nil, v, h, cfg, fmt.Errorf("%w: %d level summaries for %d-level hierarchy", ErrCorrupt, levels, h.Levels())
	}
	if ring := frames + 1; levels*ring > maxSummaries || levels*ring*counters > maxCountersTotal {
		return nil, v, h, cfg, fmt.Errorf("%w: per-frame summary budget exceeded", ErrCorrupt)
	}
	return c, v, h, swhh.Config{Window: window, Frames: frames, Counters: counters}, nil
}

// RestoreSliding brings d to the state sealed in f, a KindSliding frame,
// and returns it, restoring every ring slot in place and allocating
// nothing; each restored slot's version moves, so a reader's memo of it
// lapses. The slots a sender's successive frames share travel as deltas,
// which leave the slots they omit untouched (ApplySlidingDelta). It returns
// how many slots were restored and how many skipped: a full frame skips
// none.
//
// With d nil, or of another geometry or hierarchy than the frame, a new
// detector is built — the cold decode. On error d may be partly restored
// and must be discarded.
func (f Frame) RestoreSliding(d *swhh.SlidingHHH) (_ *swhh.SlidingHHH, restored, skipped int, err error) {
	c, _, h, cfg, err := f.slidingShape(KindSliding)
	if err != nil {
		return nil, 0, 0, err
	}
	if d == nil || d.Hierarchy() != h || d.Config() != cfg {
		if d, err = swhh.NewSlidingHHH(h, cfg); err != nil {
			return nil, 0, 0, corrupt(err)
		}
	}
	if restored, skipped, err = restoreSlots(c, d, h, cfg, false, true); err != nil {
		return nil, 0, 0, err
	}
	return d, restored, skipped, nil
}

// SlidingDelta is the decoded form of a KindSlidingDelta frame, as far as a
// delta decodes without the summary it applies to: the base it names —
// the Seq its sender gave the frame it sealed before, and that frame's
// checksum — over a layout walked and found whole. The slots' entries are
// checked where they are restored (ApplySlidingDelta). Encode reproduces
// the frame.
type SlidingDelta struct {
	BaseSeq int64
	BaseSum uint32
	frame   Frame
}

// ApplySlidingDelta brings d, which stands as the frame its sender sealed
// under seq, of checksum sum, left it, to the state sealed in f, a
// KindSlidingDelta frame, restoring in place the slots the delta carries;
// it reports them and the ones left alone. The whole delta is walked
// before the first write. It is refused with ErrBase, d untouched, unless
// it names that very frame as its base, shares d's hierarchy and geometry,
// no level's clock runs behind d's, and every slot it leaves out stands as
// a restore left it (swhh.Sliding.Restored): d may have been advanced
// since, and a slot that expired here has not at the sender. A malformed
// layout is ErrCorrupt, d untouched as well; only a slot whose entries do
// not restore fails after the first write, and then d must be discarded.
func (f Frame) ApplySlidingDelta(d *swhh.SlidingHHH, seq int64, sum uint32) (restored, skipped int, err error) {
	c, v, h, cfg, err := f.slidingShape(KindSlidingDelta)
	if err != nil {
		return 0, 0, err
	}
	if d == nil || v.BaseSeq != seq || v.BaseSum != sum || d.Hierarchy() != h || d.Config() != cfg {
		return 0, 0, fmt.Errorf("%w: it follows frame %d (%#08x)", ErrBase, v.BaseSeq, v.BaseSum)
	}
	levels := *c
	if _, _, err = restoreSlots(c, d, h, cfg, true, false); err != nil {
		return 0, 0, err
	}
	return restoreSlots(&levels, d, h, cfg, true, true)
}

// restoreSlots is the one walk over the levels of a sliding payload, a full
// frame's and a delta's alike: what differs is which slots the frame
// carries, all or the ones its per-level bitmap names. With write it
// restores d's clocks and the carried slots; without, it checks the layout
// and, where there is a d, that the delta fits it, and writes nothing. It
// returns the slots restored (without write: carried) and the slots left
// alone.
func restoreSlots(c *cursor, d *swhh.SlidingHHH, h addr.Hierarchy, cfg swhh.Config, delta, write bool) (restored, skipped int, err error) {
	ring := cfg.Frames + 1
	for l := 0; l < h.Levels(); l++ {
		var lv *swhh.Sliding
		if d != nil {
			lv = d.LevelSummary(l)
		}
		cur := c.i64()
		if err := boundFrame(cur); err != nil {
			return 0, 0, err
		}
		var carried []byte // a delta's slot bitmap
		if delta {
			carried = c.take((ring + 7) / 8)
			if carried == nil || carried[len(carried)-1]>>((ring-1)%8+1) != 0 {
				return 0, 0, fmt.Errorf("%w: slot bitmap short, or naming a slot beyond the ring", ErrCorrupt)
			}
			if lv != nil && cur < lv.State().CurFrame {
				return 0, 0, fmt.Errorf("%w: level %d clock %d behind the summary's %d", ErrBase, l, cur, lv.State().CurFrame)
			}
		}
		if write {
			lv.RestoreClock(cur)
		}
		for i := 0; i < ring; i++ {
			if delta && carried[i/8]>>(i%8)&1 == 0 {
				if lv != nil && !lv.Restored(i) {
					return 0, 0, fmt.Errorf("%w: level %d slot %d left out, and no longer as restored", ErrBase, l, i)
				}
				skipped++
				continue
			}
			frameTotal := c.i64()
			k := int(c.u32())
			total := c.i64()
			n := c.count(ssEntrySize)
			if !c.ok {
				return 0, 0, fmt.Errorf("%w: short sliding slot", ErrCorrupt)
			}
			if k != cfg.Counters {
				return 0, 0, fmt.Errorf("%w: slot capacity %d != configured %d", ErrCorrupt, k, cfg.Counters)
			}
			body := c.b[c.off : c.off+n*ssEntrySize]
			c.off += len(body)
			restored++
			if !write {
				continue
			}
			err := lv.RestoreSlot(i, frameTotal, total, n, func(e int) sketch.KV {
				b := body[e*ssEntrySize:]
				return sketch.KV{
					Key:   binary.LittleEndian.Uint64(b),
					Count: int64(binary.LittleEndian.Uint64(b[8:])),
					ErrUB: int64(binary.LittleEndian.Uint64(b[16:])),
				}
			})
			if err != nil {
				return 0, 0, corrupt(err)
			}
		}
	}
	return restored, skipped, c.finish()
}

func decodeMementoPayload(hdr Header, payload []byte) (*swhh.MementoHHH, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, err
	}
	c := newCursor(payload)
	window, frames, counters, err := slidingGeometry(c)
	if err != nil {
		return nil, err
	}
	ring := frames + 1
	sampler := c.u64()
	wrapFrame := c.i64()
	if !c.ok {
		return nil, fmt.Errorf("%w: short memento payload", ErrCorrupt)
	}
	if err := boundFrame(wrapFrame); err != nil {
		return nil, err
	}
	wrapTotals := make([]int64, ring)
	for i := range wrapTotals {
		wrapTotals[i] = c.i64()
	}
	levels := int(c.u16())
	if !c.ok {
		return nil, fmt.Errorf("%w: short memento payload", ErrCorrupt)
	}
	if levels != h.Levels() {
		return nil, fmt.Errorf("%w: %d level tables for %d-level hierarchy", ErrCorrupt, levels, h.Levels())
	}
	// The aged tables allocate capacity × ring cells per level regardless
	// of how many entries the payload materialises; charge that against
	// the matrix budget before any table is built.
	c.mementoCells += counters * ring * levels
	if c.mementoCells > maxMementoCells {
		return nil, fmt.Errorf("%w: memento cell budget exceeded", ErrCorrupt)
	}
	cfg := swhh.Config{Window: window, Frames: frames, Counters: counters}
	lvls := make([]*swhh.Memento, levels)
	for l := range lvls {
		curFrame := c.i64()
		cursorPos := int(c.u32())
		n := int(c.u32())
		if !c.ok {
			return nil, fmt.Errorf("%w: short memento level header", ErrCorrupt)
		}
		if err := boundFrame(curFrame); err != nil {
			return nil, err
		}
		if n > counters {
			return nil, fmt.Errorf("%w: %d entries exceed table capacity %d", ErrCorrupt, n, counters)
		}
		st := swhh.MementoState{
			CurFrame: curFrame,
			Cursor:   cursorPos,
			Keys:     make([]uint64, n),
			Counts:   make([]int64, n),
			Errs:     make([]int64, n),
			Cells:    make([]int64, n*ring),
			Totals:   make([]int64, ring),
		}
		for i := range st.Totals {
			st.Totals[i] = c.i64()
		}
		for e := 0; e < n; e++ {
			st.Keys[e] = c.u64()
			st.Counts[e] = c.i64()
			st.Errs[e] = c.i64()
		}
		for i := range st.Cells {
			st.Cells[i] = c.i64()
		}
		if !c.ok {
			return nil, fmt.Errorf("%w: short memento level payload", ErrCorrupt)
		}
		m, err := swhh.RestoreMemento(cfg, st)
		if err != nil {
			return nil, corrupt(err)
		}
		lvls[l] = m
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	d, err := swhh.RestoreMementoHHH(h, cfg, swhh.MementoHHHState{
		Sampler:  sampler,
		CurFrame: wrapFrame,
		Totals:   wrapTotals,
		Levels:   lvls,
	})
	if err != nil {
		return nil, corrupt(err)
	}
	return d, nil
}

// readDecay reads the tagged decay-law descriptor. Only the exponential
// law decodes: forward decay has no other.
func readDecay(c *cursor) (tdbf.Exponential, error) {
	tag, tau := c.u8(), c.i64()
	if !c.ok {
		return tdbf.Exponential{}, fmt.Errorf("%w: short decay descriptor", ErrCorrupt)
	}
	if tag != decayExponential {
		return tdbf.Exponential{}, fmt.Errorf("%w: unknown decay tag %d", ErrCorrupt, tag)
	}
	if tau <= 0 || tau > maxAbsTime {
		return tdbf.Exponential{}, fmt.Errorf("%w: exponential tau %dns out of range", ErrCorrupt, tau)
	}
	return tdbf.Exponential{Tau: time.Duration(tau)}, nil
}

// boundLandmark is boundTime for a landmark, which may also be the
// no-landmark sentinel of a filter that stores nothing.
func boundLandmark(v int64) error {
	if v == tdbf.NoLandmark {
		return nil
	}
	return boundTime(v)
}

// take returns the next n bytes of the payload, nil if they are not there.
func (c *cursor) take(n int) []byte {
	if !c.need(n) {
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// level reads one filter's section at the cursor — seed, add count, cells —
// of a frame of the given version, as the state a restore pulls: Next
// yields the non-zero cells off the payload. The section's bytes are
// checked to be there and to add up to the declared count; indices and
// masses are validated by the restore (which refuses -0, so that a state
// has one encoding).
func (c *cursor) level(version uint16, cells int, d tdbf.Exponential) (st tdbf.FilterState, err error) {
	st.Seed, st.Adds = c.u64(), c.i64()
	if version == Version {
		st.Landmark, st.Next, err = c.cellsV1(cells, d)
		return st, err
	}
	st.Landmark = c.i64()
	occupied := int(c.u32())
	if !c.ok || occupied > cells {
		return st, fmt.Errorf("%w: short filter section, or %d occupied cells of %d", ErrCorrupt, occupied, cells)
	}
	if err := boundLandmark(st.Landmark); err != nil {
		return st, err
	}
	stride, n := sparseRowSize, occupied
	if !sparse(occupied, cells) {
		stride, n = denseCellSize, cells
	}
	rows := c.take(n * stride)
	if rows == nil {
		return st, fmt.Errorf("%w: short filter cells", ErrCorrupt)
	}
	i := -1
	st.Next = func() (int, float64, bool) {
		for i++; i < n; i++ {
			row := rows[i*stride:]
			if stride == sparseRowSize {
				return int(binary.LittleEndian.Uint32(row)), math.Float64frombits(binary.LittleEndian.Uint64(row[4:])), true
			}
			if bits := binary.LittleEndian.Uint64(row); bits != 0 {
				return i, math.Float64frombits(bits), true
			}
		}
		return 0, 0, false
	}
	if stride == denseCellSize {
		seen := 0
		for i := 0; i < n; i++ {
			if binary.LittleEndian.Uint64(rows[i*stride:]) != 0 {
				seen++
			}
		}
		if seen != occupied {
			return st, fmt.Errorf("%w: dense column holds %d occupied cells, declares %d", ErrCorrupt, seen, occupied)
		}
	}
	return st, nil
}

// cellsV1 reads a version-1 cell section: cells × (mass, timestamp of its
// last decay). Such a cell is a mass scaled to a landmark of its own; the
// section's landmark is the latest timestamp of a cell that holds mass, and
// every mass is yielded decayed to it (one that decays to nothing is not
// yielded at all).
func (c *cursor) cellsV1(cells int, d tdbf.Exponential) (land int64, next func() (int, float64, bool), err error) {
	col := c.take(cells * v1CellSize)
	if col == nil {
		return 0, nil, fmt.Errorf("%w: short filter cells", ErrCorrupt)
	}
	cell := func(i int) (vbits uint64, touch int64) {
		b := col[i*v1CellSize:]
		return binary.LittleEndian.Uint64(b), int64(binary.LittleEndian.Uint64(b[8:]))
	}
	land = tdbf.NoLandmark
	for i := 0; i < cells; i++ {
		vbits, touch := cell(i)
		if err := boundTime(touch); err != nil {
			return 0, nil, err
		}
		if vbits != 0 {
			land = max(land, touch)
		}
	}
	i := -1
	return land, func() (int, float64, bool) {
		for i++; i < cells; i++ {
			vbits, touch := cell(i)
			if vbits == 0 {
				continue
			}
			v := math.Float64frombits(vbits)
			if m := v * math.Exp(-float64(land-touch)/float64(d.Tau)); m != 0 || !(v > 0) {
				return i, m, true
			}
		}
		return 0, 0, false
	}, nil
}

func decodeFilterPayload(hdr Header, payload []byte) (*tdbf.Filter, error) {
	c := newCursor(payload)
	d, err := readDecay(c)
	if err != nil {
		return nil, err
	}
	cells, hashes := int(c.u32()), int(c.u16())
	// A zero cell takes no payload, so the cell count is held to a budget
	// rather than to the bytes that follow.
	if !c.ok || cells < 1 || cells > maxFilterCells || hashes < 1 {
		return nil, fmt.Errorf("%w: filter shape (%d cells, %d hashes) short or out of budget", ErrCorrupt, cells, hashes)
	}
	st, err := c.level(hdr.Version, cells, d)
	if err != nil {
		return nil, err
	}
	f := tdbf.New(tdbf.Config{Cells: cells, Hashes: hashes, Seed: st.Seed, Decay: d})
	if err := f.Restore(st); err != nil {
		return nil, corrupt(err)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// RestoreContinuous brings d to the state sealed in f, a KindContinuous
// frame of any version, and returns it, restoring in place: the cells
// are cleared and the occupied ones written, and nothing is allocated that
// grows with the filters. With d nil, or of another configuration than the
// frame spells out, a new detector is built — the cold decode. On error d
// may be partly restored and must be discarded.
func (f Frame) RestoreContinuous(d *continuous.Detector) (*continuous.Detector, error) {
	hdr, payload := f.Header, f.payload
	if hdr.Kind != KindContinuous {
		return nil, fmt.Errorf("%w: got %v, want %v", ErrKind, hdr.Kind, KindContinuous)
	}
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, err
	}
	c := newCursor(payload)
	phi := c.f64()
	exitRatio := c.f64()
	cflags := c.u8()
	cfgSeed := c.u64()
	warmupNs := c.i64()
	sampler := c.u64()
	if !c.ok {
		return nil, fmt.Errorf("%w: short continuous header", ErrCorrupt)
	}
	// NaN fails every comparison, so these range checks reject it too —
	// NewDetector's own validation would let NaN through.
	if !(phi > 0 && phi <= 1) {
		return nil, fmt.Errorf("%w: phi %v out of (0,1]", ErrCorrupt, phi)
	}
	if !(exitRatio > 0 && exitRatio <= 1) {
		return nil, fmt.Errorf("%w: exit ratio %v out of (0,1]", ErrCorrupt, exitRatio)
	}
	if cflags&^byte(3) != 0 {
		return nil, fmt.Errorf("%w: unknown continuous flags %#x", ErrCorrupt, cflags)
	}
	if warmupNs <= 0 || warmupNs > maxAbsTime {
		return nil, fmt.Errorf("%w: warmup %dns out of range", ErrCorrupt, warmupNs)
	}
	decay, err := readDecay(c)
	if err != nil {
		return nil, err
	}
	fcells := int(c.u32())
	fhashes := int(c.u16())
	st := continuous.State{Started: cflags&2 != 0, WarmEnd: c.i64(), Packets: c.i64(), Hashed: hdr.Version < VersionLevels}
	st.Total = tdbf.MassState{V: c.f64(), Touch: c.i64()}
	if !c.ok {
		return nil, fmt.Errorf("%w: short continuous header", ErrCorrupt)
	}
	if err := boundTime(st.WarmEnd); err != nil {
		return nil, err
	}
	if err := boundLandmark(st.Total.Touch); err != nil {
		return nil, err
	}
	if hdr.Version == Version && st.Total.V == 0 {
		st.Total.Touch = tdbf.NoLandmark // a version-1 cell without mass stands nowhere
	}
	// The per-level filters hold at most fcells cells each for Levels()
	// levels, whatever the payload materialises of them: the matrix is held
	// to its budget before anything is sized from it.
	levels := h.Levels()
	if fcells < 1 || fhashes < 1 || int64(fcells)*int64(levels) > maxFilterCells {
		return nil, fmt.Errorf("%w: %d filter cells × %d levels, %d hashes out of budget", ErrCorrupt, fcells, levels, fhashes)
	}

	nActive := c.count(activeRowSize)
	if !c.ok {
		return nil, fmt.Errorf("%w: short active set", ErrCorrupt)
	}
	st.Active = make([]continuous.ActiveEntry, nActive)
	prevLevel, prevKey := -1, uint64(0)
	for i := range st.Active {
		key := c.u64()
		level := int(c.u16())
		at := c.i64()
		if level >= levels {
			return nil, fmt.Errorf("%w: active level %d beyond hierarchy depth", ErrCorrupt, level)
		}
		if key&^h.KeyMask(level) != 0 {
			return nil, fmt.Errorf("%w: active key %#x has bits below level %d", ErrCorrupt, key, level)
		}
		if level < prevLevel || (level == prevLevel && key <= prevKey) {
			return nil, fmt.Errorf("%w: active set not sorted by (level, key)", ErrCorrupt)
		}
		if err := boundTime(at); err != nil {
			return nil, err
		}
		prevLevel, prevKey = level, key
		st.Active[i] = continuous.ActiveEntry{Level: level, Key: key, At: at}
	}

	if nf := int(c.u16()); !c.ok || nf != levels {
		return nil, fmt.Errorf("%w: %d filters for %d-level hierarchy", ErrCorrupt, nf, levels)
	}
	cfg := continuous.Config{
		Hierarchy: h,
		Phi:       phi,
		Filter:    tdbf.Config{Cells: fcells, Hashes: fhashes, Decay: decay},
		ExitRatio: exitRatio,
		Warmup:    time.Duration(warmupNs),
		Sampled:   cflags&1 != 0,
		Seed:      cfgSeed,
	}
	if d == nil || !d.Fits(cfg) {
		if d, err = continuous.NewDetector(cfg); err != nil {
			return nil, corrupt(err)
		}
	}
	// The levels are read where the restore asks for them, in payload
	// order and at the size it says the level's section has; a codec-level
	// finding outranks whatever the restore made of the bytes around it.
	var bad error
	err = d.Restore(sampler, st, func(_, cells int) (fs tdbf.FilterState, _ error) {
		fs, bad = c.level(hdr.Version, cells, decay)
		if bad == nil && hdr.Version != Version && fs.Landmark != st.Total.Touch {
			bad = fmt.Errorf("%w: a level's landmark %d differs from the tracker's %d", ErrCorrupt, fs.Landmark, st.Total.Touch)
		}
		return fs, bad
	})
	switch {
	case bad != nil:
		return nil, bad
	case err != nil:
		return nil, corrupt(err)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return d, nil
}
