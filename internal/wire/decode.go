package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// *sketch.SpaceSaving, ExactSummary, *hhh.PerLevel (level-sampled for a
// KindRHHH frame), *swhh.SlidingHHH, *swhh.MementoHHH, *tdbf.Filter,
// *continuous.Detector or SlidingDelta. It never panics on arbitrary input;
// failures wrap exactly one of the typed errors.
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
// place and the ExactSummary returned carries prev's Leaves. A PerLevel
// engine over the frame's hierarchy, sampled or not whatever the frame's
// kind, is restored in place into the frame's setting, each level
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
		c := newCursor(hdr.Version, payload)
		if v, err = decodeSS(c, nil); err == nil {
			err = c.finish()
		}
	case KindExact:
		ex, _ := prev.(ExactSummary)
		ex.Leaves, ex.Hierarchy, err = decodeExactPayload(hdr, payload, ex.Leaves)
		v = ex
	case KindPerLevel, KindRHHH:
		p, _ := prev.(*hhh.PerLevel)
		v, err = decodePerLevelPayload(hdr, payload, p)
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

// ssTable is a Space-Saving sub-payload read off a cursor: the header and
// the entries' bytes, which entry reads back keeping each column's OR.
type ssTable struct {
	k, n, stride       int
	total              int64
	cols               ssCols
	fixed              bool // version 1: (0, 8, 8, 8), not held to the entries
	keys, counts, errs uint64
	// entry loads each field as the eight bytes that end where the field
	// ends, and shifts out the bytes in front of it: rows starts 8 − kw
	// bytes before the entries, so entry i's key load is at i·stride, its
	// count's at countAt on from there and its error bound's at errAt.
	rows                        []byte
	countAt, errAt              int
	dropKey, dropCount, dropErr uint8
}

// ssTable reads the Space-Saving sub-payload's header at the cursor — from
// version 2 on with the columns — and takes the entries' bytes, refusing a
// count the payload does not back before anything is sized from it.
func (c *cursor) ssTable() (t ssTable, err error) {
	t.k, t.total, t.n = int(c.u32()), c.i64(), int(c.u32())
	t.cols, t.fixed = ssCols{0, 8, 8, 8}, c.version < VersionColumns
	if !t.fixed {
		t.cols = ssCols{c.u8(), c.u8(), c.u8(), c.u8()}
	}
	w := t.cols
	if !c.ok || w.kw > 8 || w.cw > 8 || w.ew > 8 || t.n > 0 && w.cw == 0 {
		return t, fmt.Errorf("%w: short space-saving header, or columns %v", ErrCorrupt, w)
	}
	t.stride, t.countAt, t.errAt = w.stride(), int(w.cw), int(w.cw+w.ew)
	t.dropKey, t.dropCount, t.dropErr = 64-8*w.kw, 64-8*w.cw, 64-8*w.ew
	at := c.off // past a header of at least 16 bytes: the first loads stay in it
	if c.take(t.n*t.stride) == nil {
		return t, fmt.Errorf("%w: %d space-saving entries unbacked", ErrCorrupt, t.n)
	}
	t.rows = c.b[at-8+int(w.kw) : c.off]
	return t, nil
}

// entry reads the i-th entry. No load runs past the entries, so no entry
// needs a padded copy, and entry inlines into the method value Restore
// calls: one call an entry.
func (t *ssTable) entry(i int) sketch.KV {
	b := t.rows[i*t.stride:]
	key := binary.LittleEndian.Uint64(b) >> t.dropKey
	count := binary.LittleEndian.Uint64(b[t.countAt:]) >> t.dropCount
	errUB := binary.LittleEndian.Uint64(b[t.errAt:]) >> t.dropErr
	t.keys, t.counts, t.errs = t.keys|key, t.counts|count, t.errs|errUB
	return sketch.KV{Key: key << t.cols.shift, Count: int64(count), ErrUB: int64(errUB)}
}

// canonical holds the columns, once every entry is read, to the writer's
// for those entries, and refuses a key shifted out of 64 bits.
func (t *ssTable) canonical() error {
	if !t.fixed && (bits.Len64(t.keys)+int(t.cols.shift) > 64 || columns(t.n, t.keys<<t.cols.shift, t.counts, t.errs) != t.cols) {
		return fmt.Errorf("%w: space-saving columns %v are not the entries' own", ErrCorrupt, t.cols)
	}
	return nil
}

// decodeSS reads one Space-Saving sub-payload at the cursor and restores
// it, charging the frame's summary and capacity budgets: into s when s has
// the declared capacity, allocating only the entry storage s lacks, else
// into a new summary. It returns the summary restored; on error s may be
// emptied or partly restored.
func decodeSS(c *cursor, s *sketch.SpaceSaving) (*sketch.SpaceSaving, error) {
	t, err := c.ssTable()
	if err != nil {
		return nil, err
	}
	if t.k < 1 || t.k > maxCounters {
		return nil, fmt.Errorf("%w: space-saving capacity %d out of budget", ErrCorrupt, t.k)
	}
	c.summaries++
	c.counters += t.k
	if c.summaries > maxSummaries || c.counters > maxCountersTotal {
		return nil, fmt.Errorf("%w: per-frame summary budget exceeded", ErrCorrupt)
	}
	if t.n > t.k {
		return nil, fmt.Errorf("%w: %d entries exceed declared capacity %d", ErrCorrupt, t.n, t.k)
	}
	if s == nil || s.Capacity() != t.k {
		s = sketch.NewSpaceSaving(t.k)
	}
	if err := s.Restore(t.total, t.n, t.entry); err != nil {
		return nil, corrupt(err)
	}
	if err := t.canonical(); err != nil {
		return nil, err
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

func decodeExactPayload(hdr Header, payload []byte, ex *sketch.Exact) (*sketch.Exact, addr.Hierarchy, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, addr.Hierarchy{}, err
	}
	c := newCursor(hdr.Version, payload)
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

// decodePerLevelPayload decodes a KindPerLevel or KindRHHH payload — the
// latter carries the packet count and sampler state after the total — then
// the level count and the levels' Space-Saving sub-payloads, to the end of
// the payload. Level l is restored into p's level-l summary when p is an
// engine over the frame's hierarchy (see decodeSS).
func decodePerLevelPayload(hdr Header, payload []byte, p *hhh.PerLevel) (*hhh.PerLevel, error) {
	h, err := hdr.Hierarchy()
	if err != nil {
		return nil, err
	}
	reuse := p != nil && p.Hierarchy() == h
	if !reuse {
		p = new(hhh.PerLevel)
	}
	c := newCursor(hdr.Version, payload)
	total := c.i64()
	var packets int64
	var sampler uint64
	if hdr.Kind == KindRHHH {
		packets, sampler = c.i64(), c.u64()
	}
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
		if reuse {
			s = p.LevelSummary(l)
		}
		if sks[l], err = decodeSS(c, s); err != nil {
			return nil, err
		}
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	if hdr.Kind == KindRHHH {
		err = hhh.RestoreRHHH(p, h, total, packets, sampler, sks)
	} else {
		err = hhh.RestorePerLevel(p, h, total, sks)
	}
	if err != nil {
		return nil, corrupt(err)
	}
	return p, nil
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
	c = newCursor(f.Header.Version, f.payload)
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
// not restore, or are not in their own columns, fails after the first
// write, and then d must be discarded.
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
			t, err := c.ssTable()
			if err != nil {
				return 0, 0, err
			}
			if t.k != cfg.Counters {
				return 0, 0, fmt.Errorf("%w: slot capacity %d != configured %d", ErrCorrupt, t.k, cfg.Counters)
			}
			restored++
			if !write {
				continue
			}
			if err := lv.RestoreSlot(i, frameTotal, t.total, t.n, t.entry); err != nil {
				return 0, 0, corrupt(err)
			}
			if err := t.canonical(); err != nil {
				return 0, 0, err
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
	c := newCursor(hdr.Version, payload)
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

// cellVersion is the bare filter's version whose sections a frame's
// filters are written in: a continuous frame's from version 3 on is one
// less than its own, version 3 having sized the levels only.
func cellVersion(hdr Header) uint16 {
	if hdr.Kind == KindContinuous && hdr.Version >= VersionLevels {
		return hdr.Version - 1
	}
	return hdr.Version
}

// sparse reports whether a version-2 section of cells cells, occupied of
// them non-zero, is sparse rows: whichever layout is smaller, dense on a
// tie.
func sparse(occupied, cells int) bool {
	return int64(occupied)*sparseRowSize < int64(cells)*denseCellSize
}

// levelHead is a filter's section read off the payload, as far as it reads
// before a cell is written: the state, the code and the cells' bytes, in
// the bare filter's version (cellVersion).
type levelHead struct {
	tdbf.FilterState
	version     uint16
	k           levelCode
	col, masses []byte
}

// head reads the head of a filter's section of cells cells at the
// cursor — seed, add count, landmark and code — and takes the bytes of its
// cells. The bytes are checked to be there, and what the head declares is
// held to them before anything is sized from it. A version-1 section has
// no landmark: it is the latest timestamp of a cell that holds mass.
func (c *cursor) head(version uint16, cells int) (s levelHead, err error) {
	s.version, s.Seed, s.Adds, s.Landmark = version, c.u64(), c.i64(), tdbf.NoLandmark
	k := &s.k
	if version != Version {
		s.Landmark, k.n = c.i64(), int(c.u32())
	}
	if version > VersionSparse {
		k.m, k.gw, k.iw = int(c.u32()), c.u8(), c.u8()
		if k.m > k.n || (k.m == 0) != (k.n == 0) || k.gw > 4 || k.iw != width(uint64(max(k.m, 1)-1)) {
			return s, fmt.Errorf("%w: %d occupied cells in %d masses, widths %d and %d", ErrCorrupt, k.n, k.m, k.gw, k.iw)
		}
	}
	if !c.ok || k.n > cells {
		return s, fmt.Errorf("%w: short filter section, or %d occupied cells of %d", ErrCorrupt, k.n, cells)
	}
	if err := boundLandmark(s.Landmark); err != nil {
		return s, err
	}
	switch stride := int(k.gw + k.iw); {
	case version == Version:
		s.col = c.take(cells * v1CellSize)
		for i := 0; i < cells && s.col != nil; i++ {
			touch := int64(binary.LittleEndian.Uint64(s.col[i*v1CellSize+8:]))
			if err := boundTime(touch); err != nil {
				return s, err
			}
			if binary.LittleEndian.Uint64(s.col[i*v1CellSize:]) != 0 {
				s.Landmark = max(s.Landmark, touch)
			}
		}
	case version == VersionSparse && sparse(k.n, cells):
		s.col = c.take(k.n * sparseRowSize)
	case version == VersionSparse || k.dense(cells):
		s.col = c.take(cells * denseCellSize)
	case c.take(k.m*massSize+k.n*stride) != nil:
		// A row loads as the eight bytes that end where it ends: the masses
		// (or the head) are there before the first.
		s.masses, s.col = c.b[c.off-k.n*stride-k.m*massSize:], c.b[c.off-k.n*stride-8+stride:c.off]
	}
	if s.col == nil {
		return s, fmt.Errorf("%w: short filter cells", ErrCorrupt)
	}
	return s, nil
}

// write restores f, of the section's cells, to s, writing the non-zero
// cells in one pass over the rows or the column. From version 3 the pass
// holds the code to the cells, so that a state has one encoding: the
// masses distinct and m of them, every gap at least 1 and the largest
// taking gw bytes, and a dictionary's ids met in order, none past m. The
// writes hold the cells to the declared count and validate indices and
// masses (refusing -0, for the same reason). A version-1 cell is a mass
// scaled to a landmark of its own, written decayed to the section's (not
// at all if it decays to nothing); that section declares no count. On
// error f is partly written.
func (c *cursor) write(s levelHead, f *tdbf.Filter, d tdbf.Exponential) error {
	w, err := f.Restore(s.FilterState)
	k, cells, col := s.k, f.Cells(), s.col
	x, met, gaps := c.index, 0, uint64(0) // the masses met, the gaps' OR
	switch {
	case err != nil:
	case s.version == Version:
		for i := 0; i < cells && err == nil; i++ {
			if vbits := binary.LittleEndian.Uint64(col[i*v1CellSize:]); vbits != 0 {
				v, touch := math.Float64frombits(vbits), int64(binary.LittleEndian.Uint64(col[i*v1CellSize+8:]))
				if m := v * math.Exp(-float64(s.Landmark-touch)/float64(d.Tau)); m != 0 || !(v > 0) {
					err = w.Set(i, m)
				}
			}
		}
	case s.version == VersionSparse && sparse(k.n, cells):
		for i := 0; i < k.n && err == nil; i++ {
			row := col[i*sparseRowSize:]
			err = w.Set(int(binary.LittleEndian.Uint32(row)), math.Float64frombits(binary.LittleEndian.Uint64(row[4:])))
		}
	case s.version == VersionSparse || k.dense(cells):
		x.reset(k.n)
		for i, at := 0, -1; i < cells && err == nil; i++ {
			if v := binary.LittleEndian.Uint64(col[i*denseCellSize:]); v != 0 {
				if x.add(v) {
					met++
				}
				gaps, at, err = gaps|uint64(i-at), i, w.Set(i, math.Float64frombits(v))
			}
		}
	default:
		x.reset(k.m)
		for i := 0; i < k.m && err == nil; i++ {
			if !x.add(binary.LittleEndian.Uint64(s.masses[i*massSize:])) {
				err = fmt.Errorf("%w: mass %d of the dictionary repeats one before it", ErrCorrupt, i)
			}
		}
		stride := int(k.gw + k.iw)
		drop, ids, gap1 := uint8(64-8*stride)&63, 8*k.gw&63, uint64(1)<<(8*k.gw&63)-1
		for i, at := 0, -1; i < k.n && err == nil; i++ {
			v := binary.LittleEndian.Uint64(col[i*stride:]) >> drop
			gap, id := v&gap1, v>>ids
			if gap == 0 || id > uint64(met) || id >= uint64(k.m) {
				return fmt.Errorf("%w: row %d: gap %d, mass %d of %d with %d met", ErrCorrupt, i, gap, id, k.m, met)
			}
			met += int(((id ^ uint64(met)) - 1) >> 63) // one more where id is the next
			gaps, at = gaps|gap, at+int(gap)
			err = w.Set(at, math.Float64frombits(binary.LittleEndian.Uint64(s.masses[id*massSize:])))
		}
	}
	if err == nil && s.version != Version {
		err = w.Close(k.n)
	}
	if err == nil && s.version > VersionSparse && (met != k.m || width(gaps) != k.gw) {
		err = fmt.Errorf("%w: %d masses in gaps of up to %d bytes, declared %d and %d", ErrCorrupt, met, width(gaps), k.m, k.gw)
	}
	if err != nil {
		return corrupt(err)
	}
	return nil
}

func decodeFilterPayload(hdr Header, payload []byte) (*tdbf.Filter, error) {
	c := newCursor(hdr.Version, payload)
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
	s := scratch()
	defer cellScratches.Put(s)
	c.index = &s.index
	sec, err := c.head(cellVersion(hdr), cells)
	if err != nil {
		return nil, err
	}
	f := tdbf.New(tdbf.Config{Cells: cells, Hashes: hashes, Seed: sec.Seed, Decay: d})
	if err := c.write(sec, f, d); err != nil {
		return nil, err
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
	c := newCursor(hdr.Version, payload)
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
	if exitRatio != continuous.ExitRatio {
		return nil, fmt.Errorf("%w: exit ratio %v, want %v", ErrCorrupt, exitRatio, continuous.ExitRatio)
	}
	if cflags&^byte(3) != 0 {
		return nil, fmt.Errorf("%w: unknown continuous flags %#x", ErrCorrupt, cflags)
	}
	decay, err := readDecay(c)
	if err != nil {
		return nil, err
	}
	if warmupNs != int64(decay.Tau) {
		return nil, fmt.Errorf("%w: warm-up %dns, want tau %dns", ErrCorrupt, warmupNs, int64(decay.Tau))
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
	// The active set is read into the pooled scratch: Restore copies it.
	s := scratch()
	defer cellScratches.Put(s)
	c.index = &s.index
	st.Active = slices.Grow(s.active[:0], nActive)[:nActive]
	s.active = st.Active
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
		Sampled:   cflags&1 != 0,
		Seed:      cfgSeed,
	}
	if d == nil || !d.Fits(cfg) {
		if d, err = continuous.NewDetector(cfg); err != nil {
			return nil, corrupt(err)
		}
	}
	// The levels are read where the restore asks for them, in payload
	// order, each into the filter it gives.
	err = d.Restore(sampler, st, func(_ int, f *tdbf.Filter) error {
		sec, err := c.head(cellVersion(hdr), f.Cells())
		if err == nil && hdr.Version != Version && sec.Landmark != st.Total.Touch {
			err = fmt.Errorf("%w: a level's landmark %d differs from the tracker's %d", ErrCorrupt, sec.Landmark, st.Total.Touch)
		}
		if err != nil {
			return err
		}
		return c.write(sec, f, decay)
	})
	if err != nil {
		return nil, corrupt(err)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return d, nil
}
