package tdbf_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/wire"
)

// occupancyTau is the rig's time constant: stamps advance in sixteenths of
// it, so a long run rolls its landmarks over every 64 τ, and a jump of
// 1000 τ takes a merge's rescale under the smallest float64.
const occupancyTau = time.Second

// occupancyShapes are the rig's hashed filters: a power-of-two one, whose
// k probes are distinct cells, and one of 100 cells, whose probes may meet
// and whose last line is partial. The direct level shares the first's seed,
// so that RestoreHashed converts its state.
var occupancyShapes = []tdbf.Config{{Cells: 64, Hashes: 3, Seed: 1}, {Cells: 100, Hashes: 3, Seed: 2}}

// occupancyRig is two Bases, each with both hashed filters, a 64-cell
// direct level (key bits 8–13) and a tracker, driven by a byte string; the
// filters of one index on the two sides merge and restore into each other.
type occupancyRig struct {
	now   int64
	sides [2][]*tdbf.Filter
	// What the run reached: merges that rebased the destination's Base and
	// ones that rescaled the source, and the lines a roll-over gave back.
	rebased, rescaled, freed int
}

func newOccupancyRig() *occupancyRig {
	r := &occupancyRig{}
	for s := range r.sides {
		b := tdbf.NewBase(tdbf.Exponential{Tau: occupancyTau})
		r.sides[s] = []*tdbf.Filter{b.NewFilter(occupancyShapes[0]), b.NewFilter(occupancyShapes[1]), b.NewLevel(occupancyShapes[0], 8, 6)}
		b.NewMassTracker() // a member without lines, rescaled beside them
	}
	return r
}

// restore restores f to o's state, read off its accessors, with the
// non-zero cells of a scan of every cell.
func restore(f, o *tdbf.Filter) error {
	return tdbf.RestoreMasses(f, tdbf.FilterState{Seed: o.Seed(), Adds: o.Adds(), Landmark: o.Landmark()}, tdbf.Masses(o))
}

// held counts the lines fs hold.
func held(fs []*tdbf.Filter) int {
	n := 0
	for _, f := range fs {
		_, pool := tdbf.Store(f)
		n += len(pool) - 1
	}
	return n
}

// run applies ops and checks every filter after every step. An op byte
// picks the operation (low three bits), the side (bit 3) and the filter
// (bits 4–7, mod 3); an add reads a stamp step, two key bytes and a weight
// (zero included) after it.
func (r *occupancyRig) run(t *testing.T, ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for len(ops) > 0 {
		c := next()
		s, j := int(c>>3&1), int(c>>4)%3
		f, o := r.sides[s][j], r.sides[1-s][j]
		before := held(r.sides[s])
		switch c & 7 {
		case 3: // a far-future stamp: the next add rolls over and flushes
			r.now += int64(70+930*int(c>>7)) * int64(occupancyTau)
			fallthrough
		case 0, 1, 2:
			r.now += int64(next()) * int64(occupancyTau) / 16
			key, w := uint64(next())<<8|uint64(next()), float64(next())
			f.Add(key, w, r.now)
		case 4:
			switch land := f.Landmark(); {
			case o.Landmark() > land && land != tdbf.NoLandmark:
				r.rebased++
			case o.Landmark() < land && o.Landmark() != tdbf.NoLandmark:
				r.rescaled++
			}
			f.Merge(o)
		case 5:
			if err := restore(f, o); err != nil {
				t.Fatalf("restore: %v", err)
			}
		case 6:
			cfg := occupancyShapes[0]
			cfg.Decay = tdbf.Exponential{Tau: occupancyTau}
			f, hashed := r.sides[s][2], tdbf.New(cfg)
			if err := restore(hashed, r.sides[1-s][0]); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if err := f.RestoreHashed(hashed, 0); err != nil {
				t.Fatalf("restore hashed: %v", err)
			}
		case 7:
			f.Reset()
		}
		if after := held(r.sides[s]); c&7 < 4 && after < before {
			r.freed += before - after
		}
		for _, side := range r.sides {
			for _, f := range side {
				checkOccupancy(t, f)
			}
		}
	}
}

// checkOccupancy holds f to the line store's contract: a line is held iff
// it has a non-zero cell, pool line 0 is zero and every other is held by
// exactly one directory entry, Lines and Line read the directory, Occupied
// is exact, and the frame wire.EncodeFilter reads off the held lines is the
// one a scan of every cell gives.
func checkOccupancy(t *testing.T, f *tdbf.Filter) {
	t.Helper()
	dir, pool := tdbf.Store(f)
	masses, n := tdbf.Masses(f), 0
	owner := make([]int, len(pool))
	if pool[0] != ([tdbf.LineCells]float64{}) {
		t.Fatalf("pool line 0 holds %v", pool[0])
	}
	for j, d := range dir {
		live := false
		for i := j * tdbf.LineCells; i < min((j+1)*tdbf.LineCells, len(masses)); i++ {
			if masses[i] != 0 {
				live = true
				n++
			}
		}
		if live != (d != 0) || f.Lines(j/64)>>(j%64)&1 != uint64(min(d, 1)) || f.Line(j) != &pool[d] {
			t.Fatalf("line %d: pool line %d, non-zero cells %v, Lines bit %d", j, d, live, f.Lines(j/64)>>(j%64)&1)
		}
		if owner[d]++; d != 0 && owner[d] > 1 {
			t.Fatalf("pool line %d held by two directory entries", d)
		}
	}
	if i := slices.Index(owner[1:], 0); i >= 0 {
		t.Fatalf("pool line %d of %d held by no directory entry", i+1, len(pool))
	}
	if f.Occupied() != n {
		t.Fatalf("Occupied() = %d, %d cells are non-zero", f.Occupied(), n)
	}
	if got := wire.EncodeFilter(f); !bytes.Equal(got, fullScanFrame(got, f)) {
		t.Fatalf("EncodeFilter differs from the full-scan encoder (%d cells, %d occupied)", f.Cells(), n)
	}
}

// fullScanFrame is wire.EncodeFilter written from a scan of every cell
// instead of the filter's occupancy: the occupied count, then the distinct
// masses in first-appearance order and a (gap, id) row per non-zero cell,
// each column in the fewest bytes that hold its largest value, or the dense
// column where that is no smaller. The envelope's first twelve bytes
// (magic, version, kind, flags, hierarchy descriptor), which no cell
// decides, are frame's.
func fullScanFrame(frame []byte, f *tdbf.Filter) []byte {
	le := binary.LittleEndian
	width := func(v uint64) int { return (bits.Len64(v) + 7) / 8 }
	masses := tdbf.Masses(f)
	ids := map[float64]uint64{}
	var dict []float64
	var rows [][2]uint64
	prev, maxGap := -1, uint64(0)
	for i, v := range masses {
		if v == 0 {
			continue
		}
		if _, ok := ids[v]; !ok {
			ids[v] = uint64(len(dict))
			dict = append(dict, v)
		}
		rows = append(rows, [2]uint64{uint64(i - prev), ids[v]})
		maxGap, prev = max(maxGap, uint64(i-prev)), i
	}
	gw, iw := width(maxGap), width(uint64(max(len(dict), 1)-1))
	p := le.AppendUint64([]byte{1}, uint64(f.Decay().Tau)) // the exponential law's tag
	p = le.AppendUint32(p, uint32(f.Cells()))
	p = le.AppendUint16(p, uint16(f.Hashes()))
	p = le.AppendUint64(p, f.Seed())
	p = le.AppendUint64(p, uint64(f.Adds()))
	p = le.AppendUint64(p, uint64(f.Landmark()))
	p = le.AppendUint32(p, uint32(len(rows)))
	p = append(le.AppendUint32(p, uint32(len(dict))), byte(gw), byte(iw))
	if len(dict)*8+len(rows)*(gw+iw) >= len(masses)*8 {
		for _, v := range masses {
			p = le.AppendUint64(p, math.Float64bits(v))
		}
	} else {
		for _, v := range dict {
			p = le.AppendUint64(p, math.Float64bits(v))
		}
		for _, r := range rows {
			for b := range gw + iw {
				p = append(p, byte((r[0]|r[1]<<(8*gw))>>(8*b)))
			}
		}
	}
	out := le.AppendUint32(append([]byte(nil), frame[:12]...), uint32(len(p)))
	out = append(out, p...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestFilterOccupancyInvariant drives the rig with random op strings: adds
// of every weight (zero included) whose stamps roll the landmarks over and
// flush, far-future jumps, merges in both directions of the rescale,
// restores, hashed restores and resets, checking after every step — and
// that the run reached each of those paths.
func TestFilterOccupancyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var rebased, rescaled, freed int
	for n := 0; n < 200; n++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		r := newOccupancyRig()
		r.run(t, ops)
		rebased, rescaled, freed = rebased+r.rebased, rescaled+r.rescaled, freed+r.freed
	}
	if rebased == 0 || rescaled == 0 || freed == 0 {
		t.Fatalf("merges rebasing the destination %d, rescaling the source %d, lines given back by a roll-over %d: a path went untested",
			rebased, rescaled, freed)
	}
}

// FuzzFilterOccupancy is TestFilterOccupancyInvariant on arbitrary op
// strings.
func FuzzFilterOccupancy(f *testing.F) {
	f.Add([]byte{0, 16, 1, 2, 9, 8, 0, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 1, 1, 131, 0, 1, 1, 1, 4, 12, 5, 13, 6, 14, 7, 15})
	f.Add([]byte{32, 200, 7, 7, 255, 40, 200, 7, 8, 255, 3, 1, 0, 0, 1, 44, 36, 61})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newOccupancyRig().run(t, ops)
	})
}
