package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/tdbf"
)

// craftContinuous frames a continuous detector state by hand, at any
// version from 2: the byte ladder, continuousTestConfig with cells cells, no
// active prefix, every level scaled to the landmark 5, and cols[l] as level
// l's column — laid out as the version writes a column of its length,
// whatever its length is, so that a column of the wrong length for its
// level can be written.
func craftContinuous(t testing.TB, version uint16, cells int, cols [][]float64) []byte {
	sections := make([]section, len(cols))
	for l, col := range cols {
		sections[l] = column(version, col)
	}
	return craftSections(t, version, cells, sections)
}

// section appends a filter section's cells, from its occupied count on, to
// a handcrafted frame's payload.
type section func(p []byte) []byte

// column is col as version writes a filter of len(col) cells: at versions 2
// and 3 sparse rows or the dense column, as its occupancy says; from
// version 4 a dictionary — the distinct masses in first-appearance order,
// then a gap and an id a non-zero cell, each in the fewest bytes that hold
// the largest — or the dense column, whichever is smaller.
func column(version uint16, col []float64) section {
	return func(p []byte) []byte {
		var masses []float64
		var gaps, ids []uint64
		ofs := map[float64]uint64{}
		prev, maxGap := -1, uint64(0)
		for i, v := range col {
			if v == 0 {
				continue
			}
			if _, ok := ofs[v]; !ok {
				ofs[v] = uint64(len(masses))
				masses = append(masses, v)
			}
			gaps, ids = append(gaps, uint64(i-prev)), append(ids, ofs[v])
			maxGap, prev = max(maxGap, uint64(i-prev)), i
		}
		if version < VersionLevelsDict {
			p = appendU32(p, uint32(len(gaps)))
			for i, v := range col {
				switch {
				case !sparse(len(gaps), len(col)):
					p = appendF64(p, v)
				case v != 0:
					p = appendF64(appendU32(p, uint32(i)), v)
				}
			}
			return p
		}
		gw, iw := width(maxGap), width(uint64(max(len(masses), 1)-1))
		if len(masses)*8+len(gaps)*int(gw+iw) >= len(col)*8 {
			return dense(len(gaps), len(masses), gw, iw, col)(p)
		}
		return dict(len(gaps), gw, iw, masses, gaps, ids)(p)
	}
}

// dict is a dictionary section as it is written, whatever it holds: n
// occupied cells, gap and id widths gw and iw, the masses and a row of
// gaps[i] and ids[i] each.
func dict(n int, gw, iw uint8, masses []float64, gaps, ids []uint64) section {
	return func(p []byte) []byte {
		p = append(appendU32(appendU32(p, uint32(n)), uint32(len(masses))), gw, iw)
		for _, v := range masses {
			p = appendF64(p, v)
		}
		for i := range gaps {
			for b := uint8(0); b < gw+iw; b++ {
				p = append(p, byte((gaps[i]|ids[i]<<(8*gw))>>(8*b)))
			}
		}
		return p
	}
}

// dense is a version-4 dense section as it is written, whatever it holds:
// the code (n, m, gw, iw), then col.
func dense(n, m int, gw, iw uint8, col []float64) section {
	return func(p []byte) []byte {
		p = append(appendU32(appendU32(p, uint32(n)), uint32(m)), gw, iw)
		for _, v := range col {
			p = appendF64(p, v)
		}
		return p
	}
}

// craftSections is craftContinuous with each level's cells as sections[l]
// writes them.
func craftSections(t testing.TB, version uint16, cells int, sections []section) []byte {
	cfg := continuousTestConfig(testHierarchy(), 0x90)
	cfg.Filter.Cells = cells
	d, err := continuous.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := appendF64(nil, cfg.Phi)
	p = appendF64(p, 0.9)
	p = append(p, 2) // started
	p = appendU64(p, cfg.Seed)
	p = appendI64(p, int64(cfg.Filter.Decay.Tau))
	p = appendU64(p, d.Sampler())
	p = appendDecay(p, cfg.Filter.Decay)
	p = appendU32(p, uint32(cells))
	p = appendU16(p, uint16(cfg.Filter.Hashes))
	p = appendI64(p, int64(cfg.Filter.Decay.Tau)) // warmup end
	p = appendI64(p, 9)                           // packets
	p = appendF64(p, 100)
	p = appendI64(p, 5)
	p = appendU32(p, 0)
	p = appendU16(p, uint16(len(sections)))
	for l, sec := range sections {
		p = appendU64(p, d.Filters()[l].Seed())
		p = appendI64(p, 9)
		p = appendI64(p, 5)
		p = sec(p)
	}
	return mangle(frameFor(KindContinuous, 4, 8, 32, p), func(b []byte) { b[4] = byte(version) })
}

// hostileContinuous returns continuous frames that probe the per-level
// shapes of versions 3 and 4 and the conversion of the versions before
// them, each with the typed error it must decode to (nil: it is valid).
func hostileContinuous(t testing.TB) []struct {
	name  string
	frame []byte
	want  error
} {
	col := func(n int, vs ...float64) []float64 { return append(vs, make([]float64, n-len(vs))...) }
	// At 256 declared cells the byte ladder holds /8 (256 keys) and /0 (one)
	// exactly; at 4, /0 only.
	shape := func(l8, l0 []float64) [][]float64 {
		return [][]float64{col(256, 1), col(256, 1), col(256, 1), l8, l0}
	}
	sparseRow := make([]float64, 257)
	sparseRow[256] = 2 // a row whose index is the level's cell count
	full := make([]float64, 300)
	for i := range full {
		full[i] = 1
	}
	filter, err := os.ReadFile(filepath.Join("testdata", "tdbf-v2.wire"))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		frame []byte
		want  error
	}{
		{"v3-well-formed", craftContinuous(t, VersionLevels, 256, shape(col(256, 0, 3), col(1, 4))), nil},
		{"v3-root-sized-as-hashed", craftContinuous(t, VersionLevels, 256, shape(col(256, 0, 3), col(256, 4))), ErrCorrupt},
		{"v3-root-two-occupied", craftContinuous(t, VersionLevels, 256, shape(col(256, 0, 3), col(2, 4, 4))), ErrCorrupt},
		{"v3-exact-level-dense-overlong", craftContinuous(t, VersionLevels, 256, shape(full, col(1, 4))), ErrCorrupt},
		{"v3-sparse-index-at-cells", craftContinuous(t, VersionLevels, 256, shape(sparseRow, col(1, 4))), ErrCorrupt},
		{"v3-hashed-level-sized-as-exact", craftContinuous(t, VersionLevels, 4, [][]float64{col(1, 1), col(4), col(4), col(4), col(1, 4)}), ErrCorrupt},
		// A bare filter's version 3 is its dictionary: version 2's cells do
		// not read as one.
		{"v3-on-filter", mangle(filter, func(b []byte) { b[4] = VersionDict }), ErrCorrupt},
		{"v4", craftContinuous(t, VersionLevelsDict, 256, shape(col(256, 0, 3), col(1, 4))), nil},
		{"v4-root-sized-as-hashed", craftContinuous(t, VersionLevelsDict, 256, shape(col(256, 0, 3), col(256, 4))), ErrCorrupt},
		{"v4-exact-level-dense-overlong", craftContinuous(t, VersionLevelsDict, 256, shape(full, col(1, 4))), ErrCorrupt},
		{"v4-row-index-at-cells", craftContinuous(t, VersionLevelsDict, 256, shape(sparseRow, col(1, 4))), ErrCorrupt},
		{"v4-hashed-level-sized-as-exact", craftContinuous(t, VersionLevelsDict, 4, [][]float64{col(1, 1), col(4), col(4), col(4), col(1, 4)}), ErrCorrupt},
		{"v5", craftContinuous(t, VersionLevelsDict+1, 256, shape(col(256, 0, 3), col(1, 4))), ErrVersion},
		{"v2-root-cells-disagree", craftContinuous(t, VersionSparse, 4, [][]float64{col(4), col(4), col(4), col(4), {5, 7, 9, 11}}), nil},
		{"v2-sized-as-v3", craftContinuous(t, VersionSparse, 4, [][]float64{col(4), col(4), col(4), col(4), {5}}), ErrCorrupt},
	}
}

// TestLevelsTrustBoundary: what a version-3 or -4 frame says about a level
// is held to that level's own cells — a section longer than the level's key
// space, a row at or past its cell count, a hashed level sized as an exact
// one are typed errors, as are version 2's cells read as a bare filter's
// version 3 — a valid one re-encodes, at version 4, to a fixpoint of the
// codec (a version-4 one to itself), and a version-2 frame whose hashed
// root cells disagree converts to the minimum over the root key's k cells:
// the estimate the sender's filter gave.
func TestLevelsTrustBoundary(t *testing.T) {
	for _, tc := range hostileContinuous(t) {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Decode(tc.frame)
			if !errors.Is(err, tc.want) || (err == nil) != (v != nil) {
				t.Fatalf("Decode = %T, %v; want %v", v, err, tc.want)
			}
			if err != nil {
				return
			}
			d := v.(*continuous.Detector)
			re := EncodeContinuous(d)
			if f, err := Verify(re); err != nil || f.Header.Version != VersionLevelsDict {
				t.Fatalf("re-encoding: version %d, %v", f.Header.Version, err)
			}
			if hdr, _ := Verify(tc.frame); hdr.Header.Version == VersionLevelsDict && !bytes.Equal(re, tc.frame) {
				t.Fatal("a version-4 frame does not re-encode to itself")
			}
			again, err := Decode(re)
			if err != nil {
				t.Fatal(err)
			}
			if twice := EncodeContinuous(again.(*continuous.Detector)); !bytes.Equal(twice, re) {
				t.Fatal("the re-encoding is not a fixpoint of the codec")
			}
		})
	}
	// The root key's estimate in the sender's hashed filter, rebuilt here
	// cell for cell.
	h := testHierarchy()
	var root *tdbf.Filter
	for _, tc := range hostileContinuous(t) {
		if tc.name == "v2-root-cells-disagree" {
			d, err := decodeAs[*continuous.Detector](tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			root = d.State().Filters[h.Levels()-1]
		}
	}
	sender := tdbf.New(tdbf.Config{Cells: 4, Hashes: 3, Seed: root.Seed(), Decay: tdbf.Exponential{Tau: 500 * time.Millisecond}})
	w, err := sender.Restore(tdbf.FilterState{Seed: root.Seed(), Adds: 9, Landmark: 5})
	for i, v := range []float64{5, 7, 9, 11} {
		if err == nil {
			err = w.Set(i, v)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	key := h.KeyOfPrefix(addr.V4Root)
	got, want := root.Estimate(key, 5), sender.Estimate(key, 5)
	if !root.Direct() || root.Cells() != 1 || got != want || want < 5 || want > 7 {
		t.Fatalf("converted root estimates %v, the sender's hashed filter %v (three of the cells 5 7 9 11)", got, want)
	}
}
