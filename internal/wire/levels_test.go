package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/tdbf"
)

// craftContinuous frames a continuous detector state by hand, at any
// version from 2: the byte ladder, continuousTestConfig with cells cells, no
// active prefix, every level scaled to the landmark 5, and cols[l] as level
// l's column —
// laid out sparse or dense as its occupancy says, whatever its length is,
// so that a column of the wrong length for its level can be written.
func craftContinuous(t testing.TB, version uint16, cells int, cols [][]float64) []byte {
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
	p = appendU16(p, uint16(len(cols)))
	for l, col := range cols {
		occupied := 0
		for _, v := range col {
			if v != 0 {
				occupied++
			}
		}
		p = appendU64(p, d.State().Filters[l].Seed())
		p = appendI64(p, 9)
		p = appendI64(p, 5)
		p = appendU32(p, uint32(occupied))
		for i, v := range col {
			switch {
			case !sparse(occupied, len(col)):
				p = appendF64(p, v)
			case v != 0:
				p = appendF64(appendU32(p, uint32(i)), v)
			}
		}
	}
	return mangle(frameFor(KindContinuous, 4, 8, 32, p), func(b []byte) { b[4] = byte(version) })
}

// hostileContinuous returns continuous frames that probe the per-level
// shapes of version 3 and the conversion of the versions before it, each
// with the typed error it must decode to (nil: it is valid).
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
	filter := EncodeFilter(testFilter(7))
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
		{"v3-on-filter", mangle(filter, func(b []byte) { b[4] = VersionLevels }), ErrVersion},
		{"v4", craftContinuous(t, VersionLevels+1, 256, shape(col(256, 0, 3), col(1, 4))), ErrVersion},
		{"v2-root-cells-disagree", craftContinuous(t, VersionSparse, 4, [][]float64{col(4), col(4), col(4), col(4), {5, 7, 9, 11}}), nil},
		{"v2-sized-as-v3", craftContinuous(t, VersionSparse, 4, [][]float64{col(4), col(4), col(4), col(4), {5}}), ErrCorrupt},
	}
}

// TestLevelsTrustBoundary: what a version-3 frame says about a level is
// held to that level's own cells — a section longer than the level's key
// space, a row at or past its cell count, a hashed level sized as an exact
// one are typed errors, as is version 3 on a bare filter — a valid one
// re-encodes to itself, and a version-2 frame whose hashed root cells
// disagree converts to the minimum over the root key's k cells: the
// estimate the sender's filter gave.
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
			if f, err := Verify(re); err != nil || f.Header.Version != VersionLevels {
				t.Fatalf("re-encoding: version %d, %v", f.Header.Version, err)
			}
			if hdr, _ := Verify(tc.frame); hdr.Header.Version == VersionLevels && !bytes.Equal(re, tc.frame) {
				t.Fatal("a version-3 frame does not re-encode to itself")
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
	cells := []float64{5, 7, 9, 11}
	i := -1
	if err := sender.Restore(tdbf.FilterState{Seed: root.Seed(), Adds: 9, Landmark: 5, Next: func() (int, float64, bool) {
		i++
		return i, cells[min(i, 3)], i < 4
	}}); err != nil {
		t.Fatal(err)
	}
	key := h.KeyOfPrefix(addr.V4Root)
	got, want := root.Estimate(key, 5), sender.Estimate(key, 5)
	if !root.Direct() || root.Cells() != 1 || got != want || want < 5 || want > 7 {
		t.Fatalf("converted root estimates %v, the sender's hashed filter %v (three of the cells 5 7 9 11)", got, want)
	}
}
