package wire

import (
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// levelSize is what version 3 wrote for a filter of cells cells, occupied
// of them non-zero: 12-byte sparse rows, or the dense column where that
// was smaller.
func levelSize(occupied, cells int) int {
	if sparse(occupied, cells) {
		return levelHeaderSize + occupied*sparseRowSize
	}
	return levelHeaderSize + cells*denseCellSize
}

// TestContinuousSealSize pins what the dictionary saves where the
// continuous-decay benchmark seals: the state its barrier folds at the
// first report — thirty seconds of zipf-steady (gen.Scenarios' instance
// 24) hash-partitioned over two shards of the IPv4 byte ladder, 65 536 × 4
// cells, τ 10 s, merged — encodes in at most 0.6 of the bytes version 3
// wrote for it, a warm encode allocates the frame and nothing else, and the
// frame restores in place within TestRestoreContinuousInPlace's budget.
// Sizes are logged per level.
func TestContinuousSealSize(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := continuous.Config{Hierarchy: h, Phi: 0.05,
		Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: 10 * time.Second}}}
	var pkts []trace.Packet
	for _, sc := range gen.Scenarios(30*time.Second, 24) {
		if sc.Name == "zipf-steady" {
			var err error
			if pkts, err = gen.Packets(sc.Config); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := trace.NewKeyBatch(len(pkts))
	all.AppendPackets(h, pkts)
	shards := [2]*trace.KeyBatch{trace.NewKeyBatch(0), trace.NewKeyBatch(0)}
	for i, key := range all.Keys {
		shards[hashx.Bucket(hashx.Mix64(key), 2)].Append(key, all.Sizes[i], all.Ts[i])
	}
	mk := func() *continuous.Detector {
		d, err := continuous.NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	merged := mk()
	for _, kb := range shards {
		d := mk()
		d.ObserveKeys(kb)
		merged.Merge(d)
	}

	frame := EncodeContinuous(merged)
	v3 := headerSize + continuousHeaderSize + merged.ActiveLen()*activeRowSize + crcSize
	codes := levelCodes(merged.Filters())
	for l, f := range merged.Filters() {
		c := codes[l]
		was, now := levelSize(f.Occupied(), f.Cells()), c.size(f.Cells())
		v3 += was
		t.Logf("/%-2d %5d cells, %4d non-zero in %4d masses, gap and id in %d+%d B: %5d B, version 3 %5d B",
			h.Bits(l)-h.Bits(h.Levels()-1), f.Cells(), c.n, c.m, c.gw, c.iw, now, was)
	}
	t.Logf("frame %d B, version 3 %d B: %.3f", len(frame), v3, float64(len(frame))/float64(v3))
	if len(frame) > v3*6/10 {
		t.Errorf("frame %d B against version 3's %d: over 0.6", len(frame), v3)
	}

	f, err := Verify(frame)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := f.RestoreContinuous(nil)
	if err != nil {
		t.Fatal(err)
	}
	restores := testing.AllocsPerRun(5, func() {
		if _, err = f.RestoreContinuous(kept); err != nil {
			t.Fatal(err)
		}
	})
	encodes := testing.AllocsPerRun(5, func() { EncodeContinuous(merged) })
	t.Logf("a warm encode: %.0f allocations; an in-place restore: %.0f", encodes, restores)
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the scratch at random")
	}
	if encodes != 1 || restores > restoreAllocs {
		t.Fatalf("a warm encode makes %.0f allocations (want 1), an in-place restore %.0f (budget %d)", encodes, restores, restoreAllocs)
	}
}
