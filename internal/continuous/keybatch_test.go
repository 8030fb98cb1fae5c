package continuous

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// ingest feeds one packet the way everything that ships does: a
// one-packet batch through the producer-side packing (family filter, leaf
// key), then ObserveKeys.
func ingest(d *Detector, src addr.Addr, bytes, now int64) {
	var b trace.KeyBatch
	b.AppendPackets(d.cfg.Hierarchy, []trace.Packet{{Ts: now, Src: src, Size: uint32(bytes)}})
	d.ObserveKeys(&b)
}

// dualStackStream synthesises a time-ordered mixed-family stream so the
// packing family filter and the key-path chain reconstruction both get
// exercised. Halfway through, each family's last subnet falls silent, so
// that its prefix decays out through the exit sweep.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(10 * time.Second / time.Duration(n))
	for i := range out {
		var src addr.Addr
		late := 2 * i / n // 1 in the second half
		if rng.Intn(4) == 0 {
			src = addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(6-late))<<16, uint64(i))
		} else {
			src = addr.From4(10, byte(rng.Intn(4-late)), byte(rng.Intn(8)), byte(rng.Intn(40)))
		}
		out[i] = trace.Packet{Ts: int64(i) * step, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// TestContinuousKeyBatchMatchesObserve pins that how a stream is cut into
// batches leaves no trace in the detector: ObserveKeys fed one packet at a
// time and fed chunks of any size (producer-packed, so each packet's
// generalisation chain is rebuilt from the leaf key by masking) leave a
// byte-identical state — same admissions and same exits at the same
// timestamps (so the exit sweep fires after the same packets however the
// stream is chunked), same active set, same filter folds — for both
// families, with and without level sampling.
func TestContinuousKeyBatchMatchesObserve(t *testing.T) {
	pkts := dualStackStream(17, 16000)
	last := pkts[len(pkts)-1].Ts
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		for _, sampled := range []bool{false, true} {
			name := name
			if sampled {
				name += "-sampled"
			}
			t.Run(name, func(t *testing.T) {
				type event struct {
					enter bool
					p     addr.Prefix
					at    int64
				}
				mk := func(log *[]event) *Detector {
					d, err := NewDetector(Config{
						Hierarchy: h,
						Phi:       0.05,
						Filter: tdbf.Config{
							Cells:  1 << 12,
							Hashes: 4,
							Decay:  tdbf.Exponential{Tau: 2 * time.Second},
						},
						Sampled: sampled,
						Seed:    7,
						OnEnter: func(p addr.Prefix, at int64) { *log = append(*log, event{true, p, at}) },
						OnExit:  func(p addr.Prefix, at int64) { *log = append(*log, event{false, p, at}) },
					})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				var refLog []event
				ref := mk(&refLog)
				for i := range pkts {
					ingest(ref, pkts[i].Src, int64(pkts[i].Size), pkts[i].Ts)
				}
				refActive := ref.State().Active
				want := ref.Query(last)
				exits := 0
				for _, e := range refLog {
					if !e.enter && e.at != last {
						exits++
					}
				}
				if exits == 0 {
					t.Fatal("stream never exercises the exit sweep")
				}
				for _, bs := range []int{7, 97, 256, len(pkts)} { // 256: two of the factor pass's 128-stamp runs
					var log []event
					got := mk(&log)
					kb := trace.NewKeyBatch(bs)
					for off := 0; off < len(pkts); off += bs {
						end := min(off+bs, len(pkts))
						kb.Reset()
						kb.AppendPackets(h, pkts[off:end])
						got.ObserveKeys(kb)
					}
					if got.Packets() != ref.Packets() {
						t.Fatalf("chunk %d: packets %d != per-packet %d", bs, got.Packets(), ref.Packets())
					}
					if got.TotalMass(last) != ref.TotalMass(last) {
						t.Fatalf("chunk %d: mass %v != per-packet %v", bs, got.TotalMass(last), ref.TotalMass(last))
					}
					if got.ActiveLen() != ref.ActiveLen() {
						t.Fatalf("chunk %d: active %d != per-packet %d", bs, got.ActiveLen(), ref.ActiveLen())
					}
					if a := got.State().Active; !slices.Equal(a, refActive) {
						t.Fatalf("chunk %d: active set diverged:\nbatch: %v\nref:   %v", bs, a, refActive)
					}
					for l, f := range got.State().Filters {
						if !slices.Equal(cellsOf(f), cellsOf(ref.State().Filters[l])) {
							t.Fatalf("chunk %d: level %d filter cells diverged", bs, l)
						}
					}
					if gs := got.Query(last); !gs.Equal(want) {
						t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
					}
					if !slices.Equal(log, refLog) {
						t.Fatalf("chunk %d: transitions diverged:\nbatch: %v\nref:   %v", bs, log, refLog)
					}
				}
			})
		}
	}
}

// cellsOf flattens a filter's state — landmark, then each held line's
// index and masses — for comparison.
func cellsOf(f *tdbf.Filter) []float64 {
	out := []float64{float64(f.Landmark())}
	for w := 0; w*64*tdbf.LineCells < f.Cells(); w++ {
		for m := f.Lines(w); m != 0; m &= m - 1 {
			j := w*64 + bits.TrailingZeros64(m)
			out = append(append(out, float64(j)), f.Line(j)[:]...)
		}
	}
	return out
}
