package window

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// TestSlideRandomConfigsMatchBruteForce drives the sliding engine with
// randomly drawn (width, step, span, traffic) configurations and checks
// every emitted window against a brute-force recount — the engine's
// bucketed increment/evict logic must be exact for all of them.
func TestSlideRandomConfigsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfgGen := func() (Config, []trace.Packet) {
		step := time.Duration(1+rng.Intn(5)) * 100 * time.Millisecond
		width := step * time.Duration(1+rng.Intn(6))
		spanWindows := 1 + rng.Intn(8)
		span := int64(width) + int64(step)*int64(spanWindows)
		n := 200 + rng.Intn(2000)
		pkts := make([]trace.Packet, n)
		for i := range pkts {
			pkts[i] = trace.Packet{
				Ts:   rng.Int63n(span + int64(width)), // some beyond span
				Src:  addr.From4Uint32(rng.Uint32() & 0x3f),
				Size: uint32(1 + rng.Intn(1500)),
			}
		}
		trace.SortByTime(pkts)
		return Config{Width: width, Step: step, End: span}, pkts
	}
	f := func(seed int64) bool {
		cfg, pkts := cfgGen()
		ok := true
		err := Slide(trace.NewSliceSource(pkts), cfg, func(r *Result) error {
			wantLeaves, wantPk, wantBytes := recount(pkts, r.Start, r.End)
			if r.Packets != wantPk || r.Bytes != wantBytes || !sameLeaves(r.Leaves, wantLeaves) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
