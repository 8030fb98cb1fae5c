package pipeline

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
)

// TestWindowClockEndOfTime drives both drivers to the ends of int64 time:
// a first packet at math.MaxInt64, whose window's end is past the last
// stamp, stamps 0 then math.MaxInt64-1 under a 2⁶¹ width, whose fourth
// window ends there, and math.MinInt64 then math.MaxInt64 under a width
// that does not divide 2⁶³, whose first window starts before the first
// stamp. Every call must return, every closed span must be non-empty and
// abut the previous one, and the last window must end at math.MaxInt64
// once a Snapshot there has closed it, which is the span CoveredSpan
// reports.
func TestWindowClockEndOfTime(t *testing.T) {
	type driver interface {
		ObserveBatch([]trace.Packet)
		Snapshot(int64) hhh.Set
		CoveredSpan(int64) (lo, hi int64)
	}
	pkt := func(ts int64) trace.Packet {
		return trace.Packet{Ts: ts, Src: addr.From4Uint32(10<<24 | 7), Size: 100}
	}
	streams := []struct {
		name  string
		width time.Duration
		pkts  []trace.Packet
	}{
		{"first-at-max", time.Second, []trace.Packet{pkt(math.MaxInt64), pkt(math.MaxInt64)}},
		{"zero-then-max-1", 1 << 61, []trace.Packet{pkt(0), pkt(math.MaxInt64 - 1)}},
		{"min-then-max", 3 << 60, []trace.Packet{pkt(math.MinInt64), pkt(math.MaxInt64)}},
	}
	for _, st := range streams {
		for _, shards := range []int{0, 1, 3} { // 0: the Single driver
			for _, batch := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/batch=%v", st.name, shards, batch)
				var spans [][2]int64 // the first 64: a clock that wraps closes windows forever
				cfg := Config{Shards: max(shards, 1), Window: st.width, Phi: 0.05, Engine: KindExact,
					OnWindow: func(start, end int64, set hhh.Set) {
						if len(spans) < 64 {
							spans = append(spans, [2]int64{start, end})
						}
					}}
				var d driver
				var err error
				if shards == 0 {
					d, err = NewSingle(cfg)
				} else {
					d, err = New(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					if batch {
						d.ObserveBatch(st.pkts)
					} else {
						for i := range st.pkts {
							d.ObserveBatch(st.pkts[i : i+1])
						}
					}
					d.Snapshot(math.MaxInt64)
					d.Snapshot(math.MaxInt64)
					if s, ok := d.(*Sharded); ok {
						s.Close()
					}
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: the window clock did not return", name)
				}
				if len(spans) == 0 || spans[len(spans)-1][1] != math.MaxInt64 {
					t.Fatalf("%s: closed %v, want the last window to end at MaxInt64", name, spans)
				}
				if lo, hi := d.CoveredSpan(math.MaxInt64); [2]int64{lo, hi} != spans[len(spans)-1] {
					t.Errorf("%s: CoveredSpan [%d, %d), want the last window %v", name, lo, hi, spans[len(spans)-1])
				}
				for i, sp := range spans {
					if sp[0] >= sp[1] || i > 0 && sp[0] != spans[i-1][1] {
						t.Errorf("%s: window %d %v does not follow %v", name, i, sp, spans[:i])
					}
				}
			}
		}
	}
}

// TestSlidingCoveredSpanAtStartOfTime: near math.MinInt64 the frame a
// sliding report's coverage reaches back to starts before the first instant
// int64 holds, and the span then starts at math.MinInt64 rather than
// wrapping to a start past its end. Elsewhere it starts Frames frames
// before the frame now lies in.
func TestSlidingCoveredSpanAtStartOfTime(t *testing.T) {
	for _, w := range []time.Duration{time.Second, 3, 1 << 62} {
		f := max(int64(w)/8, 1)
		d, err := NewSingle(Config{Mode: ModeSliding, Engine: KindWCSS, Window: w, Frames: 8, Phi: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for _, now := range []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 8*f, math.MinInt64 + 9*f, -1, 0, math.MaxInt64} {
			// floor(now/f)-8 frames of f ns, exactly, at least math.MinInt64.
			q := new(big.Int).Div(big.NewInt(now), big.NewInt(f)) // Euclidean: floored for f > 0
			want := new(big.Int).Mul(q.Sub(q, big.NewInt(8)), big.NewInt(f))
			if want.Cmp(big.NewInt(math.MinInt64)) < 0 {
				want.SetInt64(math.MinInt64)
			}
			if lo, hi := d.CoveredSpan(now); lo != want.Int64() || hi != now {
				t.Errorf("window %v: CoveredSpan(%d) = [%d, %d], want [%v, %d]", w, now, lo, hi, want, now)
			}
		}
	}
}
