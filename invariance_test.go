package hiddenhhh

import (
	"sort"
	"testing"
	"time"
)

// TestTimeTranslationInvariance is the property behind the frame-advance
// and warmup-anchor bugfixes: every detector must report identical sets —
// items, counts and conditioned volumes — for a trace and for the same
// trace shifted deep into epoch-nanosecond territory. The shift is a
// multiple of every window and frame length in play, so window tilings
// align; the continuous detector decays on time *differences* only and
// must be invariant under any shift.
//
// Before this PR the sliding detectors hung here (advance looped once per
// elapsed frame from zero, ~10^10 iterations) and the continuous detector
// skipped its warmup (warmEnd was anchored at absolute zero), so this
// doubles as the epoch-timestamp regression test; the whole run must
// finish in well under a second of detector time per case.
func TestTimeTranslationInvariance(t *testing.T) {
	// 1.7e18 ns ≈ 2023-11-14; a multiple of 1 s windows and of the 125 ms
	// (1s/8) sliding frames.
	const shift = int64(1_700_000_000_000_000_000)
	window := time.Second
	phi := 0.02

	pkts := propStream(21, 40000, 5)
	shifted := make([]Packet, len(pkts))
	copy(shifted, pkts)
	for i := range shifted {
		shifted[i].Ts += shift
	}
	// Snapshot at the first boundary past the last packet: closes the
	// final data window for windowed modes while sliding/continuous mass
	// is still covered.
	snapAt := (pkts[len(pkts)-1].Ts/int64(window) + 1) * int64(window)

	cases := []struct {
		name string
		mk   func() (Detector, error)
	}{
		{"windowed-exact", func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{Window: window, Phi: phi})
		}},
		{"windowed-perlevel", func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{Window: window, Phi: phi, Engine: EnginePerLevel, Counters: 64})
		}},
		{"windowed-rhhh", func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{Window: window, Phi: phi, Engine: EngineRHHH, Counters: 64, Seed: 9})
		}},
		{"sliding", func() (Detector, error) {
			return NewSlidingDetector(SlidingConfig{Window: window, Phi: phi, Counters: 64})
		}},
		{"sliding-memento", func() (Detector, error) {
			return NewSlidingDetector(SlidingConfig{Window: window, Phi: phi, Counters: 64, Engine: EngineMemento, Seed: 9})
		}},
		{"continuous", func() (Detector, error) {
			return NewContinuousDetector(ContinuousConfig{Horizon: window, Phi: phi})
		}},
		{"sharded-windowed", func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Shards: 3, Window: window, Phi: phi, Engine: EnginePerLevel, Counters: 64})
		}},
		{"sharded-sliding", func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Mode: ModeSliding, Shards: 3, Window: window, Phi: phi, Counters: 64})
		}},
		{"sharded-sliding-memento", func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Mode: ModeSliding, Shards: 3, Window: window, Phi: phi, Counters: 64, Engine: EngineMemento, Seed: 9})
		}},
		{"sharded-continuous", func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Mode: ModeContinuous, Shards: 3, Window: window, Phi: phi})
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertTranslationInvariant(t, tc.mk, pkts, shifted, shift, snapAt)
		})
	}
}

// assertTranslationInvariant feeds a fresh detector the packets of base
// stamped before at and snapshots there, does the same with the shifted
// stream at at+shift, and requires identical reports: items, counts and
// conditioned volumes.
func assertTranslationInvariant(t *testing.T, mk func() (Detector, error), base, shifted []Packet, shift, at int64) {
	t.Helper()
	run := func(stream []Packet, at int64) Set {
		det, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		n := sort.Search(len(stream), func(i int) bool { return stream[i].Ts >= at })
		det.ObserveBatch(stream[:n])
		set := det.Snapshot(at)
		if c, ok := det.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return set
	}
	want, moved := run(base, at), run(shifted, at+shift)
	if !moved.Equal(want) {
		t.Fatalf("sets at %d differ under %+d ns shift:\n base  %v\n moved %v", at, shift, want, moved)
	}
	for p, it := range want {
		if m := moved[p]; m.Count != it.Count || m.Conditioned != it.Conditioned {
			t.Errorf("%v: base %+v != moved %+v", p, it, m)
		}
	}
	if want.Len() == 0 {
		t.Error("empty report proves nothing — stream or snapshot time is wrong")
	}
}

// TestTimeTranslationInvarianceNegative extends the translation property
// below zero: every detector whose state is addressed by absolute time —
// the sliding engines by frame index, the windowed ones by window index —
// must report identically for a trace shifted deep into pre-epoch
// territory. Both used Go's truncating division at first, which folds the
// frames (or windows) on either side of zero together; the engines use
// floored frame math and an explicit uninitialised frame-clock sentinel,
// and the shared window clock anchors its first window by floored
// division. The stream starts 300 ms into a window, since the windowed
// fold only shows when the first packet is off a boundary: truncation
// would open [-999, -998) for a first packet at -999.7 s, and the first
// report would cover two windows of traffic. That first report is what the
// early snapshot reads; the late one closes the final data window.
func TestTimeTranslationInvarianceNegative(t *testing.T) {
	// -1000 s: a negative multiple of the 1 s window and its 125 ms
	// frames, placing the whole stream before the epoch.
	const shift = int64(-1_000_000_000_000)
	window := time.Second
	phi := 0.02

	pkts := propStream(21, 40000, 5)
	for pkts[0].Ts < int64(300*time.Millisecond) {
		pkts = pkts[1:]
	}
	shifted := make([]Packet, len(pkts))
	copy(shifted, pkts)
	for i := range shifted {
		shifted[i].Ts += shift
	}
	early := 2 * int64(window)
	late := (pkts[len(pkts)-1].Ts/int64(window) + 1) * int64(window)

	type mk = func() (Detector, error)
	cases := map[string]mk{
		"sliding": func() (Detector, error) {
			return NewSlidingDetector(SlidingConfig{Window: window, Phi: phi, Counters: 64})
		},
		"sliding-memento": func() (Detector, error) {
			return NewSlidingDetector(SlidingConfig{Window: window, Phi: phi, Counters: 64, Engine: EngineMemento, Seed: 9})
		},
		"sharded-sliding": func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Mode: ModeSliding, Shards: 3, Window: window, Phi: phi, Counters: 64})
		},
		"sharded-sliding-memento": func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Mode: ModeSliding, Shards: 3, Window: window, Phi: phi, Counters: 64, Engine: EngineMemento, Seed: 9})
		},
	}
	for _, e := range []Engine{EngineExact, EnginePerLevel, EngineRHHH} {
		cases["windowed-"+e.String()] = func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{Window: window, Phi: phi, Engine: e, Counters: 64, Seed: 9})
		}
		cases["sharded-windowed-"+e.String()] = func() (Detector, error) {
			return NewShardedDetector(ShardedConfig{Shards: 3, Window: window, Phi: phi, Engine: e, Counters: 64, Seed: 9})
		}
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			assertTranslationInvariant(t, mk, pkts, shifted, shift, early)
			assertTranslationInvariant(t, mk, pkts, shifted, shift, late)
		})
	}
}
