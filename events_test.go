package hiddenhhh

import (
	"testing"
	"time"

	"hiddenhhh/internal/gen"
)

// replayWatch streams a generated scenario through a sliding detector
// and feeds the watcher one snapshot per second — the same cadence
// hhhserve's sampler uses (one ObserveWindow per closed window).
func replayWatch(t *testing.T, cfg gen.Config, w *AttackWatcher) {
	t.Helper()
	pkts, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const window = 2 * time.Second
	det, err := NewSlidingDetector(SlidingConfig{Window: window, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	acc := det.(Accounting)
	i := 0
	for next := int64(window); next <= pkts[len(pkts)-1].Ts; next += int64(window) / 2 {
		for i < len(pkts) && pkts[i].Ts < next {
			det.ObserveBatch(pkts[i : i+1])
			i++
		}
		w.ObserveWindow(next, det.Snapshot(next), acc.ReportMass(next))
	}
}

// TestAttackEventsHitAndRun replays the hit-and-run DDoS scenario: the
// pulse source 78.253.4.39 must produce exactly one onset and one
// offset, in order, and nothing else. The threshold 0.2 sits between
// the scenario's steady-state ceiling (no persistent prefix exceeds
// 0.19 of window mass below the hierarchy root) and the pulse peak.
func TestAttackEventsHitAndRun(t *testing.T) {
	w := NewAttackWatcher(AttackWatcherConfig{Threshold: 0.2})
	replayWatch(t, gen.HitAndRunScenario(15*time.Second, 42), w)

	evs := w.Events()
	if len(evs) != 2 {
		t.Fatalf("hit-and-run emitted %d events, want onset+offset: %v", len(evs), evs)
	}
	on, off := evs[0], evs[1]
	if on.Type != AttackOnset || off.Type != AttackOffset {
		t.Fatalf("event order wrong: %v then %v", on.Type, off.Type)
	}
	const attacker = "78.253.4.39/32"
	if on.Prefix != attacker || off.Prefix != attacker {
		t.Fatalf("attack pinned on %q/%q, want %q", on.Prefix, off.Prefix, attacker)
	}
	if on.Seq >= off.Seq || on.TraceTimeNs >= off.TraceTimeNs {
		t.Fatalf("onset (seq %d, t %d) does not precede offset (seq %d, t %d)",
			on.Seq, on.TraceTimeNs, off.Seq, off.TraceTimeNs)
	}
	if off.DurationNs != off.TraceTimeNs-on.TraceTimeNs || off.DurationNs <= 0 {
		t.Fatalf("offset duration %d, want %d", off.DurationNs, off.TraceTimeNs-on.TraceTimeNs)
	}
	if on.Level != 32 {
		t.Fatalf("onset level %d, want 32 (host route)", on.Level)
	}
	if on.Share < 0.2 || on.Bytes <= 0 {
		t.Fatalf("onset share=%v bytes=%d", on.Share, on.Bytes)
	}
	if w.Active() != 0 {
		t.Fatalf("%d episodes still active after the trace", w.Active())
	}
	if onsets, offs := w.Counts(); onsets != 1 || offs != 1 {
		t.Fatalf("counts onsets=%d offsets=%d, want 1/1", onsets, offs)
	}
}

// TestAttackEventsZipfSteadyQuiet replays the stationary Zipf scenario
// at the default watcher config: a heavy-tailed but attack-free mix
// must produce zero events (the default 0.25 threshold sits above the
// steady-state share of every prefix below the hierarchy root).
func TestAttackEventsZipfSteadyQuiet(t *testing.T) {
	w := NewAttackWatcher(AttackWatcherConfig{})
	replayWatch(t, gen.ZipfSteadyScenario(15*time.Second, 41), w)

	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("steady scenario emitted %d events: %v", len(evs), evs)
	}
	if w.Active() != 0 {
		t.Fatalf("steady scenario has %d active episodes", w.Active())
	}
}
