package telemetry

import (
	"strings"
	"testing"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
)

func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

// window builds an hhh.Set from prefix→conditioned-bytes pairs.
func window(items map[string]int64) hhh.Set {
	set := hhh.Set{}
	for s, c := range items {
		p := pfx(s)
		set[p] = hhh.Item{Prefix: p, Count: c, Conditioned: c}
	}
	return set
}

// TestWatcherOnsetOffset walks one prefix through a full episode:
// onset on first crossing, offset after HoldOff quiet
// windows, with duration measured onset→offset.
func TestWatcherOnsetOffset(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.3, HoldOff: 2})
	quiet := window(map[string]int64{"10.0.0.0/8": 10})
	hot := window(map[string]int64{"10.0.0.0/8": 60, "20.0.0.0/8": 10})

	w.ObserveWindow(1e9, quiet, 100)
	if got := len(w.Events()); got != 0 {
		t.Fatalf("quiet window emitted %d events", got)
	}
	w.ObserveWindow(2e9, hot, 100) // share 0.6 → onset
	w.ObserveWindow(3e9, hot, 100) // still hot
	w.ObserveWindow(4e9, quiet, 100)
	w.ObserveWindow(5e9, quiet, 100) // second quiet window → offset

	evs := w.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want onset+offset: %v", len(evs), evs)
	}
	on, off := evs[0], evs[1]
	if on.Type != EventOnset || off.Type != EventOffset {
		t.Fatalf("event types %v, %v", on.Type, off.Type)
	}
	if on.Prefix != "10.0.0.0/8" || off.Prefix != "10.0.0.0/8" {
		t.Fatalf("prefixes %q, %q", on.Prefix, off.Prefix)
	}
	if on.Seq >= off.Seq {
		t.Fatalf("onset seq %d not before offset seq %d", on.Seq, off.Seq)
	}
	if on.TraceTimeNs != 2e9 || off.TraceTimeNs != 5e9 {
		t.Fatalf("timestamps %d, %d", on.TraceTimeNs, off.TraceTimeNs)
	}
	if off.DurationNs != 3e9 {
		t.Fatalf("offset duration %d, want 3e9", off.DurationNs)
	}
	if on.Share != 0.6 || on.Bytes != 60 {
		t.Fatalf("onset share=%v bytes=%d", on.Share, on.Bytes)
	}
	if on.Level != 8 {
		t.Fatalf("onset level %d, want 8", on.Level)
	}
	if onsets, offs := w.Counts(); onsets != 1 || offs != 1 {
		t.Fatalf("counts onsets=%d offsets=%d", onsets, offs)
	}
	if w.Active() != 0 {
		t.Fatalf("active after offset: %d", w.Active())
	}
}

// TestWatcherHoldOnHysteresis: a single hot window alarms — hit-and-run
// pulses can be shorter than two windows — and the episode holds on
// through a one-window dip (HoldOff 2): no offset/onset flap.
func TestWatcherHoldOnHysteresis(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.3, HoldOff: 2})
	quiet := window(map[string]int64{"10.0.0.0/8": 10})
	hot := window(map[string]int64{"10.0.0.0/8": 60})

	w.ObserveWindow(1e9, quiet, 100)
	w.ObserveWindow(2e9, hot, 100) // first crossing → onset
	w.ObserveWindow(3e9, quiet, 100)
	w.ObserveWindow(4e9, hot, 100) // dip shorter than HoldOff: still active
	if w.Active() != 1 {
		t.Fatalf("active=%d after one-window dip, want 1", w.Active())
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Type != EventOnset || evs[0].TraceTimeNs != 2e9 {
		t.Fatalf("events after dip: %v", evs)
	}
}

// TestWatcherMinLevel: the hierarchy root carries the unattributed
// residual of every window (35–50% of mass on the repository's traces)
// and must never alarm; a /8 at the same share does.
func TestWatcherMinLevel(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.25})
	root := window(map[string]int64{"0.0.0.0/0": 45, "10.0.0.0/8": 10})
	for ts := int64(1e9); ts <= 5e9; ts += 1e9 {
		w.ObserveWindow(ts, root, 100)
	}
	if got := len(w.Events()); got != 0 {
		t.Fatalf("root prefix alarmed: %v", w.Events())
	}
	w.ObserveWindow(6e9, window(map[string]int64{"0.0.0.0/0": 45, "10.0.0.0/8": 45}), 100)
	evs := w.Events()
	if len(evs) != 1 || evs[0].Prefix != "10.0.0.0/8" || evs[0].Level != 8 {
		t.Fatalf("a /8 at the root's share did not alarm alone: %v", evs)
	}
}

// TestWatcherMinBytes: near-empty windows cannot alarm on share alone.
func TestWatcherMinBytes(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.3, MinBytes: 1000})
	w.ObserveWindow(1e9, window(map[string]int64{"10.0.0.0/8": 60}), 100)
	if got := len(w.Events()); got != 0 {
		t.Fatalf("sub-MinBytes window emitted %d events", got)
	}
	w.ObserveWindow(2e9, window(map[string]int64{"10.0.0.0/8": 6000}), 10000)
	if got := len(w.Events()); got != 1 {
		t.Fatalf("above-MinBytes window emitted %d events, want 1", got)
	}
}

// TestWatcherMassFallback: with no mass denominator the watcher uses
// the summed conditioned volume of the set.
func TestWatcherMassFallback(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.5})
	set := window(map[string]int64{"10.0.0.0/8": 60, "20.0.0.0/8": 40})
	w.ObserveWindow(1e9, set, 0)
	evs := w.Events()
	if len(evs) != 1 || evs[0].Prefix != "10.0.0.0/8" {
		t.Fatalf("fallback mass events: %v", evs)
	}
	if evs[0].Share != 0.6 {
		t.Fatalf("fallback share %v, want 0.6", evs[0].Share)
	}
}

// TestWatcherRingWrap: the ring keeps the newest eventCapacity events,
// oldest-first, with monotone sequence numbers.
func TestWatcherRingWrap(t *testing.T) {
	w := NewWatcher(WatcherConfig{Threshold: 0.3, HoldOff: 1})
	hot := window(map[string]int64{"10.0.0.0/8": 60})
	quiet := window(map[string]int64{"10.0.0.0/8": 10})
	ts := int64(1e9)
	const pairs = eventCapacity/2 + 3 // onset/offset pairs: 6 events past capacity
	for i := 0; i < pairs; i++ {
		w.ObserveWindow(ts, hot, 100)
		ts += 1e9
		w.ObserveWindow(ts, quiet, 100)
		ts += 1e9
	}
	evs := w.Events()
	if len(evs) != eventCapacity {
		t.Fatalf("ring holds %d events, want capacity %d", len(evs), eventCapacity)
	}
	for i, e := range evs {
		if want := int64(7 + i); e.Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d (oldest-first newest tail)", i, e.Seq, want)
		}
	}
	if onsets, offs := w.Counts(); onsets != pairs || offs != pairs {
		t.Fatalf("counts survived wrap wrong: %d/%d", onsets, offs)
	}
}

// TestWatcherCallbackAndString: OnEvent fires synchronously per event
// and String renders grep-able structured log lines.
func TestWatcherCallbackAndString(t *testing.T) {
	var lines []string
	w := NewWatcher(WatcherConfig{Threshold: 0.3, HoldOff: 1,
		OnEvent: func(e Event) { lines = append(lines, e.String()) }})
	w.ObserveWindow(1e9, window(map[string]int64{"10.0.0.0/8": 60}), 100)
	w.ObserveWindow(2e9, window(map[string]int64{"10.0.0.0/8": 10}), 100)
	if len(lines) != 2 {
		t.Fatalf("callback fired %d times, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "event=attack_onset") ||
		!strings.Contains(lines[0], "prefix=10.0.0.0/8") {
		t.Fatalf("onset line %q", lines[0])
	}
	if !strings.Contains(lines[1], "event=attack_offset") ||
		!strings.Contains(lines[1], "duration_ns=1000000000") {
		t.Fatalf("offset line %q", lines[1])
	}
}

// TestWatcherRegister: the registered families expose live watcher
// state and the exposition stays conformant.
func TestWatcherRegister(t *testing.T) {
	r := NewRegistry()
	w := NewWatcher(WatcherConfig{Threshold: 0.3})
	w.Register(r)
	w.ObserveWindow(1e9, window(map[string]int64{"10.0.0.0/8": 60}), 100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if _, err := ValidateExposition(text); err != nil {
		t.Fatalf("watcher exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"hhh_attacks_active 1",
		"hhh_attack_onsets_total 1",
		"hhh_attack_offsets_total 0",
		"hhh_attack_events_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
