package telemetry

import (
	"fmt"
	"sync"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
)

// EventType discriminates attack lifecycle events.
type EventType string

// Attack lifecycle event types: an onset opens an attack episode, the
// matching offset closes it.
const (
	EventOnset  EventType = "onset"
	EventOffset EventType = "offset"
)

// Event is one structured attack lifecycle event: a prefix's conditioned
// share of the window mass crossed the watcher threshold (onset) or fell
// back below it for long enough (offset). Events are JSON-shaped for the
// /events endpoint and rendered by String for log lines.
type Event struct {
	// Seq is the monotone event sequence number (1-based, shared across
	// onsets and offsets), establishing total order.
	Seq int64 `json:"seq"`
	// Type is "onset" or "offset".
	Type EventType `json:"type"`
	// Prefix is the attacking prefix in display form.
	Prefix string `json:"prefix"`
	// Level is the family-relative prefix length in bits (0 = the root of
	// its family's hierarchy).
	Level int `json:"level"`
	// TraceTimeNs is the trace timestamp of the window that triggered the
	// transition.
	TraceTimeNs int64 `json:"trace_time_ns"`
	// Share is the prefix's conditioned share of the window mass at the
	// triggering window (for offsets: the last window it was observed
	// above threshold).
	Share float64 `json:"share"`
	// Bytes is the conditioned byte volume behind Share.
	Bytes int64 `json:"bytes"`
	// DurationNs is, on offsets, the trace time from onset to offset;
	// zero on onsets.
	DurationNs int64 `json:"duration_ns,omitempty"`
}

// String renders the event as a one-line structured log record.
func (e Event) String() string {
	if e.Type == EventOffset {
		return fmt.Sprintf("event=attack_offset seq=%d prefix=%s level=%d trace_ns=%d share=%.4f bytes=%d duration_ns=%d",
			e.Seq, e.Prefix, e.Level, e.TraceTimeNs, e.Share, e.Bytes, e.DurationNs)
	}
	return fmt.Sprintf("event=attack_onset seq=%d prefix=%s level=%d trace_ns=%d share=%.4f bytes=%d",
		e.Seq, e.Prefix, e.Level, e.TraceTimeNs, e.Share, e.Bytes)
}

// WatcherConfig parameterises attack onset/offset detection. The zero
// value picks the documented defaults.
type WatcherConfig struct {
	// Threshold is the conditioned share of window mass a prefix must
	// reach to count as attacking. Default 0.25 — above the steady-state
	// share of any single prefix in the repository's Zipf-tailed base
	// mixes, below the pulse shares the hit-and-run scenarios inject.
	Threshold float64
	// MinBytes additionally requires that many conditioned bytes, so
	// near-empty windows (trace edges, idle links) cannot alarm on noise
	// mass. Default 0 (disabled).
	MinBytes int64
	// HoldOff is how many consecutive observed windows below Threshold
	// end an attack. Default 2, so a pulse briefly dipping across one
	// window boundary does not emit an offset/onset flap.
	HoldOff int
	// OnEvent, when set, is called synchronously for every emitted event
	// (the server hooks structured log lines here).
	OnEvent func(Event)
}

// withDefaults resolves zero fields to the documented defaults.
func (c WatcherConfig) withDefaults() WatcherConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	if c.HoldOff <= 0 {
		c.HoldOff = 2
	}
	return c
}

// eventCapacity bounds the event ring buffer; once full, the oldest events
// are overwritten.
const eventCapacity = 256

// attackState tracks one prefix's hysteresis across windows.
type attackState struct {
	below     int // consecutive observed windows under threshold
	active    bool
	onsetTs   int64
	lastShare float64
	lastBytes int64
}

// Watcher turns per-window HHH sets into attack onset/offset events with
// hysteresis. Feed it one ObserveWindow call per sampled window (the
// server samples once per closed window; tests replay scenario traces);
// it emits an onset the first window a prefix's conditioned share reaches
// the threshold (hit-and-run pulses can be shorter than two windows) and
// the matching offset after the share stays below for HoldOff windows.
// The hierarchy root is never a candidate: it absorbs every byte the
// detector could not attribute below it — on the repository's traces
// 35–50% of window mass in every scenario — so it is no attack evidence.
// Events land in a fixed-capacity ring (newest win) and, optionally, a
// synchronous OnEvent callback.
//
// Watcher is safe for concurrent use, though the intended shape is a
// single sampling goroutine with concurrent readers (Events, Active,
// scrapes of the registered gauges).
type Watcher struct {
	cfg WatcherConfig

	mu     sync.Mutex
	states map[addr.Prefix]*attackState
	seq    int64
	ring   []Event
	next   int   // ring slot the next event lands in
	total  int64 // events ever emitted
	onsets int64
	offs   int64
}

// NewWatcher builds a watcher; zero-value config fields pick defaults.
func NewWatcher(cfg WatcherConfig) *Watcher {
	cfg = cfg.withDefaults()
	return &Watcher{
		cfg:    cfg,
		states: make(map[addr.Prefix]*attackState),
		ring:   make([]Event, 0, eventCapacity),
	}
}

// ObserveWindow feeds one window's HHH set. endTs is the window's trace
// timestamp; windowBytes is the window's total byte mass (the share
// denominator) — when it is not positive, the summed conditioned volume
// of the set is used instead, so the watcher degrades gracefully when
// the caller has no mass accounting.
func (w *Watcher) ObserveWindow(endTs int64, set hhh.Set, windowBytes int64) {
	if windowBytes <= 0 {
		for _, it := range set {
			windowBytes += it.Conditioned
		}
		if windowBytes <= 0 {
			windowBytes = 1
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for p, it := range set {
		share, hot := w.cfg.hot(p, it, windowBytes)
		if !hot {
			continue
		}
		st := w.states[p]
		if st == nil {
			st = &attackState{}
			w.states[p] = st
		}
		st.below = 0
		st.lastShare = share
		st.lastBytes = it.Conditioned
		if !st.active {
			st.active = true
			st.onsetTs = endTs
			w.emit(Event{
				Type: EventOnset, Prefix: p.String(), Level: int(p.FamilyBits()),
				TraceTimeNs: endTs, Share: share, Bytes: it.Conditioned,
			})
		}
	}
	// Every tracked prefix that did not hold the threshold this window
	// cools down; cold inactive entries are dropped so the state map stays
	// bounded by the number of concurrently hot prefixes.
	for p, st := range w.states {
		if it, ok := set[p]; ok {
			if _, hot := w.cfg.hot(p, it, windowBytes); hot {
				continue
			}
		}
		st.below++
		if st.active && st.below >= w.cfg.HoldOff {
			st.active = false
			w.emit(Event{
				Type: EventOffset, Prefix: p.String(), Level: int(p.FamilyBits()),
				TraceTimeNs: endTs, Share: st.lastShare, Bytes: st.lastBytes,
				DurationNs: endTs - st.onsetTs,
			})
		}
		if !st.active && st.below >= w.cfg.HoldOff {
			delete(w.states, p)
		}
	}
}

// hot returns p's share of windowBytes and whether it holds the threshold.
func (c WatcherConfig) hot(p addr.Prefix, it hhh.Item, windowBytes int64) (share float64, ok bool) {
	share = float64(it.Conditioned) / float64(windowBytes)
	return share, p.FamilyBits() != 0 && share >= c.Threshold && it.Conditioned >= c.MinBytes
}

// emit appends to the ring and fires the callback. Caller holds w.mu.
func (w *Watcher) emit(e Event) {
	w.seq++
	e.Seq = w.seq
	if len(w.ring) < eventCapacity {
		w.ring = append(w.ring, e)
	} else {
		w.ring[w.next] = e
	}
	w.next = (w.next + 1) % eventCapacity
	w.total++
	if e.Type == EventOnset {
		w.onsets++
	} else {
		w.offs++
	}
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(e)
	}
}

// Events returns the retained events oldest-first (at most eventCapacity;
// the ring overwrites the oldest once full).
func (w *Watcher) Events() []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ring) < eventCapacity {
		// Ring not yet full: the slice itself is oldest-first.
		return append([]Event(nil), w.ring...)
	}
	out := make([]Event, 0, len(w.ring))
	out = append(out, w.ring[w.next:]...)
	return append(out, w.ring[:w.next]...)
}

// Active returns the number of currently active attack episodes.
func (w *Watcher) Active() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, st := range w.states {
		if st.active {
			n++
		}
	}
	return n
}

// Counts returns cumulative (onsets, offsets) emitted.
func (w *Watcher) Counts() (onsets, offsets int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.onsets, w.offs
}

// Register exposes the watcher on r: hhh_attacks_active,
// hhh_attack_onsets_total, hhh_attack_offsets_total and
// hhh_attack_events_total, all function-backed reads of watcher state.
func (w *Watcher) Register(r *Registry) {
	r.GaugeFunc("hhh_attacks_active",
		"Attack episodes currently between onset and offset.",
		func() float64 { return float64(w.Active()) })
	r.CounterFunc("hhh_attack_onsets_total",
		"Attack onset events emitted by the onset/offset watcher.",
		func() int64 { o, _ := w.Counts(); return o })
	r.CounterFunc("hhh_attack_offsets_total",
		"Attack offset events emitted by the onset/offset watcher.",
		func() int64 { _, f := w.Counts(); return f })
	r.CounterFunc("hhh_attack_events_total",
		"Total attack lifecycle events emitted (onsets plus offsets).",
		func() int64 { o, f := w.Counts(); return o + f })
}
