package pipeline

import (
	"math"
	"sort"

	"hiddenhhh/internal/trace"
)

// tumbler is the disjoint-window clock both drivers run on: windows are
// aligned to multiples of width, the first one being the window that
// contains the first packet, and every window that ends at or before the
// stream's current time is closed, in order, through the close callback.
// Window ends saturate at math.MaxInt64, and the clock stops once the
// window that ends there has closed. A zero width disables it — the
// sliding and continuous models have no boundaries — so the drivers call
// it unconditionally.
type tumbler struct {
	width int64
	// close publishes window [start, end); empty reports that no packet
	// was marked into it, so the summaries hold nothing to query or reset.
	close func(start, end int64, empty bool)

	started bool
	curEnd  int64 // end of the open window
	hasData bool  // the open window has absorbed a packet; set by the driver
}

// closeDue closes every window ending at or before now. Before the first
// packet there is no window to close.
func (t *tumbler) closeDue(now int64) {
	for t.started && now >= t.curEnd {
		end, empty := t.curEnd, !t.hasData
		start := windowStart(end, t.width)
		t.curEnd, t.hasData = trace.EndAfter(end, t.width), false
		if end == math.MaxInt64 {
			t.started, t.width = false, 0 // the end of time: the clock stops
		}
		t.close(start, end, empty)
	}
}

// windowStart is the start of the window that ends at end: the last
// multiple of width before it, or math.MinInt64.
func windowStart(end, width int64) int64 {
	if end < math.MinInt64+width {
		return math.MinInt64
	}
	return trace.FloorDiv(end-1, width) * width
}

// next moves the clock to the head of a time-ordered run — opening the
// first window on the first call, closing every window due before the
// head — and returns the length of the run's prefix that falls inside the
// open window: the whole run when there are no boundaries. The anchor
// uses floored division, so pre-epoch timestamps tile like any others.
func (t *tumbler) next(pkts []trace.Packet) int {
	if t.width == 0 {
		return len(pkts)
	}
	ts := pkts[0].Ts
	if !t.started {
		t.started, t.curEnd = true, trace.EndAfter(ts, t.width)
	}
	t.closeDue(ts)
	return sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= t.curEnd })
}
