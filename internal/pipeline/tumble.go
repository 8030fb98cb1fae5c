package pipeline

import (
	"sort"

	"hiddenhhh/internal/trace"
)

// tumbler is the disjoint-window clock both drivers run on: windows are
// aligned to multiples of width, the first one being the window that
// contains the first packet, and every window that ends at or before the
// stream's current time is closed, in order, through the close callback.
// A zero width disables it — the sliding and continuous models have no
// boundaries — so the drivers call it unconditionally.
type tumbler struct {
	width int64
	// close publishes window [start, end); empty reports that no packet
	// was marked into it, so the summaries hold nothing to query or reset.
	close func(start, end int64, empty bool)

	started bool
	curEnd  int64 // end of the open window
	hasData bool  // the open window has absorbed a packet; set by the driver
}

// at moves the clock to a packet timestamp: it opens the first window on
// the first call and closes every window due before ts. The anchor uses
// floored division, so pre-epoch timestamps tile like any others.
func (t *tumbler) at(ts int64) {
	if t.width == 0 {
		return
	}
	if !t.started {
		t.started = true
		t.curEnd = (trace.FloorDiv(ts, t.width) + 1) * t.width
	}
	t.closeDue(ts)
}

// closeDue closes every window ending at or before now. Before the first
// packet there is no window to close.
func (t *tumbler) closeDue(now int64) {
	for t.started && now >= t.curEnd {
		end, empty := t.curEnd, !t.hasData
		t.curEnd += t.width
		t.hasData = false
		t.close(end-t.width, end, empty)
	}
}

// next moves the clock to the head of a time-ordered run and returns the
// length of the run's prefix that falls inside the open window — the
// whole run when there are no boundaries.
func (t *tumbler) next(pkts []trace.Packet) int {
	if t.width == 0 {
		return len(pkts)
	}
	t.at(pkts[0].Ts)
	return sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= t.curEnd })
}
