package trace

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// cutRead is one read of a Cutter: the instant and how many packets had
// been observed by then.
type cutRead struct {
	at   int64
	seen int
}

// cutLog records what a Cutter observes and reads.
type cutLog struct {
	seen  []int64
	reads []cutRead
}

func (l *cutLog) observe(pkts []Packet) {
	for _, p := range pkts {
		l.seen = append(l.seen, p.Ts)
	}
}

func (l *cutLog) read(at int64) { l.reads = append(l.reads, cutRead{at, len(l.seen)}) }

// feed runs one Cutter of step over stamps, split into calls at cuts.
func feed(step int64, stamps []int64, cuts ...int) cutLog {
	pkts := make([]Packet, len(stamps))
	for i, ts := range stamps {
		pkts[i].Ts = ts
	}
	var l cutLog
	c := Cutter{Step: step}
	from := 0
	for _, to := range append(cuts, len(pkts)) {
		c.Feed(pkts[from:to], l.observe, l.read)
		from = to
	}
	return l
}

// TestCutterCutsAtTheTick: each instant is read with the packets stamped
// at or before it — one stamped exactly at the instant in, one a
// nanosecond after it out — and only once a later packet shows it has
// passed.
func TestCutterCutsAtTheTick(t *testing.T) {
	sec := int64(time.Second)
	l := feed(sec, []int64{sec / 2, sec, sec + 1, 2*sec + 1, 3*sec + sec/2})
	want := []cutRead{{sec, 2}, {2 * sec, 3}, {3 * sec, 4}}
	if !slices.Equal(l.reads, want) {
		t.Fatalf("reads %v, want %v (no packet follows 4 s)", l.reads, want)
	}
}

// TestCutterBeforeTheEpoch: the first instant is the first multiple of the
// step after the first stamp by floored division, so a pre-epoch stream
// tiles like any other (truncation would start at 0 and skip -1 s).
func TestCutterBeforeTheEpoch(t *testing.T) {
	sec := int64(time.Second)
	l := feed(sec, []int64{-3 * sec / 2, -sec / 5, 0, sec / 3, sec + 1})
	want := []cutRead{{-sec, 1}, {0, 3}, {sec, 4}}
	if !slices.Equal(l.reads, want) {
		t.Fatalf("reads %v, want %v", l.reads, want)
	}
}

// TestCutterReadsEveryInstantOfAGap: a gap spanning several instants reads
// each of them once, with nothing new observed between.
func TestCutterReadsEveryInstantOfAGap(t *testing.T) {
	sec := int64(time.Second)
	l := feed(sec, []int64{sec / 2, 4*sec + sec/2})
	want := []cutRead{{sec, 1}, {2 * sec, 1}, {3 * sec, 1}, {4 * sec, 1}}
	if !slices.Equal(l.reads, want) {
		t.Fatalf("reads %v, want %v", l.reads, want)
	}
	if len(l.seen) != 2 {
		t.Fatalf("observed %d packets, want 2", len(l.seen))
	}
}

// TestCutterSplitInvariance: a stream split into two or three Feed calls
// at every index observes the same packets and reads the same instants,
// at the same points, as one call.
func TestCutterSplitInvariance(t *testing.T) {
	const step = 100
	rng := rand.New(rand.NewSource(3))
	stamps := make([]int64, 40)
	ts := int64(-250)
	for i := range stamps {
		ts += rng.Int63n(3) * rng.Int63n(90) // runs of equal stamps, gaps of several steps
		stamps[i] = ts
	}
	stamps[7] = stamps[6] + step - stamps[6]%step // one exactly at an instant
	for i := 8; i < len(stamps); i++ {
		stamps[i] = max(stamps[i], stamps[i-1])
	}
	one := feed(step, stamps)
	if len(one.reads) < 5 {
		t.Fatalf("only %d reads: the stream does not exercise the cutter", len(one.reads))
	}
	check := func(cuts ...int) {
		got := feed(step, stamps, cuts...)
		if !slices.Equal(got.seen, one.seen) || !slices.Equal(got.reads, one.reads) {
			t.Fatalf("split at %v: observed %v reads %v, want %v reads %v",
				cuts, got.seen, got.reads, one.seen, one.reads)
		}
	}
	for i := 0; i <= len(stamps); i++ {
		check(i)
		for j := i; j <= len(stamps); j++ {
			check(i, j)
		}
	}
}
