package trace

import (
	"encoding/binary"
	"math"
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

// maxReads caps a cutLog: a clock that wraps reads an instant per step
// across the whole int64 range, and a test of it must fail, not hang.
const maxReads = 1 << 12

// cutLog records what a Cutter observes — each packet by its index in the
// stream — and reads.
type cutLog struct {
	t     testing.TB
	seen  []int
	reads []cutRead
}

func (l *cutLog) observe(pkts []Packet) {
	for _, p := range pkts {
		l.seen = append(l.seen, int(p.Size))
	}
}

func (l *cutLog) read(at int64) {
	if len(l.reads) == maxReads {
		l.t.Fatalf("more than %d reads; the last at %d", maxReads, l.reads[len(l.reads)-1].at)
	}
	l.reads = append(l.reads, cutRead{at, len(l.seen)})
}

// feed runs one Cutter of step over stamps, split into calls at cuts.
func feed(t testing.TB, step int64, stamps []int64, cuts ...int) cutLog {
	pkts := make([]Packet, len(stamps))
	for i, ts := range stamps {
		pkts[i].Ts, pkts[i].Size = ts, uint32(i)
	}
	l := cutLog{t: t}
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
	l := feed(t, sec, []int64{sec / 2, sec, sec + 1, 2*sec + 1, 3*sec + sec/2})
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
	l := feed(t, sec, []int64{-3 * sec / 2, -sec / 5, 0, sec / 3, sec + 1})
	want := []cutRead{{-sec, 1}, {0, 3}, {sec, 4}}
	if !slices.Equal(l.reads, want) {
		t.Fatalf("reads %v, want %v", l.reads, want)
	}
}

// TestCutterReadsEveryInstantOfAGap: a gap spanning several instants reads
// each of them once, with nothing new observed between.
func TestCutterReadsEveryInstantOfAGap(t *testing.T) {
	sec := int64(time.Second)
	l := feed(t, sec, []int64{sec / 2, 4*sec + sec/2})
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
	one := feed(t, step, stamps)
	if len(one.reads) < 5 {
		t.Fatalf("only %d reads: the stream does not exercise the cutter", len(one.reads))
	}
	check := func(cuts ...int) {
		got := feed(t, step, stamps, cuts...)
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

// TestCutterAtTheEndOfTime: the instant after a stamp within one step of
// math.MaxInt64 lies past the end of int64 time. The clock stops there —
// every packet still observed, no instant read past the last multiple of
// the step — instead of wrapping to the start of time and reading an
// instant per step from there on.
func TestCutterAtTheEndOfTime(t *testing.T) {
	sec := int64(time.Second)
	last := math.MaxInt64 / sec * sec // the last multiple of the step
	cases := []struct {
		stamps []int64
		want   []cutRead
	}{
		{[]int64{math.MaxInt64 - sec/2, math.MaxInt64}, nil},
		{[]int64{last - 3*sec, last - sec/2, math.MaxInt64},
			[]cutRead{{last - 2*sec, 1}, {last - sec, 1}, {last, 2}}},
	}
	for _, c := range cases {
		l := feed(t, sec, c.stamps)
		if len(l.seen) != len(c.stamps) || !slices.Equal(l.reads, c.want) {
			t.Errorf("stamps %v: observed %d packets, reads %v; want %d and %v", c.stamps, len(l.seen), l.reads, len(c.stamps), c.want)
		}
	}
}

// FuzzCutter feeds a Cutter arbitrary time-ordered stamps, both ends of
// int64 among them, in one call and split into three at arbitrary points.
// Every packet must be observed once, in order, each read must come with
// the packets stamped at or before its instant observed and none after, the
// instants must strictly increase, every split must read what one call
// reads, and the reads must stay under maxReads: the step is raised until
// fewer instants than that lie between the first stamp and the last.
func FuzzCutter(f *testing.F) {
	stamps := func(ts ...int64) []byte {
		var b []byte
		for _, v := range ts {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	sec := int64(time.Second)
	f.Add(sec, stamps(math.MaxInt64-sec/2, math.MaxInt64), uint8(1), uint8(1))
	f.Add(sec, stamps(math.MinInt64, -1, 0, math.MaxInt64), uint8(1), uint8(3))
	f.Add(int64(100), stamps(-250, -50, 0, 100, 100, 101, 450), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, step int64, raw []byte, i, j uint8) {
		ts := make([]int64, min(len(raw)/8, 64))
		for k := range ts {
			ts[k] = int64(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		slices.Sort(ts)
		if len(ts) > 0 {
			span := uint64(ts[len(ts)-1]) - uint64(ts[0])
			step = max(step&math.MaxInt64, int64(span/(maxReads-1))+1)
		}
		step = max(step, 1)
		one := feed(t, step, ts)
		for k, idx := range one.seen {
			if idx != k {
				t.Fatalf("step %d, stamps %v: observed %v, want each packet once, in order", step, ts, one.seen)
			}
		}
		if len(one.seen) != len(ts) {
			t.Fatalf("step %d, stamps %v: observed %d packets, want %d", step, ts, len(one.seen), len(ts))
		}
		for k, r := range one.reads {
			if k > 0 && r.at <= one.reads[k-1].at {
				t.Fatalf("step %d, stamps %v: reads %v do not strictly increase", step, ts, one.reads)
			}
			if r.seen > 0 && ts[r.seen-1] > r.at || r.seen == len(ts) || ts[r.seen] <= r.at {
				t.Fatalf("step %d, stamps %v: read %v does not cut the stream at its instant", step, ts, r)
			}
		}
		cuts := []int{int(i) % (len(ts) + 1), int(j) % (len(ts) + 1)}
		slices.Sort(cuts)
		if got := feed(t, step, ts, cuts...); !slices.Equal(got.seen, one.seen) || !slices.Equal(got.reads, one.reads) {
			t.Fatalf("step %d, stamps %v split at %v: observed %v reads %v, want %v reads %v",
				step, ts, cuts, got.seen, got.reads, one.seen, one.reads)
		}
	})
}
