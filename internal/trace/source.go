package trace

import (
	"errors"
	"io"
	"sort"
)

// SliceSource replays an in-memory packet slice. The zero value is an empty
// stream. It is the workhorse of tests and of experiments that pass over
// the same trace several times.
type SliceSource struct {
	pkts []Packet
	pos  int
}

// NewSliceSource wraps pkts without copying; the caller must not mutate the
// slice while the source is in use.
func NewSliceSource(pkts []Packet) *SliceSource {
	return &SliceSource{pkts: pkts}
}

// Next implements Source.
func (s *SliceSource) Next(p *Packet) error {
	if s.pos >= len(s.pkts) {
		return io.EOF
	}
	*p = s.pkts[s.pos]
	s.pos++
	return nil
}

// Reset rewinds the source to the first packet.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of packets in the source.
func (s *SliceSource) Len() int { return len(s.pkts) }

// Collect drains src into a slice. sizeHint may be zero.
func Collect(src Source, sizeHint int) ([]Packet, error) {
	pkts := make([]Packet, 0, sizeHint)
	var p Packet
	for {
		err := src.Next(&p)
		if errors.Is(err, io.EOF) {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// ForEach applies fn to every packet of src. It stops early and returns
// fn's error if fn fails; io.EOF from the source is not an error.
func ForEach(src Source, fn func(*Packet) error) error {
	var p Packet
	for {
		err := src.Next(&p)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&p); err != nil {
			return err
		}
	}
}

// Cutter is the one report-instant rule: set Step, then Feed it a
// time-ordered stream in runs of any size. The instants are the multiples
// of Step after the first packet's stamp (floored, so pre-epoch stamps
// tile like any others). Each instant is read once, with every packet
// stamped at or before it observed and none after: a live reader learns
// that an instant has passed from the first packet after it, so an instant
// no packet follows is not read, and a gap spanning several is read once
// per instant. The clock carries across Feed calls, so where a stream is
// split into runs changes neither what is observed nor what is read.
type Cutter struct {
	Step    int64
	next    int64 // the next instant, once started
	started bool
}

// Feed passes pkts to observe in runs cut at the report instants and calls
// read(at) at each instant they show has passed.
func (c *Cutter) Feed(pkts []Packet, observe func([]Packet), read func(at int64)) {
	if len(pkts) > 0 && !c.started {
		c.next, c.started = (FloorDiv(pkts[0].Ts, c.Step)+1)*c.Step, true
	}
	for len(pkts) > 0 {
		due := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts > c.next })
		if due > 0 {
			observe(pkts[:due])
		}
		if pkts = pkts[due:]; len(pkts) > 0 {
			read(c.next)
			c.next += c.Step
		}
	}
}

// FloorDiv is the floored quotient a/b for b > 0. Frame indices and report
// instants must use floored division so that pre-epoch (negative)
// timestamps map to monotonically increasing frames; Go's native division
// truncates toward zero, which would fold the two nanosecond ranges
// (-b, 0) and [0, b) into one.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// IsSorted reports whether pkts is in non-decreasing timestamp order, the
// invariant every Source must provide.
func IsSorted(pkts []Packet) bool {
	return sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].Ts < pkts[j].Ts })
}

// SortByTime sorts pkts in place into non-decreasing timestamp order using
// a stable sort so equal-timestamp packets preserve generation order.
func SortByTime(pkts []Packet) {
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Ts < pkts[j].Ts })
}
