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

// ForEachBatch drains src through fn in runs of up to batchSize packets
// (default 512), reusing a single buffer for every run — the batch
// counterpart of ForEach for drivers feeding batch-ingest detectors. The
// slice passed to fn is only valid during the call.
func ForEachBatch(src Source, batchSize int, fn func(pkts []Packet) error) error {
	if batchSize <= 0 {
		batchSize = 512
	}
	buf := make([]Packet, batchSize)
	n := 0
	for {
		err := src.Next(&buf[n])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n++
		if n == len(buf) {
			if err := fn(buf); err != nil {
				return err
			}
			n = 0
		}
	}
	if n > 0 {
		return fn(buf[:n])
	}
	return nil
}

// ClipSource passes through packets with From <= Ts < To.
// Because sources are time-ordered it stops at the first packet past To.
type ClipSource struct {
	Src      Source
	From, To int64
	done     bool
}

// Next implements Source.
func (c *ClipSource) Next(p *Packet) error {
	if c.done {
		return io.EOF
	}
	for {
		if err := c.Src.Next(p); err != nil {
			c.done = true
			return err
		}
		if p.Ts >= c.To {
			c.done = true
			return io.EOF
		}
		if p.Ts >= c.From {
			return nil
		}
	}
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
