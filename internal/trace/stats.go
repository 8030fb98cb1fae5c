package trace

import (
	"fmt"
	"time"

	"hiddenhhh/internal/addr"
)

// Stats summarises a trace: the sanity numbers printed by cmd/tracegen and
// checked by the experiment preflight.
type Stats struct {
	// Packets is the record count; Bytes the summed wire lengths.
	Packets int
	Bytes   int64
	// FirstTs and LastTs are the first and last record timestamps (ns).
	FirstTs int64
	LastTs  int64
	// DistinctSrc and DistinctDst count distinct addresses seen on each
	// side, both families combined.
	DistinctSrc int
	DistinctDst int
	// V4Packets and V6Packets split the record count by source address
	// family — the dual-stack sanity number.
	V4Packets int
	V6Packets int
	// ProtoPackets counts records per IP protocol number.
	ProtoPackets map[uint8]int
	// MinSize and MaxSize bound the observed wire lengths.
	MinSize uint32
	MaxSize uint32
}

// Duration is the time span covered by the trace.
func (s Stats) Duration() time.Duration {
	if s.Packets == 0 {
		return 0
	}
	return time.Duration(s.LastTs - s.FirstTs)
}

// PacketRate is the average packets/second over the trace span.
func (s Stats) PacketRate() float64 {
	d := s.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.Packets) / d
}

// BitRate is the average bits/second over the trace span.
func (s Stats) BitRate() float64 {
	d := s.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / d
}

// String renders a one-paragraph human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"packets=%d (v4=%d v6=%d) bytes=%d duration=%v pps=%.0f bps=%.3g srcs=%d dsts=%d sizes=[%d,%d]",
		s.Packets, s.V4Packets, s.V6Packets, s.Bytes,
		s.Duration().Round(time.Millisecond),
		s.PacketRate(), s.BitRate(), s.DistinctSrc, s.DistinctDst,
		s.MinSize, s.MaxSize)
}

// ComputeStats makes a full pass over pkts and accumulates Stats.
func ComputeStats(pkts []Packet) Stats {
	s := Stats{Packets: len(pkts), ProtoPackets: map[uint8]int{}}
	if len(pkts) == 0 {
		return s
	}
	s.FirstTs, s.LastTs, s.MinSize = pkts[0].Ts, pkts[len(pkts)-1].Ts, ^uint32(0)
	srcs := map[addr.Addr]struct{}{}
	dsts := map[addr.Addr]struct{}{}
	for i := range pkts {
		p := &pkts[i]
		if p.Src.Is4() {
			s.V4Packets++
		} else {
			s.V6Packets++
		}
		s.Bytes += int64(p.Size)
		s.ProtoPackets[p.Proto]++
		srcs[p.Src] = struct{}{}
		dsts[p.Dst] = struct{}{}
		s.MinSize = min(s.MinSize, p.Size)
		s.MaxSize = max(s.MaxSize, p.Size)
	}
	s.DistinctSrc = len(srcs)
	s.DistinctDst = len(dsts)
	return s
}
