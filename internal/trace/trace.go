// Package trace defines the packet-record model shared by every component
// of the pipeline — generators, window engines, sketches, detectors — plus a
// compact binary on-disk trace format and stream utilities.
//
// A trace is a time-ordered sequence of Packet records. The experiments in
// the paper consume one-hour Tier-1 ISP captures; this package's format
// stores the handful of header fields those experiments need (timestamps,
// addresses, ports, protocol, wire length) at 50 bytes per packet instead
// of retaining full payloads. Addresses are the dual-stack 128-bit keys of
// internal/addr, so one record layout carries IPv4 (IPv4-mapped) and IPv6
// traffic alike; the reader also accepts the legacy IPv4-only version-1
// files earlier revisions wrote.
package trace

import "hiddenhhh/internal/addr"

// Packet is a single observed packet. Timestamps are nanoseconds since an
// arbitrary trace epoch; only differences matter to the algorithms. Size is
// the wire length in bytes, the quantity all byte-threshold experiments
// aggregate. Src and Dst are 128-bit dual-stack addresses (IPv4 is carried
// IPv4-mapped; see internal/addr).
type Packet struct {
	Ts      int64 // nanoseconds since trace epoch
	Src     addr.Addr
	Dst     addr.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Size    uint32
}

// Common IANA protocol numbers for synthesised traffic.
const (
	// ProtoICMP is IPv4 ICMP (protocol 1).
	ProtoICMP = 1
	// ProtoTCP is TCP (protocol 6).
	ProtoTCP = 6
	// ProtoUDP is UDP (protocol 17).
	ProtoUDP = 17
	// ProtoICMPv6 is ICMPv6 (protocol 58), the v6 counterpart of
	// ProtoICMP.
	ProtoICMPv6 = 58
)

// Source yields packets in non-decreasing timestamp order. Next returns
// io.EOF after the final packet. Implementations are not safe for
// concurrent use unless documented otherwise.
type Source interface {
	// Next fills *p with the next packet. It returns io.EOF at the end of
	// the stream, in which case *p is unspecified.
	Next(p *Packet) error
}
