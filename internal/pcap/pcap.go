// Package pcap reads and writes libpcap capture files well enough to
// exchange traces with standard tools (tcpdump, Wireshark, CAIDA-style
// captures). It decodes Ethernet/IPv4|IPv6/TCP|UDP|ICMP headers into the
// repository's trace.Packet records and can synthesise minimal but valid
// captures from them.
//
// Supported on read: both byte orders, microsecond and nanosecond
// timestamp variants, LINKTYPE_ETHERNET (1) and LINKTYPE_RAW (101), and
// both IP families — EtherType 0x0800 (IPv4) and 0x86DD (IPv6), with a
// bounded IPv6 extension-header walk to find the transport protocol.
// Packets that are neither (ARP, MPLS, ...) are skipped and counted.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// Link types supported.
const (
	// LinkEthernet is LINKTYPE_ETHERNET (Ethernet II frames).
	LinkEthernet = 1
	// LinkRaw is LINKTYPE_RAW (bare IP packets, either family).
	LinkRaw = 101
)

const (
	magicUsecBE = 0xa1b2c3d4
	magicUsecLE = 0xd4c3b2a1
	magicNsecBE = 0xa1b23c4d
	magicNsecLE = 0x4d3cb2a1
)

// EtherTypes decoded from Ethernet frames.
const (
	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86dd
)

// maxCapLen is the hard per-record captured-length ceiling, past any
// snaplen the header declares: comfortably above the largest snaplen
// real capture tools write (tcpdump's default is 262144) while keeping
// the per-record allocation bounded on corrupt input.
const maxCapLen = 1 << 19

// ErrBadCapture reports a malformed pcap stream.
var ErrBadCapture = errors.New("pcap: bad capture")

// Reader streams trace.Packets from a pcap capture. It implements
// trace.Source.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nano    bool
	link    uint32
	snaplen uint32
	skipped int64
	buf     []byte
}

// NewReader parses the global header of a pcap stream.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var hdr [24]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short global header: %v", ErrBadCapture, err)
	}
	magic := binary.BigEndian.Uint32(hdr[0:4])
	switch magic {
	case magicUsecBE:
		pr.order, pr.nano = binary.BigEndian, false
	case magicNsecBE:
		pr.order, pr.nano = binary.BigEndian, true
	case magicUsecLE:
		pr.order, pr.nano = binary.LittleEndian, false
	case magicNsecLE:
		pr.order, pr.nano = binary.LittleEndian, true
	default:
		return nil, fmt.Errorf("%w: unknown magic %08x", ErrBadCapture, magic)
	}
	major := pr.order.Uint16(hdr[4:6])
	if major != 2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCapture, major)
	}
	pr.snaplen = pr.order.Uint32(hdr[16:20])
	pr.link = pr.order.Uint32(hdr[20:24])
	if pr.link != LinkEthernet && pr.link != LinkRaw {
		return nil, fmt.Errorf("%w: unsupported link type %d", ErrBadCapture, pr.link)
	}
	pr.buf = make([]byte, 0, 2048)
	return pr, nil
}

// LinkType returns the capture's link-layer type.
func (pr *Reader) LinkType() uint32 { return pr.link }

// Skipped returns how many records were skipped as neither IPv4 nor
// IPv6 (or as undecodable).
func (pr *Reader) Skipped() int64 { return pr.skipped }

// Next implements trace.Source, decoding the next IP packet of either
// family.
func (pr *Reader) Next(p *trace.Packet) error {
	var rec [16]byte
	for {
		if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return io.EOF
			}
			return fmt.Errorf("%w: short record header: %v", ErrBadCapture, err)
		}
		sec := pr.order.Uint32(rec[0:4])
		sub := pr.order.Uint32(rec[4:8])
		caplen := pr.order.Uint32(rec[8:12])
		wirelen := pr.order.Uint32(rec[12:16])
		// Two bounds: a sanity check against the declared snaplen (in
		// uint64 so a hostile snaplen near 2^32 cannot wrap the sum), and
		// a hard ceiling independent of the header — caplen sizes an
		// allocation, and a corrupt file must not turn one record header
		// into a multi-gigabyte buffer.
		if uint64(caplen) > uint64(pr.snaplen)+65535 || caplen > maxCapLen {
			return fmt.Errorf("%w: caplen %d implausible", ErrBadCapture, caplen)
		}
		if cap(pr.buf) < int(caplen) {
			pr.buf = make([]byte, caplen)
		}
		data := pr.buf[:caplen]
		if _, err := io.ReadFull(pr.r, data); err != nil {
			return fmt.Errorf("%w: truncated packet data: %v", ErrBadCapture, err)
		}
		ts := int64(sec) * int64(1e9)
		if pr.nano {
			ts += int64(sub)
		} else {
			ts += int64(sub) * 1000
		}
		ip := data
		isV6 := false
		if pr.link == LinkEthernet {
			if len(data) < 14 {
				pr.skipped++
				continue
			}
			switch binary.BigEndian.Uint16(data[12:14]) {
			case etherTypeIPv4:
			case etherTypeIPv6:
				isV6 = true
			default: // ARP, MPLS, ...
				pr.skipped++
				continue
			}
			ip = data[14:]
		} else if len(ip) > 0 && ip[0]>>4 == 6 {
			// LINKTYPE_RAW carries bare IP; the version nibble decides.
			isV6 = true
		}
		ok := false
		if isV6 {
			ok = decodeIPv6(ip, p)
		} else {
			ok = decodeIPv4(ip, p)
		}
		if !ok {
			pr.skipped++
			continue
		}
		p.Ts = ts
		p.Size = wirelen
		return nil
	}
}

// decodeIPv4 fills p's address/port/proto fields from an IPv4 header.
func decodeIPv4(b []byte, p *trace.Packet) bool {
	if len(b) < 20 || b[0]>>4 != 4 {
		return false
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		return false
	}
	p.Proto = b[9]
	p.Src = addr.From4Uint32(binary.BigEndian.Uint32(b[12:16]))
	p.Dst = addr.From4Uint32(binary.BigEndian.Uint32(b[16:20]))
	p.SrcPort, p.DstPort = 0, 0
	if p.Proto == trace.ProtoTCP || p.Proto == trace.ProtoUDP {
		if len(b) >= ihl+4 {
			p.SrcPort = binary.BigEndian.Uint16(b[ihl : ihl+2])
			p.DstPort = binary.BigEndian.Uint16(b[ihl+2 : ihl+4])
		}
	}
	return true
}

// maxExtHeaders bounds the IPv6 extension-header walk: real stacks chain
// at most a handful, and a hostile capture must not send the decoder on
// a long crafted chain.
const maxExtHeaders = 8

// decodeIPv6 fills p's address/port/proto fields from an IPv6 header,
// walking the common extension headers (hop-by-hop, routing,
// destination options, fragment) to the transport protocol.
func decodeIPv6(b []byte, p *trace.Packet) bool {
	if len(b) < 40 || b[0]>>4 != 6 {
		return false
	}
	next := b[6]
	p.Src = addr.From16([16]byte(b[8:24]))
	p.Dst = addr.From16([16]byte(b[24:40]))
	p.SrcPort, p.DstPort = 0, 0
	rest := b[40:]
	for hop := 0; hop < maxExtHeaders; hop++ {
		switch next {
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if len(rest) < 8 {
				p.Proto = next
				return true // truncated capture: keep the addresses
			}
			l := 8 + int(rest[1])*8
			if len(rest) < l {
				p.Proto = next
				return true
			}
			next = rest[0]
			rest = rest[l:]
		case 44: // fragment: fixed 8 bytes; ports only in the first fragment
			if len(rest) < 8 {
				p.Proto = next
				return true
			}
			frag := rest
			next = frag[0]
			if binary.BigEndian.Uint16(frag[2:4])&0xfff8 != 0 {
				// Non-first fragment: no transport header follows.
				p.Proto = next
				return true
			}
			rest = rest[8:]
		default:
			p.Proto = next
			if next == trace.ProtoTCP || next == trace.ProtoUDP {
				if len(rest) >= 4 {
					p.SrcPort = binary.BigEndian.Uint16(rest[0:2])
					p.DstPort = binary.BigEndian.Uint16(rest[2:4])
				}
			}
			return true
		}
	}
	p.Proto = next
	return true
}

// Writer emits trace.Packets as a little-endian, nanosecond-resolution
// Ethernet pcap capture with synthesised headers. A packet whose
// addresses are both IPv4-mapped produces an EtherType 0x0800 frame;
// anything else produces a 0x86DD frame — IPv4-mapped addresses are
// exactly representable in an IPv6 header (they decode back to their
// mapped form), so even mixed-family records round-trip losslessly.
type Writer struct {
	w     *bufio.Writer
	count int64
}

// NewWriter writes the global header.
func NewWriter(w io.Writer) (*Writer, error) {
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNsecBE) // LE stream: reads back as nsec LE
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkEthernet)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing header: %w", err)
	}
	return pw, nil
}

// l4Size returns the synthesised transport-header length for a protocol.
func l4Size(proto uint8) int {
	switch proto {
	case trace.ProtoTCP:
		return 20
	case trace.ProtoUDP, trace.ProtoICMP, trace.ProtoICMPv6:
		return 8
	}
	return 0
}

// Write appends one packet: it synthesises Ethernet+IP(+L4) headers for
// the packet (frame family per the Writer doc). The captured length
// covers headers only (plus enough payload bytes to honour tiny sizes);
// the wire length preserves p.Size.
func (pw *Writer) Write(p *trace.Packet) error {
	if p.Src.Is4() && p.Dst.Is4() {
		return pw.writeV4(p)
	}
	return pw.writeV6(p)
}

// writeRecordHeader emits the per-record pcap header for a frame of
// capLen captured bytes and at least capLen wire bytes.
func (pw *Writer) writeRecordHeader(p *trace.Packet, capLen int) (wire int, err error) {
	wire = int(p.Size)
	if wire < capLen {
		wire = capLen
	}
	var rec [16]byte
	sec := p.Ts / 1e9
	nsec := p.Ts % 1e9
	binary.LittleEndian.PutUint32(rec[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(nsec))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(wire))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return 0, fmt.Errorf("pcap: record header: %w", err)
	}
	return wire, nil
}

// writeEthernet fills the synthetic Ethernet header into frame.
func writeEthernet(frame []byte, etherType uint16) {
	copy(frame[0:6], []byte{0x02, 0, 0, 0, 0, 2})
	copy(frame[6:12], []byte{0x02, 0, 0, 0, 0, 1})
	binary.BigEndian.PutUint16(frame[12:14], etherType)
}

// writeL4 fills the synthetic transport header into l4b.
func writeL4(l4b []byte, p *trace.Packet, payloadLen int) {
	switch p.Proto {
	case trace.ProtoTCP:
		binary.BigEndian.PutUint16(l4b[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(l4b[2:4], p.DstPort)
		l4b[12] = 5 << 4 // data offset
	case trace.ProtoUDP:
		binary.BigEndian.PutUint16(l4b[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(l4b[2:4], p.DstPort)
		if payloadLen > 65535 {
			payloadLen = 65535
		}
		binary.BigEndian.PutUint16(l4b[4:6], uint16(payloadLen))
	case trace.ProtoICMP:
		l4b[0] = 8 // echo request
	case trace.ProtoICMPv6:
		l4b[0] = 128 // echo request
	}
}

// writeV4 synthesises an Ethernet+IPv4(+L4) frame.
func (pw *Writer) writeV4(p *trace.Packet) error {
	l4 := l4Size(p.Proto)
	capLen := 14 + 20 + l4
	wire, err := pw.writeRecordHeader(p, capLen)
	if err != nil {
		return err
	}
	var frame [14 + 20 + 20]byte
	writeEthernet(frame[:], etherTypeIPv4)
	// IPv4 header.
	ip := frame[14:]
	ip[0] = 0x45
	totalLen := wire - 14
	if totalLen > 65535 {
		totalLen = 65535
	}
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[8] = 64
	ip[9] = p.Proto
	binary.BigEndian.PutUint32(ip[12:16], p.Src.V4())
	binary.BigEndian.PutUint32(ip[16:20], p.Dst.V4())
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:20]))
	writeL4(ip[20:], p, totalLen-20)
	if _, err := pw.w.Write(frame[:capLen]); err != nil {
		return fmt.Errorf("pcap: frame: %w", err)
	}
	pw.count++
	return nil
}

// writeV6 synthesises an Ethernet+IPv6(+L4) frame.
func (pw *Writer) writeV6(p *trace.Packet) error {
	l4 := l4Size(p.Proto)
	capLen := 14 + 40 + l4
	wire, err := pw.writeRecordHeader(p, capLen)
	if err != nil {
		return err
	}
	var frame [14 + 40 + 20]byte
	writeEthernet(frame[:], etherTypeIPv6)
	// IPv6 header: version/class/flow, payload length, next header, hops.
	ip := frame[14:]
	ip[0] = 0x60
	payload := wire - 14 - 40
	if payload > 65535 {
		payload = 65535
	}
	binary.BigEndian.PutUint16(ip[4:6], uint16(payload))
	ip[6] = p.Proto
	ip[7] = 64
	src, dst := p.Src.As16(), p.Dst.As16()
	copy(ip[8:24], src[:])
	copy(ip[24:40], dst[:])
	writeL4(ip[40:], p, payload)
	if _, err := pw.w.Write(frame[:capLen]); err != nil {
		return fmt.Errorf("pcap: frame: %w", err)
	}
	pw.count++
	return nil
}

// Count returns the number of packets written.
func (pw *Writer) Count() int64 { return pw.count }

// Close flushes buffered output.
func (pw *Writer) Close() error { return pw.w.Flush() }

// ipChecksum computes the IPv4 header checksum with the checksum field
// zeroed.
func ipChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		if i == 10 {
			continue // checksum field treated as zero
		}
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// WriteFile stores pkts at path as a pcap capture.
func WriteFile(path string, pkts []trace.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pcap: %w", err)
	}
	pw, err := NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := range pkts {
		if err := pw.Write(&pkts[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := pw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads every IP packet (either family) of the capture at path.
func ReadFile(path string) ([]trace.Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pcap: %w", err)
	}
	defer f.Close()
	pr, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	return trace.Collect(pr, 0)
}

// LoadTrace reads the stored trace at path: a capture when the name ends
// in .pcap, the binary trace format otherwise. An empty trace is an error,
// since there is nothing to tile windows over or replay.
func LoadTrace(path string) (pkts []trace.Packet, err error) {
	if strings.HasSuffix(path, ".pcap") {
		pkts, err = ReadFile(path)
	} else {
		pkts, err = trace.ReadFile(path)
	}
	if err == nil && len(pkts) == 0 {
		err = fmt.Errorf("trace %s is empty", path)
	}
	return pkts, err
}
