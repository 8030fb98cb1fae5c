package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"hiddenhhh/internal/addr"
)

// Binary trace format.
//
// A trace file is a 16-byte header followed by fixed-width records:
//
//	header:     magic "HHHT" | u16 version | u16 reserved | u64 packet
//	            count (0 if unknown)
//	v2 record:  i64 ts | 16B src | 16B dst | u16 sport | u16 dport |
//	            u8 proto | u8 pad | u32 size             (50 bytes)
//	v1 record:  i64 ts | u32 src | u32 dst | u16 sport | u16 dport |
//	            u8 proto | u8 pad | u32 size             (26 bytes)
//
// Scalar fields are little-endian; the version-2 addresses are the
// 16-byte big-endian (network order) form of internal/addr, so records
// are greppable against tcpdump-style output. Version 1 is the legacy
// IPv4-only layout; readers accept it (addresses surface IPv4-mapped)
// and writers always produce version 2. The fixed layout keeps readers
// allocation-free and makes record N seekable at offset 16 + recordSize*N.

const (
	formatMagic     = "HHHT"
	formatVersion   = 2
	formatVersionV1 = 1
	headerSize      = 16
	recordSize      = 50
	recordSizeV1    = 26
)

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// Writer streams packets into the binary trace format (always the current
// version 2). Close flushes buffers and backpatches the packet count when
// the underlying stream is seekable.
type Writer struct {
	w     *bufio.Writer
	raw   io.Writer
	count uint64
	buf   [recordSize]byte
}

// NewWriter writes a trace header to w and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16), raw: w}
	var hdr [headerSize]byte
	copy(hdr[:4], formatMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], 0)
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

// Write appends one packet record.
func (tw *Writer) Write(p *Packet) error {
	b := tw.buf[:]
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.Ts))
	src, dst := p.Src.As16(), p.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	binary.LittleEndian.PutUint16(b[40:42], p.SrcPort)
	binary.LittleEndian.PutUint16(b[42:44], p.DstPort)
	b[44] = p.Proto
	b[45] = 0
	binary.LittleEndian.PutUint32(b[46:50], p.Size)
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Close flushes the writer and, if the underlying stream supports seeking,
// backpatches the packet count into the header.
func (tw *Writer) Close() error {
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	if s, ok := tw.raw.(io.WriteSeeker); ok {
		if _, err := s.Seek(8, io.SeekStart); err != nil {
			return fmt.Errorf("trace: seek for count backpatch: %w", err)
		}
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], tw.count)
		if _, err := s.Write(cnt[:]); err != nil {
			return fmt.Errorf("trace: count backpatch: %w", err)
		}
		if _, err := s.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("trace: seek to end: %w", err)
		}
	}
	return nil
}

// readWindow is the size of the Reader's decode window: the read-ahead
// one underlying Read may deliver, a little over 1300 records.
const readWindow = 1 << 16

// Reader streams packets from the binary trace format, either version. It
// implements Source.
//
// The Reader owns one window of readWindow bytes. Records are decoded
// where they lie in it — no per-record copy — and the window is refilled
// from the underlying stream only when less than one record remains, the
// partial tail moving to the front first.
type Reader struct {
	src     io.Reader
	version uint16
	recSize int    // record width of version
	count   uint64 // declared in header; 0 means unknown
	read    uint64
	// win[r:w] is read from src and not yet decoded.
	win  []byte
	r, w int
	// err is a read error that arrived together with data (or after 100
	// empty reads); it surfaces once the window runs short of a record.
	err error
}

// NewReader validates the header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, win: make([]byte, readWindow)}
	if err := tr.fill(headerSize); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	hdr := tr.win[:headerSize]
	tr.r = headerSize
	if string(hdr[:4]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	tr.version = binary.LittleEndian.Uint16(hdr[4:6])
	switch tr.version {
	case formatVersion:
		tr.recSize = recordSize
	case formatVersionV1:
		tr.recSize = recordSizeV1
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, tr.version)
	}
	tr.count = binary.LittleEndian.Uint64(hdr[8:16])
	return tr, nil
}

// Version returns the format version declared by the file header (1 or 2).
func (tr *Reader) Version() uint16 { return tr.version }

// DeclaredCount returns the packet count recorded in the header, or 0 when
// the producer could not backpatch it (non-seekable output).
func (tr *Reader) DeclaredCount() uint64 { return tr.count }

// fill reads from src until the window holds at least n undecoded bytes.
// It fails the way io.ReadFull over a bufio.Reader does: io.EOF when the
// stream ends with nothing undecoded, io.ErrUnexpectedEOF when it ends
// inside the n bytes, io.ErrNoProgress after 100 reads in a row that
// return neither data nor an error, and otherwise the stream's own error
// — in every failing case the partial bytes are consumed. Data that
// arrives together with an error is delivered first.
func (tr *Reader) fill(n int) error {
	tr.w = copy(tr.win, tr.win[tr.r:tr.w])
	tr.r = 0
	for empty := 0; tr.w < n; {
		if err := tr.err; err != nil {
			if errors.Is(err, io.EOF) {
				err = io.EOF
				if tr.w > 0 {
					err = io.ErrUnexpectedEOF
				}
			}
			tr.w, tr.err = 0, nil
			return err
		}
		var m int
		m, tr.err = tr.src.Read(tr.win[tr.w:])
		tr.w += m
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 && tr.err == nil {
			tr.err = io.ErrNoProgress
		}
	}
	return nil
}

// Next implements Source. It returns io.EOF only when the stream ends on
// a record boundary; a partial final record, or any read error, is
// ErrBadFormat naming the record that could not be completed.
func (tr *Reader) Next(p *Packet) error {
	if tr.w-tr.r < tr.recSize {
		if err := tr.fill(tr.recSize); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("%w: truncated record %d: %v", ErrBadFormat, tr.read, err)
		}
	}
	b := tr.win[tr.r:tr.w]
	if tr.version == formatVersionV1 {
		// Legacy 26-byte IPv4 record; addresses surface IPv4-mapped.
		b = b[:recordSizeV1]
		p.Ts = int64(binary.LittleEndian.Uint64(b[0:8]))
		p.Src = addr.From4Uint32(binary.LittleEndian.Uint32(b[8:12]))
		p.Dst = addr.From4Uint32(binary.LittleEndian.Uint32(b[12:16]))
		p.SrcPort = binary.LittleEndian.Uint16(b[16:18])
		p.DstPort = binary.LittleEndian.Uint16(b[18:20])
		p.Proto = b[20]
		p.Size = binary.LittleEndian.Uint32(b[22:26])
	} else {
		b = b[:recordSize]
		p.Ts = int64(binary.LittleEndian.Uint64(b[0:8]))
		p.Src = addr.FromParts(binary.BigEndian.Uint64(b[8:16]), binary.BigEndian.Uint64(b[16:24]))
		p.Dst = addr.FromParts(binary.BigEndian.Uint64(b[24:32]), binary.BigEndian.Uint64(b[32:40]))
		p.SrcPort = binary.LittleEndian.Uint16(b[40:42])
		p.DstPort = binary.LittleEndian.Uint16(b[42:44])
		p.Proto = b[44]
		p.Size = binary.LittleEndian.Uint32(b[46:50])
	}
	tr.r += tr.recSize
	tr.read++
	return nil
}

// WriteFile stores pkts at path in the binary trace format.
func WriteFile(path string, pkts []Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tw, err := NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := range pkts {
		if err := tw.Write(&pkts[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxCountHint caps the allocation hint taken from a file's declared
// packet count: the header field is attacker-controlled input, and a
// corrupt or hostile file declaring 2^60 records must not translate into
// a 2^60-capacity allocation before a single record is read. Reads
// beyond the hint just grow the slice normally.
const maxCountHint = 1 << 20

// ReadFile loads the whole trace at path into memory.
func ReadFile(path string) ([]Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	tr, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	hint := tr.DeclaredCount()
	if hint > maxCountHint {
		hint = maxCountHint
	}
	return Collect(tr, int(hint))
}
