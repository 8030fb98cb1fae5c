package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"hiddenhhh/internal/addr"
)

// refReader is the reader this package shipped before the in-place
// window: bufio underneath, one io.ReadFull and one copy per record. It
// is kept here as the reference the differential tests hold Reader to.
type refReader struct {
	r       *bufio.Reader
	version uint16
	read    uint64
	buf     [recordSize]byte
}

func newRefReader(r io.Reader) (*refReader, error) {
	tr := &refReader{r: bufio.NewReaderSize(r, 1<<16)}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(hdr[:4]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	tr.version = binary.LittleEndian.Uint16(hdr[4:6])
	if tr.version != formatVersion && tr.version != formatVersionV1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, tr.version)
	}
	return tr, nil
}

func (tr *refReader) Next(p *Packet) error {
	size := recordSize
	if tr.version == formatVersionV1 {
		size = recordSizeV1
	}
	b := tr.buf[:size]
	if _, err := io.ReadFull(tr.r, b); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("%w: truncated record %d: %v", ErrBadFormat, tr.read, err)
	}
	p.Ts = int64(binary.LittleEndian.Uint64(b[0:8]))
	if tr.version == formatVersionV1 {
		p.Src = addr.From4Uint32(binary.LittleEndian.Uint32(b[8:12]))
		p.Dst = addr.From4Uint32(binary.LittleEndian.Uint32(b[12:16]))
		b = b[16:]
	} else {
		p.Src = addr.From16([16]byte(b[8:24]))
		p.Dst = addr.From16([16]byte(b[24:40]))
		b = b[40:]
	}
	p.SrcPort = binary.LittleEndian.Uint16(b[0:2])
	p.DstPort = binary.LittleEndian.Uint16(b[2:4])
	p.Proto = b[4]
	p.Size = binary.LittleEndian.Uint32(b[6:10])
	tr.read++
	return nil
}

// readOutcome is everything a caller can observe of one pass over a
// stream: the constructor's error, the packets decoded, and the error
// that ended the pass.
type readOutcome struct {
	openErr string
	pkts    []Packet
	endErr  string
	eof     bool // the pass ended in a bare io.EOF
}

// readAll drives a reader to its first error. limit bounds the Next
// calls, so a reader that never terminates fails instead of hanging.
func readAll(t *testing.T, open func() (Source, error), limit int) readOutcome {
	t.Helper()
	src, err := open()
	if err != nil {
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("constructor error outside ErrBadFormat: %v", err)
		}
		return readOutcome{openErr: err.Error()}
	}
	var out readOutcome
	for i := 0; i <= limit; i++ {
		var p Packet
		err := src.Next(&p)
		if err == nil {
			out.pkts = append(out.pkts, p)
			continue
		}
		out.endErr, out.eof = err.Error(), err == io.EOF
		if !out.eof && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("Next error outside io.EOF/ErrBadFormat: %v", err)
		}
		return out
	}
	t.Fatalf("no error after %d records", limit)
	return out
}

// diffReaders passes the stream wrap(data) produces through Reader and
// through the reference and requires the same outcome: same packets,
// same error class, same message (and so the same record index).
func diffReaders(t *testing.T, what string, data []byte, wrap func(io.Reader) io.Reader) readOutcome {
	t.Helper()
	limit := len(data)/recordSizeV1 + 1
	got := readAll(t, func() (Source, error) { return NewReader(wrap(bytes.NewReader(data))) }, limit)
	want := readAll(t, func() (Source, error) { return newRefReader(wrap(bytes.NewReader(data))) }, limit)
	if got.openErr != want.openErr || got.endErr != want.endErr || got.eof != want.eof {
		t.Fatalf("%s: Reader ended (open %q, next %q), reference (open %q, next %q)",
			what, got.openErr, got.endErr, want.openErr, want.endErr)
	}
	if len(got.pkts) != len(want.pkts) {
		t.Fatalf("%s: Reader decoded %d packets, reference %d", what, len(got.pkts), len(want.pkts))
	}
	for i := range got.pkts {
		if got.pkts[i] != want.pkts[i] {
			t.Fatalf("%s: packet %d: Reader %+v, reference %+v", what, i, got.pkts[i], want.pkts[i])
		}
	}
	return got
}

// chunkReader delivers at most first bytes on the first Read and at most
// rest on every later one, so a test chooses where in a record a refill
// (or a wrapped reader's injected error) lands.
type chunkReader struct {
	r           io.Reader
	first, rest int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	n := c.rest
	if c.first > 0 {
		n, c.first = c.first, 0
	}
	return c.r.Read(p[:min(n, len(p))])
}

// stutterReader returns (0, nil) pause times before every Read that makes
// progress: legal for an io.Reader, if discouraged.
type stutterReader struct {
	r        io.Reader
	pause, n int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.n < s.pause {
		s.n++
		return 0, nil
	}
	s.n = 0
	return s.r.Read(p)
}

// stuckReader delivers its data and then returns (0, nil) forever.
type stuckReader struct{ r io.Reader }

func (s stuckReader) Read(p []byte) (int, error) {
	n, _ := s.r.Read(p)
	return n, nil
}

// diffTraces returns a dual-stack v2 trace and an IPv4 v1 trace, each the
// shortest whole number of records that reaches size bytes.
func diffTraces(t *testing.T, size int) map[string][]byte {
	v2, v1 := size/recordSize+1, size/recordSizeV1+1
	var v4 []Packet
	for _, p := range mkPackets(3*v1, 2) {
		if p.Src.Is4() && len(v4) < v1 {
			v4 = append(v4, p)
		}
	}
	if len(v4) < v1 {
		t.Fatalf("only %d IPv4 packets for a v1 trace of %d", len(v4), v1)
	}
	return map[string][]byte{"v2": validTraceBytes(t, mkPackets(v2, 1)), "v1": v1TraceBytes(v4)}
}

// TestReaderMatchesReferenceTruncated cuts a short trace of either
// version at every length and delivers it every way a reader may: whole,
// a byte at a time, in halves, with io.EOF riding on the last data, with
// an error in place of the second Read wherever in a record that falls,
// and with empty reads in between. Reader and the reference must agree on
// every packet and on the error, to the letter.
func TestReaderMatchesReferenceTruncated(t *testing.T) {
	wraps := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
		"dataerr/half": func(r io.Reader) io.Reader {
			return iotest.DataErrReader(iotest.HalfReader(r))
		},
		"timeout": iotest.TimeoutReader,
		"stutter": func(r io.Reader) io.Reader { return &stutterReader{r: iotest.HalfReader(r), pause: 99} },
	}
	for version, data := range diffTraces(t, 300) {
		for name, wrap := range wraps {
			for cut := 0; cut <= len(data); cut++ {
				diffReaders(t, fmt.Sprintf("%s %s cut at %d", version, name, cut), data[:cut], wrap)
			}
		}
		// The second Read of a TimeoutReader fails; a first chunk of every
		// size puts that failure at every offset of the header and of the
		// records, boundaries included.
		for first := 1; first <= len(data); first++ {
			out := diffReaders(t, fmt.Sprintf("%s timeout after %d", version, first), data, func(r io.Reader) io.Reader {
				return iotest.TimeoutReader(&chunkReader{r: r, first: first, rest: 1 << 20})
			})
			if !strings.HasSuffix(out.openErr+out.endErr, iotest.ErrTimeout.Error()) {
				t.Fatalf("%s timeout after %d: ended in %q", version, first, out.openErr+out.endErr)
			}
		}
	}
}

// TestReaderMatchesReferenceAcrossWindows reads traces several windows
// long. A first chunk of every size up to a record, then reads as large
// as the window takes, puts the partial record carried across a refill at
// every length; chunk sizes that do not divide the record size do the
// same on every refill; cuts around each window edge and the end check
// the error path after refills.
func TestReaderMatchesReferenceAcrossWindows(t *testing.T) {
	for version, data := range diffTraces(t, 3*readWindow+1000) {
		for skew := 0; skew <= recordSize; skew++ {
			out := diffReaders(t, fmt.Sprintf("%s skew %d", version, skew), data, func(r io.Reader) io.Reader {
				return &chunkReader{r: r, first: headerSize + skew, rest: 1 << 20}
			})
			if !out.eof {
				t.Fatalf("%s skew %d: ended in %q", version, skew, out.endErr)
			}
		}
		for _, chunk := range []int{1, 7, 49, 51, 73, 4099, readWindow - 1, readWindow + 1} {
			diffReaders(t, fmt.Sprintf("%s chunks of %d", version, chunk), data, func(r io.Reader) io.Reader {
				return &chunkReader{r: r, rest: chunk}
			})
		}
		for _, edge := range []int{readWindow, 2 * readWindow, 3 * readWindow, len(data) - recordSize} {
			for cut := edge - recordSize - 1; cut <= min(edge+recordSize+1, len(data)); cut++ {
				what := fmt.Sprintf("%s cut at %d", version, cut)
				diffReaders(t, what, data[:cut], func(r io.Reader) io.Reader { return r })
				diffReaders(t, what+" dataerr", data[:cut], iotest.DataErrReader)
			}
		}
	}
}

// TestReaderNoProgress: a stream that stops making progress without ever
// returning an error (the reference would spin on it forever) fails with
// io.ErrNoProgress's text, naming the record it stalled in.
func TestReaderNoProgress(t *testing.T) {
	for version, data := range diffTraces(t, 200) {
		size := recordSize
		if version == "v1" {
			size = recordSizeV1
		}
		for cut := 0; cut <= len(data); cut++ {
			open := func() (Source, error) { return NewReader(stuckReader{bytes.NewReader(data[:cut])}) }
			out := readAll(t, open, len(data))
			want := fmt.Sprintf("truncated record %d: %v", (cut-headerSize)/size, io.ErrNoProgress)
			if cut < headerSize {
				want = fmt.Sprintf("short header: %v", io.ErrNoProgress)
			}
			if got := out.openErr + out.endErr; !strings.HasSuffix(got, want) {
				t.Fatalf("%s stuck after %d bytes: %q, want suffix %q", version, cut, got, want)
			}
			if want, got := max(0, (cut-headerSize)/size), len(out.pkts); got != want {
				t.Fatalf("%s stuck after %d bytes: decoded %d packets, want %d", version, cut, got, want)
			}
		}
	}
}

// TestReaderNextZeroAlloc pins the per-record cost at zero allocations,
// refills included.
func TestReaderNextZeroAlloc(t *testing.T) {
	for version, data := range diffTraces(t, 2*readWindow) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var p Packet
		allocs := testing.AllocsPerRun(2*readWindow/recordSize-1, func() {
			if err := tr.Next(&p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Next allocates %v times per record", version, allocs)
		}
	}
}
