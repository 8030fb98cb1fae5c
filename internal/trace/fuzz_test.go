package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"slices"
	"testing"

	"hiddenhhh/internal/addr"
)

// validTraceBytes serialises pkts through the production Writer.
func validTraceBytes(t testing.TB, pkts []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if err := tw.Write(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds arbitrary bytes to the binary trace parser: it
// must either reject the stream or decode records (readAll fails on any
// error outside ErrBadFormat and io.EOF), never panic, and never allocate
// proportionally to an attacker-declared header count.
// The corpus seeds both record layouts — current v2 (dual-stack 50-byte
// records) and legacy v1 (IPv4 26-byte records) — plus the usual header
// corruptions.
func FuzzTraceReader(f *testing.F) {
	// Seed corpus: a valid dual-stack 3-packet trace, an empty valid
	// trace, a truncated header, a bad magic, an unsupported version, a
	// huge declared count over a single record, a truncated record, and
	// a legacy v1 stream.
	valid := validTraceBytes(f, []Packet{
		{Ts: 1, Src: addr.From4(10, 0, 0, 1), Dst: addr.From4(10, 0, 0, 2), SrcPort: 80, DstPort: 443, Proto: ProtoTCP, Size: 1500},
		{Ts: 2, Src: addr.MustParseAddr("2001:db8::1"), Dst: addr.MustParseAddr("2400:cb00::2"), SrcPort: 1234, DstPort: 53, Proto: ProtoUDP, Size: 80},
		{Ts: 3, Src: addr.From4(255, 255, 255, 255), Dst: addr.MustParseAddr("ff02::1"), Proto: ProtoICMP, Size: 0},
	})
	f.Add(valid)
	f.Add(validTraceBytes(f, nil))
	f.Add(valid[:10])
	bad := bytes.Clone(valid)
	copy(bad, "NOPE")
	f.Add(bad)
	badVer := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(badVer[4:6], 99)
	f.Add(badVer)
	hugeCount := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(hugeCount[8:16], 1<<60)
	f.Add(hugeCount)
	f.Add(valid[:len(valid)-5])
	f.Add(v1TraceBytes([]Packet{
		{Ts: 7, Src: addr.From4(198, 51, 100, 7), Dst: addr.From4(10, 9, 8, 7), SrcPort: 443, DstPort: 50000, Proto: ProtoTCP, Size: 64},
	}))
	// A v1 header over v2-sized records: the reader must treat the tail
	// as v1 records or reject, never crash.
	mixed := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(mixed[4:6], 1)
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Once whole and once in chunks of a size taken from the input's
		// first byte and length, so the fuzzer steers refills — and the
		// partial record carried across them — and delivery must not
		// change the outcome.
		whole := readAll(t, func() (Source, error) { return NewReader(bytes.NewReader(data)) }, len(data))
		chunk := 1
		if len(data) > 0 {
			chunk += (int(data[0]) + len(data)) % 97
		}
		chunked := readAll(t, func() (Source, error) {
			return NewReader(&chunkReader{r: bytes.NewReader(data), rest: chunk})
		}, len(data))
		if whole.openErr != chunked.openErr || whole.endErr != chunked.endErr || !slices.Equal(whole.pkts, chunked.pkts) {
			t.Fatalf("chunks of %d: (open %q, %d packets, next %q), whole (open %q, %d packets, next %q)", chunk,
				chunked.openErr, len(chunked.pkts), chunked.endErr, whole.openErr, len(whole.pkts), whole.endErr)
		}
	})
}

// FuzzTraceRoundTrip drives the writer/reader pair with arbitrary field
// values across the full 128-bit address space: every packet must
// survive the 50-byte record encoding exactly.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(0), uint16(0), uint8(0), uint32(0))
	f.Add(int64(1e18), uint64(0), uint64(0xffff_ffffffff), uint64(0), uint64(0xffff_00000001), uint16(65535), uint16(53), uint8(ProtoUDP), uint32(0xffffffff))
	f.Add(int64(-5), uint64(0x2001_0db8_0000_0000), uint64(1), uint64(0x2400_cb00_0000_0000), uint64(2), uint16(1), uint16(2), uint8(255), uint32(40))
	f.Fuzz(func(t *testing.T, ts int64, srcHi, srcLo, dstHi, dstLo uint64, sport, dport uint16, proto uint8, size uint32) {
		in := Packet{
			Ts: ts, Src: addr.FromParts(srcHi, srcLo), Dst: addr.FromParts(dstHi, dstLo),
			SrcPort: sport, DstPort: dport, Proto: proto, Size: size,
		}
		data := validTraceBytes(t, []Packet{in})
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		// Non-seekable output: the count backpatch is skipped, so the
		// header legitimately declares 0 (meaning unknown).
		if got := tr.DeclaredCount(); got != 0 {
			t.Fatalf("declared count %d, want 0 (unknown) for non-seekable writer", got)
		}
		var out Packet
		if err := tr.Next(&out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		if err := tr.Next(&out); !errors.Is(err, io.EOF) {
			t.Fatalf("expected EOF after 1 record, got %v", err)
		}
	})
}

// TestReadFileHugeDeclaredCount pins the allocation cap: a file whose
// header declares 2^60 records but carries one must load that record
// without attempting a header-sized allocation.
func TestReadFileHugeDeclaredCount(t *testing.T) {
	data := validTraceBytes(t, []Packet{{Ts: 42, Src: addr.From4Uint32(1), Size: 99}})
	binary.LittleEndian.PutUint64(data[8:16], 1<<60)
	path := t.TempDir() + "/huge.trace"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || pkts[0].Ts != 42 {
		t.Fatalf("got %v", pkts)
	}
}
