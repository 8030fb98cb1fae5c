package trace

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hiddenhhh/internal/addr"
)

// mkPackets synthesises a deterministic dual-stack packet mix: roughly
// half IPv4-mapped sources, half native IPv6 ones, so every format and
// source test exercises both families.
func mkPackets(n int, seed int64) []Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]Packet, n)
	ts := int64(0)
	for i := range pkts {
		ts += rng.Int63n(1e6)
		src, dst := addr.From4Uint32(rng.Uint32()), addr.From4Uint32(rng.Uint32())
		if rng.Intn(2) == 1 {
			src = addr.FromParts(0x2001_0db8_0000_0000|rng.Uint64()&0xffff_ffff, rng.Uint64())
			dst = addr.FromParts(0x2400_cb00_0000_0000|rng.Uint64()&0xffff_ffff, rng.Uint64())
		}
		pkts[i] = Packet{
			Ts:      ts,
			Src:     src,
			Dst:     dst,
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8([]int{ProtoTCP, ProtoUDP, ProtoICMP}[rng.Intn(3)]),
			Size:    uint32(40 + rng.Intn(1460)),
		}
	}
	return pkts
}

// isSorted reports whether pkts is in non-decreasing timestamp order, the
// invariant every Source must provide.
func isSorted(pkts []Packet) bool {
	return slices.IsSortedFunc(pkts, func(a, b Packet) int { return cmp.Compare(a.Ts, b.Ts) })
}

func TestSortAndIsSorted(t *testing.T) {
	pkts := mkPackets(50, 5)
	if !isSorted(pkts) {
		t.Fatal("generator should emit sorted packets")
	}
	// Shuffle and re-sort.
	rng := rand.New(rand.NewSource(6))
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	SortByTime(pkts)
	if !isSorted(pkts) {
		t.Fatal("SortByTime failed")
	}
}

func TestFormatRoundTripMemory(t *testing.T) {
	pkts := mkPackets(1000, 10)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if err := w.Write(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1000 {
		t.Errorf("writer count = %d", w.Count())
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pkts) {
		t.Fatal("round trip mismatch")
	}
}

func TestFormatRoundTripFile(t *testing.T) {
	pkts := mkPackets(500, 11)
	path := filepath.Join(t.TempDir(), "x.hhht")
	if err := WriteFile(path, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pkts) {
		t.Fatal("file round trip mismatch")
	}
	// File writers are seekable, so the declared count must be patched.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeclaredCount() != 500 {
		t.Errorf("DeclaredCount = %d, want 500", r.DeclaredCount())
	}
}

func TestFormatQuickRoundTrip(t *testing.T) {
	f := func(ts int64, srcHi, srcLo, dstHi, dstLo uint64, sp, dp uint16, proto uint8, size uint32) bool {
		in := Packet{Ts: ts, Src: addr.FromParts(srcHi, srcLo), Dst: addr.FromParts(dstHi, dstLo),
			SrcPort: sp, DstPort: dp, Proto: proto, Size: size}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if w.Write(&in) != nil || w.Close() != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		var out Packet
		if r.Next(&out) != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatErrors(t *testing.T) {
	// Bad magic.
	if _, err := NewReader(bytes.NewReader([]byte("XXXX000000000000"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: err = %v", err)
	}
	// Short header.
	if _, err := NewReader(bytes.NewReader([]byte("HH"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("short header: err = %v", err)
	}
	// Bad version.
	hdr := append([]byte(formatMagic), 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(hdr)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad version: err = %v", err)
	}
	// Truncated record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	p := Packet{Ts: 1}
	w.Write(&p)
	w.Close()
	trunc := buf.Bytes()[:headerSize+5]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var out Packet
	if err := r.Next(&out); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated record: err = %v", err)
	}
}

// v1TraceBytes hand-assembles a legacy version-1 (IPv4-only, 26-byte
// record) trace stream.
func v1TraceBytes(pkts []Packet) []byte {
	buf := make([]byte, headerSize, headerSize+recordSizeV1*len(pkts))
	copy(buf[:4], formatMagic)
	binary.LittleEndian.PutUint16(buf[4:6], formatVersionV1)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(pkts)))
	for i := range pkts {
		var rec [recordSizeV1]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(pkts[i].Ts))
		binary.LittleEndian.PutUint32(rec[8:12], pkts[i].Src.V4())
		binary.LittleEndian.PutUint32(rec[12:16], pkts[i].Dst.V4())
		binary.LittleEndian.PutUint16(rec[16:18], pkts[i].SrcPort)
		binary.LittleEndian.PutUint16(rec[18:20], pkts[i].DstPort)
		rec[20] = pkts[i].Proto
		binary.LittleEndian.PutUint32(rec[22:26], pkts[i].Size)
		buf = append(buf, rec[:]...)
	}
	return buf
}

func TestFormatReadsLegacyV1(t *testing.T) {
	want := []Packet{
		{Ts: 5, Src: addr.From4(10, 1, 2, 3), Dst: addr.From4(192, 0, 2, 9), SrcPort: 80, DstPort: 443, Proto: ProtoTCP, Size: 1500},
		{Ts: 9, Src: addr.From4(203, 0, 113, 1), Dst: addr.From4(10, 0, 0, 1), Proto: ProtoUDP, Size: 40},
	}
	r, err := NewReader(bytes.NewReader(v1TraceBytes(want)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 || r.DeclaredCount() != 2 {
		t.Fatalf("version=%d count=%d", r.Version(), r.DeclaredCount())
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
	for _, p := range got {
		if !p.Src.Is4() || !p.Dst.Is4() {
			t.Fatal("v1 addresses must surface IPv4-mapped")
		}
	}
}

func TestStats(t *testing.T) {
	pkts := []Packet{
		{Ts: 0, Src: addr.From4Uint32(1), Dst: addr.From4Uint32(10), Proto: ProtoTCP, Size: 100},
		{Ts: 1e9, Src: addr.From4Uint32(1), Dst: addr.From4Uint32(11), Proto: ProtoUDP, Size: 200},
		{Ts: 2e9, Src: addr.MustParseAddr("2001:db8::1"), Dst: addr.From4Uint32(10), Proto: ProtoTCP, Size: 300},
	}
	s := ComputeStats(pkts)
	if s.Packets != 3 || s.Bytes != 600 {
		t.Errorf("packets=%d bytes=%d", s.Packets, s.Bytes)
	}
	if s.DistinctSrc != 2 || s.DistinctDst != 2 {
		t.Errorf("srcs=%d dsts=%d", s.DistinctSrc, s.DistinctDst)
	}
	if s.Duration().Seconds() != 2 {
		t.Errorf("duration=%v", s.Duration())
	}
	if s.PacketRate() != 1.5 {
		t.Errorf("pps=%v", s.PacketRate())
	}
	if s.BitRate() != 2400 {
		t.Errorf("bps=%v", s.BitRate())
	}
	if s.ProtoPackets[ProtoTCP] != 2 || s.ProtoPackets[ProtoUDP] != 1 {
		t.Errorf("proto map %v", s.ProtoPackets)
	}
	if s.MinSize != 100 || s.MaxSize != 300 {
		t.Errorf("sizes [%d,%d]", s.MinSize, s.MaxSize)
	}
	if s.V4Packets != 2 || s.V6Packets != 1 {
		t.Errorf("family split v4=%d v6=%d, want 2/1", s.V4Packets, s.V6Packets)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := ComputeStats(nil)
	if s.Packets != 0 || s.Duration() != 0 || s.PacketRate() != 0 || s.BitRate() != 0 || s.MinSize != 0 {
		t.Errorf("empty stats not zeroed: %+v", s)
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	p := Packet{Ts: 1, Src: addr.From4Uint32(2), Dst: addr.From4Uint32(3), Size: 1500}
	w, _ := NewWriter(io.Discard)
	b.SetBytes(recordSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Ts = int64(i)
		if err := w.Write(&p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderThroughput(b *testing.B) {
	pkts := mkPackets(100000, 42)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range pkts {
		w.Write(&pkts[i])
	}
	w.Close()
	data := buf.Bytes()
	b.SetBytes(recordSize)
	b.ReportAllocs()
	b.ResetTimer()
	var p Packet
	for i := 0; i < b.N; {
		r, _ := NewReader(bytes.NewReader(data))
		for ; i < b.N; i++ {
			if err := r.Next(&p); err != nil {
				break
			}
		}
	}
}
