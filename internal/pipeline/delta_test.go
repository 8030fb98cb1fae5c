package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// Tests for the delta seal: a wcss node seals the ring slots that changed
// and the Aggregator applies them over what it holds. Everything here pins
// the chain to the full frame it stands for — the sender's whole summary,
// byte for byte — and the refusal to a summary left as it was.

// Offsets into a KindSlidingDelta frame (header 16, then the payload as
// wire.EncodeSlidingDelta lays it out), for the tests that walk or patch
// one by hand.
const (
	dOffBaseSeq  = 16
	dOffBaseSum  = 24
	dOffCounters = 38
	dOffLevels   = 42
	dOffLevel0   = 44 // level 0: clock (8), bitmap, carried slots
)

// deltaSlots walks a delta frame by hand: each level's frame clock and, per
// ring slot, whether the delta carries it.
func deltaSlots(t *testing.T, frame []byte, ring int) (clocks []int64, carried [][]bool) {
	t.Helper()
	levels := int(binary.LittleEndian.Uint16(frame[dOffLevels:]))
	off := dOffLevel0
	for l := 0; l < levels; l++ {
		clocks = append(clocks, int64(binary.LittleEndian.Uint64(frame[off:])))
		bits := frame[off+8 : off+8+(ring+7)/8]
		off += 8 + len(bits)
		row := make([]bool, ring)
		for i := range row {
			if row[i] = bits[i/8]>>(i%8)&1 == 1; row[i] {
				n := int(binary.LittleEndian.Uint32(frame[off+20:]))
				off += 24 + n*24 // frame total, capacity, total, count, entries
			}
		}
		carried = append(carried, row)
	}
	if off != len(frame)-4 {
		t.Fatalf("delta walk ends at %d of %d bytes", off, len(frame)-4)
	}
	return clocks, carried
}

// reframe returns frame with its payload replaced by what mutate makes of a
// copy of it, length and checksum set right: a hand-framed frame.
func reframe(frame []byte, mutate func(p []byte) []byte) []byte {
	p := mutate(bytes.Clone(frame[16 : len(frame)-4]))
	out := append(bytes.Clone(frame[:16]), p...)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(p)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// patch is reframe for a mutation that overwrites payload bytes in place;
// off is a frame offset.
func patch(frame []byte, off int, b ...byte) []byte {
	return reframe(frame, func(p []byte) []byte { copy(p[off-16:], b); return p })
}

func le64(v int64) []byte  { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// hierStream is wideStream over either address family: far more sources
// per prefix than the tests have counters, at a steady packet rate, with a
// silent gap where pause says.
func hierStream(h addr.Hierarchy, seed int64, n int, span time.Duration, pause [2]int64) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, 0, n)
	for i := 0; i < n; i++ {
		ts := int64(span) * int64(i) / int64(n)
		a, b, c, d := uint64(10+rng.Intn(6)), uint64(rng.Intn(40)), uint64(rng.Intn(200)), uint64(rng.Intn(250))
		if rng.Intn(4) == 0 {
			a, b, c, d = 10, 1, uint64(rng.Intn(3)), uint64(rng.Intn(20))
		}
		if ts >= pause[0] && ts < pause[1] {
			continue
		}
		src := addr.From4(byte(a), byte(b), byte(c), byte(d))
		if h.Family() == addr.V6 {
			src = addr.FromParts(0x2001<<48|a<<32|b<<16|c, d)
		}
		out = append(out, trace.Packet{Ts: ts, Src: src, Size: uint32(40 + rng.Intn(1460))})
	}
	return out
}

// TestDeltaChainMatchesFullFrame is the property the transport rests on: a
// receiver fed what OnSeal delivers — the full first frame, the deltas, the
// 64th seal's full frame — holds after every seal, byte for byte, the
// sender's whole merged summary, and answers the same query; and a twin
// sender that is asked for a full frame before every snapshot (the
// production method, ResyncSeal) publishes the same global reports through
// its Aggregator. Over both address families, 1, 2 and 4 shards, and
// snapshot cadences from a sixteenth of the window — most of the ring
// sealed, the deltas small — through a third of it and two and a half
// windows — every slot expired between seals, a delta as large as the
// frame — to a steady cadence broken by a pause of three windows.
func TestDeltaChainMatchesFullFrame(t *testing.T) {
	const window = 800 * time.Millisecond
	w := int64(window)
	cadences := []struct {
		name  string
		every int64
		pause [2]int64
	}{
		{"W/16", w / 16, [2]int64{}},
		{"W/3", w / 3, [2]int64{}},
		{"2.5W", w * 5 / 2, [2]int64{}},
		{"pause-3W", w / 4, [2]int64{5 * w, 8 * w}},
	}
	hiers := []addr.Hierarchy{addr.NewIPv4Hierarchy(addr.Byte), addr.NewIPv6Hierarchy(addr.Hextet)}
	for _, h := range hiers {
		for _, shards := range []int{1, 2, 4} {
			for _, cad := range cadences {
				t.Run(fmt.Sprintf("%v/K=%d/%s", h, shards, cad.name), func(t *testing.T) {
					const seals = fullSealEvery + 6
					span := time.Duration(cad.every*seals + cad.pause[1] - cad.pause[0])
					pkts := hierStream(h, int64(shards)*31+cad.every%97, 40*seals, span, cad.pause)
					type side struct {
						det   *Sharded
						seals sealCollector
						agg   *Aggregator
					}
					var delta, full side
					for _, s := range []*side{&delta, &full} {
						var err error
						s.det, err = New(Config{
							Mode: ModeSliding, Shards: shards, Window: window, Frames: 4, Phi: 0.02,
							Counters: 16, Hierarchy: h, OnSeal: s.seals.add,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer s.det.Close()
						if s.agg, err = NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.02}); err != nil {
							t.Fatal(err)
						}
						defer s.agg.Close()
					}
					fed, forms, sizes := 0, [2]int{}, [2]int{}
					for k, at := 1, cad.every; k <= seals; k, at = k+1, at+cad.every {
						if at >= cad.pause[0] && at < cad.pause[1] {
							at = cad.pause[1]
						}
						n := fed
						for n < len(pkts) && pkts[n].Ts <= at {
							n++
						}
						full.det.ResyncSeal()
						var sealed [2]Sealed
						for i, s := range []*side{&delta, &full} {
							s.det.ObserveBatch(pkts[fed:n])
							s.det.Snapshot(at)
							all := s.seals.all()
							if len(all) != k {
								t.Fatalf("seal %d: %d frames sealed", k, len(all))
							}
							sealed[i] = all[k-1]
							if err := s.agg.Ingest("n", sealed[i]); err != nil {
								t.Fatalf("seal %d: %v", k, err)
							}
						}
						fed = n
						if d, f := sealed[0], sealed[1]; d.Delta != ((k-1)%fullSealEvery != 0) || f.Delta {
							t.Fatalf("seal %d: delta %v on the delta side, %v on the full side", k, d.Delta, f.Delta)
						} else if !d.Delta && !bytes.Equal(d.Frame, f.Frame) {
							t.Fatalf("seal %d: the two senders' full frames differ", k)
						}
						if sealed[0].Delta {
							forms[1]++
							sizes[1] += len(sealed[0].Frame)
						} else {
							forms[0]++
							sizes[0] += len(sealed[0].Frame)
						}
						held := delta.agg.nodes["n"].sum
						if !bytes.Equal(mustEncode(t, held), mustEncode(t, delta.det.merged)) {
							t.Fatalf("seal %d: the receiver's summary is not the sender's", k)
						}
						got, gotMass := held.Query(at)
						want, wantMass := delta.det.merged.Query(at)
						sameSet(t, fmt.Sprintf("seal %d", k), got, want)
						if gotMass != wantMass {
							t.Fatalf("seal %d: receiver mass %d, sender %d", k, gotMass, wantMass)
						}
						if a, b := delta.agg.Report(), full.agg.Report(); reportDigest(a) != reportDigest(b) || a.Seq != b.Seq {
							t.Fatalf("seal %d: the delta chain published %+v, full frames %+v", k, a, b)
						}
					}
					if st := delta.agg.Stats(); st.Rejected+st.LateFrames+st.Nodes[0].NeedFull != 0 || forms[0] != 2 {
						t.Fatalf("%d full frames sealed; receiver stats %+v", forms[0], st)
					}
					if delta.agg.Report().Set.Len() == 0 {
						t.Fatal("the replay reported nothing")
					}
					// Where the cadence leaves most of the ring sealed a delta is
					// a fraction of the frame; where every slot turns over
					// between seals it is the frame plus its bitmaps.
					if mean := sizes[1] / forms[1]; cad.every < w/8 && mean*2 > sizes[0]/forms[0] {
						t.Errorf("deltas average %d bytes against full frames of %d", mean, sizes[0]/forms[0])
					}
				})
			}
		}
	}
}

// deltaFixture is one wcss sender's first three seals — F1 full, D2 and D3
// deltas — with its whole summary as of each, and a builder for
// aggregators that have applied F1.
type deltaFixture struct {
	seals [3]Sealed
	whole [3][]byte
}

func newDeltaFixture(t *testing.T) *deltaFixture {
	t.Helper()
	fx := &deltaFixture{}
	node := newSlidingNode(t, nil)
	pkts := wideStream(3, 6000, 1200*time.Millisecond)
	fed := 0
	for k := range fx.seals {
		at := int64(k+2) * int64(300*time.Millisecond)
		n := fed
		for n < len(pkts) && pkts[n].Ts <= at {
			n++
		}
		node.det.ObserveBatch(pkts[fed:n])
		fed = n
		fx.seals[k] = node.snapshot(t, at)
		fx.whole[k] = mustEncode(t, node.det.merged)
	}
	if fx.seals[0].Delta || !fx.seals[1].Delta || !fx.seals[2].Delta {
		t.Fatal("fixture: want a full frame and two deltas")
	}
	return fx
}

// after returns an aggregator that has applied the fixture's first n seals
// for node "n", and that node.
func (fx *deltaFixture) after(t *testing.T, n int) (*Aggregator, *aggNode) {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Close)
	for _, s := range fx.seals[:n] {
		if err := agg.Ingest("n", s); err != nil {
			t.Fatal(err)
		}
	}
	return agg, agg.nodes["n"]
}

// TestSlidingDeltaTrustBoundary: a delta is attacker-controlled state
// applied to retained state. Every hand-framed delta below is answered
// with a typed error, and leaves the node's retained summary either bit for
// bit what it was — refused before the first write, so that the honest
// delta it displaced still applies and yields the sender's summary — or
// gone, the node contributing nothing and every delta refused until a full
// frame arrives; never half-applied and kept.
func TestSlidingDeltaTrustBoundary(t *testing.T) {
	fx := newDeltaFixture(t)
	d2 := fx.seals[1]
	// The first carried slot of level 0: frame total (8), capacity (4),
	// total (8), entry count (4), then entries of key, count, error bound.
	slot0 := dOffLevel0 + 8 + 1
	total := int64(binary.LittleEndian.Uint64(d2.Frame[slot0+12:]))
	_, carried := deltaSlots(t, d2.Frame, 5)
	var omitted, set int
	for i, c := range carried[0] {
		if c {
			set = i
		} else {
			omitted = i
		}
	}
	if binary.LittleEndian.Uint32(d2.Frame[slot0+20:]) == 0 || carried[0][omitted] {
		t.Fatal("fixture: level 0 of D2 must leave a slot out and carry a non-empty one first")
	}
	sealed := func(frame []byte) Sealed { s := d2; s.Frame = frame; return s }
	bit := func(i int, on bool) []byte {
		b := d2.Frame[dOffLevel0+8]
		if b &^= 1 << i; on {
			b |= 1 << i
		}
		return patch(d2.Frame, dOffLevel0+8, b)
	}
	cases := []struct {
		name string
		s    Sealed
		want error // ErrNeedFull: summary untouched; ErrFrameRejected: summary gone
	}{
		{"bitmap bit beyond the ring", sealed(bit(5, true)), ErrFrameRejected},
		{"bitmap names a slot the payload lacks", sealed(bit(omitted, true)), ErrFrameRejected},
		{"payload carries a slot the bitmap lacks", sealed(bit(set, false)), ErrFrameRejected},
		{"slot capacity differs from the geometry", sealed(patch(d2.Frame, slot0+8, le32(31)...)), ErrFrameRejected},
		{"entry count above the slot's total", sealed(patch(d2.Frame, slot0+24+8, le64(total+1)...)), ErrFrameRejected},
		{"level count differs from the base's", sealed(patch(d2.Frame, dOffLevels, 4, 0)), ErrFrameRejected},
		{"geometry differs from the base's", sealed(patch(d2.Frame, dOffCounters, le32(33)...)), ErrNeedFull},
		{"clock behind the retained one", sealed(patch(d2.Frame, dOffLevel0, le64(0)...)), ErrNeedFull},
		{"base Seq right, checksum wrong", sealed(patch(d2.Frame, dOffBaseSum, 0xde, 0xad, 0xbe, 0xef)), ErrNeedFull},
		{"base checksum right, Seq wrong", sealed(patch(d2.Frame, dOffBaseSeq, le64(7)...)), ErrNeedFull},
		{"trailing bytes", sealed(reframe(d2.Frame, func(p []byte) []byte { return append(p, 0) })), ErrFrameRejected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg, an := fx.after(t, 1)
			before := mustEncode(t, an.sum)
			err := agg.Ingest("n", tc.s)
			if !errors.Is(err, tc.want) || errors.Is(err, ErrNeedFull) == errors.Is(err, ErrFrameRejected) {
				t.Fatalf("got %v, want %v alone", err, tc.want)
			}
			st := agg.Stats()
			if tc.want == ErrNeedFull {
				if st.Rejected != 0 || st.Nodes[0].NeedFull != 1 || st.Nodes[0].Frames != 1 ||
					!bytes.Equal(mustEncode(t, an.sum), before) || agg.Report().Nodes != 1 {
					t.Fatalf("a refused delta left its mark: %+v", st)
				}
				if err := agg.Ingest("n", d2); err != nil {
					t.Fatalf("the honest delta no longer applies: %v", err)
				}
				if !bytes.Equal(mustEncode(t, an.sum), fx.whole[1]) {
					t.Fatal("the honest delta no longer yields the sender's summary")
				}
				return
			}
			if an.sum != nil || st.Rejected != 1 || st.Nodes[0].Rejected != 1 {
				t.Fatalf("a rejected delta: summary kept %v, stats %+v", an.sum != nil, st)
			}
			// Gone, and marked: the chain's next delta has no base, a full
			// frame brings the node back.
			if err := agg.Ingest("n", fx.seals[2]); !errors.Is(err, ErrNeedFull) {
				t.Fatalf("delta after a rejected one: %v", err)
			}
			full := fx.seals[2]
			full.Seq, full.Delta, full.Frame = 4, false, fx.whole[2]
			if err := agg.Ingest("n", full); err != nil || !bytes.Equal(mustEncode(t, an.sum), fx.whole[2]) {
				t.Fatalf("full frame after a rejected delta: %v", err)
			}
		})
	}

	t.Run("a delta as a node's first frame, and after an ErrNeedFull", func(t *testing.T) {
		agg, _ := fx.after(t, 0)
		for _, s := range fx.seals[1:] {
			if err := agg.Ingest("n", s); !errors.Is(err, ErrNeedFull) || errors.Is(err, ErrFrameRejected) {
				t.Fatalf("seal %d: %v", s.Seq, err)
			}
		}
		if st := agg.Stats(); st.Kind != "sliding" || st.Rejected != 0 || st.Nodes[0].NeedFull != 2 ||
			st.Nodes[0].Frames != 0 || agg.Report().Nodes != 0 {
			t.Fatalf("stats %+v", st)
		}
		// The refusals moved nothing: the chain still applies from its head.
		for k, s := range fx.seals {
			if err := agg.Ingest("n", s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustEncode(t, agg.nodes["n"].sum), fx.whole[k]) {
				t.Fatalf("seal %d: not the sender's summary", s.Seq)
			}
		}
	})

	t.Run("the delta kind in a fleet of another engine", func(t *testing.T) {
		cfg := rowConfig(int(KindPerLevel))
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		s, err := newSummary(&cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		agg, _ := fx.after(t, 0)
		if err := agg.Ingest("p", Sealed{Seq: 1, Start: 0, End: 1, Frame: s.Encode()}); err != nil {
			t.Fatal(err)
		}
		if err := agg.Ingest("n", d2); !errors.Is(err, ErrFrameRejected) || errors.Is(err, ErrNeedFull) {
			t.Fatalf("delta into a per-level fleet: %v", err)
		}
	})
}

// TestFullFrameAfterDeltas: a full frame restores the node's summary
// whole, whatever deltas have written since the full frame before it. F1,
// then D2 and D3 rewriting the filling slot, then F1's own bytes again as a
// later seal: the node's summary must re-encode to that frame, not keep the
// deltas' content in a slot whose bytes F1 shares.
func TestFullFrameAfterDeltas(t *testing.T) {
	fx := newDeltaFixture(t)
	agg, an := fx.after(t, 3)
	stale := mustEncode(t, an.sum)
	again := fx.seals[2] // same End: the fleet clock stays where D3 put it
	again.Seq, again.Delta, again.Frame = 4, false, fx.seals[0].Frame
	if err := agg.Ingest("n", again); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Verify(again.Frame)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := restore(nil, sealedAt{}, f, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ref.Advance(again.End)
	if got := mustEncode(t, an.sum); !bytes.Equal(got, mustEncode(t, ref)) {
		t.Fatalf("after F1, D2, D3, F1: the summary is not F1's (still the deltas': %v)", bytes.Equal(got, stale))
	}
	if bytes.Equal(mustEncode(t, ref), stale) {
		t.Fatal("fixture: the deltas changed nothing F1 would not restore")
	}
}

// TestAggregatorFullOverFull: a wcss node resyncs right after its first
// seal, so a full frame lands directly on another. It restores every slot
// — the two frames share most of their bytes, and none is skipped — and
// the published report is what a fresh decode of the frame answers.
func TestAggregatorFullOverFull(t *testing.T) {
	node := newSlidingNode(t, nil)
	agg, err := NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	pkts := wideStream(4, 6000, 900*time.Millisecond)
	ms := int64(time.Millisecond)
	node.det.ObserveBatch(pkts[:5000])
	if err := agg.Ingest("n", node.snapshot(t, 750*ms)); err != nil {
		t.Fatal(err)
	}
	node.det.ObserveBatch(pkts[5000:])
	node.det.ResyncSeal()
	s := node.snapshot(t, 900*ms)
	if s.Delta || s.Seq != 2 {
		t.Fatalf("seal %d delta %v, want full seal 2", s.Seq, s.Delta)
	}
	const slots = 5 * 5 // IPv4 byte levels × ring
	if err := agg.Ingest("n", s); err != nil {
		t.Fatal(err)
	}
	if restored, skipped := agg.restoredSlots.Load(), agg.skippedSlots.Load(); restored != 2*slots || skipped != 0 {
		t.Fatalf("two full frames: %d slots restored, %d skipped; want %d and 0", restored, skipped, 2*slots)
	}
	f, err := wire.Verify(s.Frame)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := restore(nil, sealedAt{}, f, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	ref.Advance(rep.End)
	if !bytes.Equal(mustEncode(t, agg.nodes["n"].sum), mustEncode(t, ref)) {
		t.Fatal("the node's summary re-encodes differently from a fresh decode of its frame")
	}
	want, wantMass := ref.Query(rep.End)
	sameSet(t, "report", rep.Set, want)
	if rep.Bytes != wantMass || rep.End != 900*ms || want.Len() == 0 {
		t.Fatalf("report mass %d at %d, fresh decode %d (%d items)", rep.Bytes, rep.End, wantMass, want.Len())
	}
}

// TestDeltaSealMetrics: seals and their bytes by form on the ingest
// registry, refusals by node on the aggregator's, in a conforming
// exposition and equal to what the frames and Stats say; full + delta seals
// are the newest Seq.
func TestDeltaSealMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	node := newSlidingNode(t, reg)
	agg, err := NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.02, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	pkts := wideStream(9, 20000, 6*time.Second)
	var want [2][2]int64 // form × (seals, bytes)
	fed, lastSeq := 0, int64(0)
	for round := int64(1); round <= 30; round++ {
		at := round * int64(200*time.Millisecond)
		n := fed
		for n < len(pkts) && pkts[n].Ts <= at {
			n++
		}
		node.det.ObserveBatch(pkts[fed:n])
		fed = n
		s := node.snapshot(t, at)
		form := 0
		if s.Delta {
			form = 1
		}
		want[form][0]++
		want[form][1] += int64(len(s.Frame))
		lastSeq = s.Seq
		if round%10 == 4 {
			continue // lost on the way: the next delta has no base
		}
		if err := agg.Ingest("n", s); errors.Is(err, ErrNeedFull) {
			node.det.ResyncSeal()
		} else if err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not conform: %v", err)
	}
	st := agg.Stats().Nodes[0]
	for _, line := range []string{
		fmt.Sprintf(`hhh_pipeline_seals_total{form="full"} %d`, want[0][0]),
		fmt.Sprintf(`hhh_pipeline_seals_total{form="delta"} %d`, want[1][0]),
		fmt.Sprintf(`hhh_pipeline_seal_bytes_total{form="full"} %d`, want[0][1]),
		fmt.Sprintf(`hhh_pipeline_seal_bytes_total{form="delta"} %d`, want[1][1]),
		fmt.Sprintf(`hhh_aggregator_need_full_total{node="n"} %d`, st.NeedFull),
		fmt.Sprintf(`hhh_aggregator_frames_total{node="n"} %d`, st.Frames),
	} {
		if !strings.Contains(sb.String(), "\n"+line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
	if want[0][0]+want[1][0] != lastSeq || want[0][0] != 4 || st.NeedFull != 3 || st.Frames+st.NeedFull != 27 {
		t.Errorf("%d full + %d delta seals up to Seq %d; node stats %+v", want[0][0], want[1][0], lastSeq, st)
	}
}
