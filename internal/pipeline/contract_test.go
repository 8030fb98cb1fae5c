package pipeline

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// The engine contract, checked for every row of the registry rather than
// for a hand-written list of engines: an engine added as one more row is
// covered here with no test edit.

// rowConfig is a small pipeline Config selecting registry row k.
func rowConfig(k int) Config {
	return Config{
		Mode: engines[k].mode, Engine: Kind(k), Shards: 1,
		Window: 2 * time.Second, Phi: 0.03, Counters: 64, Seed: 9,
	}
}

// forEachEngine runs f as a subtest per registry row.
func forEachEngine(t *testing.T, f func(t *testing.T, cfg Config)) {
	for k := range engines {
		t.Run(engines[k].name, func(t *testing.T) { f(t, rowConfig(k)) })
	}
}

// sameSet requires two reports to agree item for item, counts included.
func sameSet(t *testing.T, what string, got, want hhh.Set) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: sets differ:\n got  %v\n want %v", what, got, want)
	}
	for p, it := range want {
		if g := got[p]; g.Count != it.Count || g.Conditioned != it.Conditioned {
			t.Fatalf("%s: %v: got %+v, want %+v", what, p, g, it)
		}
	}
}

func mustEncode(_ *testing.T, s Summary) []byte { return s.Encode() }

// TestContractLoneFrameRound: a round of one frame is queried as restored,
// with no merge. A merge of one summary adds nothing to any count — it
// re-canonicalises the tables — so the report must be the one the same
// frame gets from a two-node round whose other node saw no traffic, which
// does go through the merge: set with counts, mass and span. (Nodes and
// Expected say how many took part and differ by construction.)
func TestContractLoneFrameRound(t *testing.T) {
	pkts := testStream(47, 30000, 2) // ~7 000 sources into 64 counters: every table is full
	at := pkts[len(pkts)-1].Ts + 1
	forEachEngine(t, func(t *testing.T, cfg Config) {
		if cfg.Mode != ModeWindowed {
			t.Skip("no window rounds: a lone node's newest summary has always been queried directly")
		}
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		var node [2]Summary // the second stays empty
		for i := range node {
			s, err := newSummary(&cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			node[i] = s
		}
		kb := trace.NewKeyBatch(0)
		kb.AppendPackets(cfg.Hierarchy, pkts)
		node[0].UpdateKeys(kb)
		var reps [2]*AggReport
		for n := 1; n <= 2; n++ {
			agg, err := NewAggregator(AggregatorConfig{Expected: n, Phi: cfg.Phi})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			for i, s := range node[:n] {
				s.Advance(at)
				sealed := Sealed{Seq: 1, Start: at - int64(cfg.Window), End: at, Frame: mustEncode(t, s)}
				if err := agg.Ingest(string(rune('a'+i)), sealed); err != nil {
					t.Fatal(err)
				}
			}
			if reps[n-1] = agg.Report(); reps[n-1].Nodes != n || reps[n-1].Degraded {
				t.Fatalf("%d-node round published %+v", n, reps[n-1])
			}
		}
		lone, pair := reps[0], reps[1]
		sameSet(t, "lone frame", lone.Set, pair.Set)
		if lone.Set.Len() == 0 || lone.Bytes != pair.Bytes || lone.Start != pair.Start || lone.End != pair.End {
			t.Fatalf("lone round %d items, %d B over [%d, %d]; with an empty peer %d B over [%d, %d]",
				lone.Set.Len(), lone.Bytes, lone.Start, lone.End, pair.Bytes, pair.Start, pair.End)
		}
	})
}

// TestContractSingleMatchesOneShard: the single-goroutine driver and a
// 1-shard pipeline run the same Summary through the same window clock, so
// on one stream they must publish identical reports — set, mass, covered
// span — at every snapshot, and leave their summaries in byte-identical
// state under every chunking of the stream. The state is compared on
// pairs that take no snapshots:
// a Query may settle the summary it runs on (the continuous engine takes
// its exits there), and the pipeline queries its merge accumulator where
// the single driver queries the summary itself.
func TestContractSingleMatchesOneShard(t *testing.T) {
	pkts := testStream(31, 30000, 9)
	forEachEngine(t, func(t *testing.T, cfg Config) {
		pair := func() (*Single, *Sharded) {
			single, err := NewSingle(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return single, sharded
		}

		single, sharded := pair()
		fed := 0
		for at := int64(time.Second); fed < len(pkts); at += int64(time.Second) {
			n := fed
			for n < len(pkts) && pkts[n].Ts < at {
				n++
			}
			single.ObserveBatch(pkts[fed:n])
			sharded.ObserveBatch(pkts[fed:n])
			fed = n
			sameSet(t, "snapshot", sharded.Snapshot(at), single.Snapshot(at))
			if g, w := sharded.ReportMass(at), single.ReportMass(at); g != w {
				t.Fatalf("ReportMass(%d): sharded %d, single %d", at, g, w)
			}
			glo, ghi := sharded.CoveredSpan(at)
			wlo, whi := single.CoveredSpan(at)
			if glo != wlo || ghi != whi {
				t.Fatalf("CoveredSpan(%d): sharded [%d,%d], single [%d,%d]", at, glo, ghi, wlo, whi)
			}
		}
		if single.rep.Set.Len() == 0 {
			t.Fatal("empty final report proves nothing")
		}
		if err := sharded.Close(); err != nil {
			t.Fatal(err)
		}

		sameStateUnderChunking(t, cfg, pkts)
	})
	// The continuous engine resolves its decay factors a run of packets
	// ahead; a decay horizon far shorter than the stream's span makes that
	// run cross many sweeps, so the chunking check is repeated there.
	t.Run("continuous", func(t *testing.T) {
		cfg := rowConfig(int(KindTDBF))
		cfg.Window = 250 * time.Millisecond
		sameStateUnderChunking(t, cfg, pkts)
	})
}

// sameStateUnderChunking feeds pkts to a single driver and a 1-shard
// pipeline built from cfg, cut into batches of several sizes: however the
// caller cuts the stream — and the pipeline re-cuts it into its own ring
// batches — both drivers must be left in one state.
func sameStateUnderChunking(t *testing.T, cfg Config, pkts []trace.Packet) {
	t.Helper()
	var want []byte
	for _, bs := range []int{1, 7, 256, 1 << 20} {
		single, err := NewSingle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(pkts); off += bs {
			single.ObserveBatch(pkts[off:min(off+bs, len(pkts))])
			sharded.ObserveBatch(pkts[off:min(off+bs, len(pkts))])
		}
		if err := sharded.Close(); err != nil { // drains the ring
			t.Fatal(err)
		}
		got := mustEncode(t, single.eng)
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) || !bytes.Equal(mustEncode(t, sharded.shards[0].eng), want) {
			t.Fatalf("batches of %d leave another state than batches of 1", bs)
		}
	}
}

// TestContractWireRoundTrip: a summary restored from its own frame by
// wire.Decode + wrap — what the Aggregator does — re-encodes to the same
// bytes and answers Query identically.
func TestContractWireRoundTrip(t *testing.T) {
	pkts := testStream(32, 20000, 5)
	at := pkts[len(pkts)-1].Ts
	forEachEngine(t, func(t *testing.T, cfg Config) {
		single, err := NewSingle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		single.ObserveBatch(pkts)
		frame := mustEncode(t, single.eng)
		if f, err := wire.Verify(frame); err != nil || f.Header.Kind != cfg.Engine.row().wire {
			t.Fatalf("frame header %+v, %v; the row declares wire kind %v", f.Header, err, cfg.Engine.row().wire)
		}
		e, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := wrap(e, cfg.Phi)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustEncode(t, restored), frame) {
			t.Fatal("restored summary re-encodes differently")
		}
		got, gotMass := restored.Query(at)
		want, wantMass := single.eng.Query(at)
		sameSet(t, "restored query", got, want)
		if gotMass != wantMass || want.Len() == 0 {
			t.Fatalf("restored mass %d, original %d (%d items)", gotMass, wantMass, want.Len())
		}
	})
}

// TestContractAggregatorMatchesBarrier: two summaries of a partitioned
// stream folded the way a shard barrier folds them — a fresh accumulator's
// Fold of the round — equal the Aggregator's fold of their two sealed
// frames: completeBarrier and Aggregator.fold are one contract. The stream
// has fewer distinct sources than counters, so the sketch merges are
// lossless and the comparison does not depend on the order the aggregator
// folds frames.
func TestContractAggregatorMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pkts := make([]trace.Packet, 20000)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Ts:   int64(i) * int64(4*time.Second) / int64(len(pkts)),
			Src:  addr.From4(10, byte(rng.Intn(3)), byte(rng.Intn(3)*rng.Intn(2)), byte(rng.Intn(8))),
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	at := pkts[len(pkts)-1].Ts + 1
	forEachEngine(t, func(t *testing.T, cfg Config) {
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		var halves [2]Summary
		parts := [2]*trace.KeyBatch{trace.NewKeyBatch(0), trace.NewKeyBatch(0)}
		for i := range halves {
			s, err := newSummary(&cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			halves[i] = s
		}
		for i := range pkts {
			key := cfg.Hierarchy.Key(pkts[i].Src, 0)
			parts[hashx.Bucket(hashx.Mix64(key), 2)].Append(key, pkts[i].Size, pkts[i].Ts)
		}
		acc, err := newSummary(&cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: cfg.Phi})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		for i, s := range halves {
			s.UpdateKeys(parts[i])
			s.Advance(at)
			sealed := Sealed{Seq: 1, Start: at - int64(cfg.Window), End: at, Frame: mustEncode(t, s)}
			if err := agg.Ingest(string(rune('a'+i)), sealed); err != nil {
				t.Fatal(err)
			}
		}
		acc.Fold(halves[:]...)
		want, wantMass := acc.Query(at)
		rep := agg.Report()
		sameSet(t, "aggregated", rep.Set, want)
		if rep.Bytes != wantMass || rep.Nodes != 2 || want.Len() == 0 {
			t.Fatalf("aggregated mass %d over %d nodes, barrier merge %d (%d items)",
				rep.Bytes, rep.Nodes, wantMass, want.Len())
		}
	})
}

// TestContractCapacityIsNotOutput: a Space-Saving table's storage grows
// with the entries it holds, up to its capacity, and a reset keeps it. So
// a pipeline whose tables were once flooded to capacity holds more storage
// than its twin — and that must be all that differs. Emptied by a window
// close, or in the sliding model by the flooded frames' expiry, its tables
// seal and report byte for byte what the twin's do on the same stream
// after. The twin's first window carries as many packets, from one
// source: RHHH's level sampler steps once per packet, flood or not.
func TestContractCapacityIsNotOutput(t *testing.T) {
	const sec = int64(time.Second)
	rng := rand.New(rand.NewSource(36))
	flood, quiet := make([]trace.Packet, 40000), make([]trace.Packet, 40000) // [0, 2 s)
	for i := range flood {
		ts := int64(i) * 2 * sec / int64(len(flood))
		flood[i] = trace.Packet{Ts: ts, Src: addr.From4Uint32(rng.Uint32()), Size: 64}
		quiet[i] = trace.Packet{Ts: ts, Src: addr.From4(10, 0, 0, 1), Size: 64}
	}
	pkts := testStream(36, 20000, 6) // [2 s, 8 s) once shifted
	for i := range pkts {
		pkts[i].Ts += 2 * sec
	}
	forEachEngine(t, func(t *testing.T, cfg Config) {
		if k := cfg.Engine; k != KindPerLevel && k != KindRHHH && k != KindWCSS {
			t.Skip("no Space-Saving tables")
		}
		run := func(first []trace.Packet) (frames [][]byte, reps []hhh.Set, size int) {
			var col sealCollector
			c := cfg
			c.OnSeal = col.add
			d, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.ObserveBatch(first)
			fed := 0
			for at := 2 * sec; at <= 8*sec; at += sec / 2 {
				n := fed
				for n < len(pkts) && pkts[n].Ts < at {
					n++
				}
				d.ObserveBatch(pkts[fed:n])
				fed = n
				d.ResyncSeal() // every sliding seal a full frame: no delta base in common
				if set := d.Snapshot(at); at >= 4*sec {
					reps = append(reps, set)
				}
			}
			size = d.SizeBytes()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for _, s := range col.all() {
				if s.Start >= 2*sec { // the first window and its frames are gone
					frames = append(frames, s.Frame)
				}
			}
			return frames, reps, size
		}
		wantFrames, wantReps, twinSize := run(quiet)
		frames, reps, floodedSize := run(flood)
		if floodedSize <= twinSize {
			t.Fatalf("the flooded pipeline holds %d B, its twin %d: the flood grew no table", floodedSize, twinSize)
		}
		if len(frames) != len(wantFrames) || len(frames) < 3 {
			t.Fatalf("%d sealed frames after the flood, %d after the quiet window", len(frames), len(wantFrames))
		}
		for i := range frames {
			if !bytes.Equal(frames[i], wantFrames[i]) {
				t.Fatalf("sealed frame %d differs from the twin's", i)
			}
		}
		for i := range reps {
			sameSet(t, "report", reps[i], wantReps[i])
		}
		if wantReps[len(wantReps)-1].Len() == 0 {
			t.Fatal("empty final report proves nothing")
		}
		t.Logf("%d frames and %d reports identical; state %d B flooded, %d B twin", len(frames), len(reps), floodedSize, twinSize)
	})
}
