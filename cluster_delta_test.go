package hiddenhhh

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hiddenhhh/internal/gen"
)

// TestDeltaSealsLeaveReportsUnchanged: the transport is not part of the
// answer. On the shape the end-to-end benchmark's sliding workload runs —
// hit-and-run-ddos through a two-shard EngineWCSS detector, ten-second
// window in eight frames, a report every second of trace, OnSeal into an
// Aggregator — seeds 1 to 20 publish, report for report, the same sets,
// counts, masses and spans whether the node seals deltas or is asked for a
// full frame before every snapshot; nothing is refused, late or rejected
// on the way, and the deltas are a fraction of the bytes.
func TestDeltaSealsLeaveReportsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty seeds of a 25 s scenario")
	}
	for seed := int64(1); seed <= 20; seed++ {
		pkts, err := GenerateTrace(gen.HitAndRunScenario(25*time.Second, seed))
		if err != nil {
			t.Fatal(err)
		}
		type side struct {
			det     ShardedDetector
			agg     *Aggregator
			bytes   int
			reports []string
		}
		var delta, full side
		for _, s := range []*side{&delta, &full} {
			if s.agg, err = NewAggregator(AggregatorConfig{Expected: 1, Phi: 0.05}); err != nil {
				t.Fatal(err)
			}
			s.det, err = NewShardedDetector(ShardedConfig{
				Mode: ModeSliding, Engine: EngineWCSS, Shards: 2, Window: 10 * time.Second, Frames: 8,
				Phi: 0.05, Counters: 512, Seed: uint64(seed),
				OnSeal: func(f SealedSummary) {
					s.bytes += len(f.Frame)
					if err := s.agg.Ingest("n", f); err != nil {
						t.Errorf("seed %d seal %d: %v (need-full: %v)", seed, f.Seq, err, errors.Is(err, ErrNeedFull))
					}
					r := s.agg.Report()
					s.reports = append(s.reports, fmt.Sprintf("%d [%d,%d] %d %v %v", r.Seq, r.Start, r.End, r.Bytes, r.Degraded, r.Set.Items()))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		fed := 0
		for at := int64(time.Second); at <= pkts[len(pkts)-1].Ts; at += int64(time.Second) {
			n := fed
			for n < len(pkts) && pkts[n].Ts <= at {
				n++
			}
			full.det.ResyncSeal()
			for _, s := range []*side{&delta, &full} {
				s.det.ObserveBatch(pkts[fed:n])
				s.det.Snapshot(at)
			}
			fed = n
		}
		for _, s := range []*side{&delta, &full} {
			if err := s.det.Close(); err != nil {
				t.Fatal(err)
			}
			if st := s.agg.Stats(); st.Rejected+st.LateFrames+st.Nodes[0].NeedFull != 0 {
				t.Fatalf("seed %d: aggregator stats %+v", seed, st)
			}
			s.agg.Close()
		}
		if len(delta.reports) < 20 || len(delta.reports) != len(full.reports) {
			t.Fatalf("seed %d: %d reports from deltas, %d from full frames", seed, len(delta.reports), len(full.reports))
		}
		for i, r := range full.reports {
			if delta.reports[i] != r {
				t.Fatalf("seed %d report %d:\n deltas      %s\n full frames %s", seed, i, delta.reports[i], r)
			}
		}
		if delta.bytes*3 > full.bytes {
			t.Errorf("seed %d: %d bytes sealed as deltas, %d as full frames", seed, delta.bytes, full.bytes)
		}
	}
}
