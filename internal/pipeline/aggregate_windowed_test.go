package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// windowedFleet seals the rounds of a windowed fleet: nodes summaries of
// cfg's engine, each fed its hash partition of one window of stream per
// round and sealed at the window's end.
func windowedFleet(t *testing.T, cfg Config, nodes, rounds int) [][]Sealed {
	t.Helper()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	width := int64(cfg.Window)
	pkts := wideStream(int64(40+nodes), 6000*rounds, time.Duration(rounds)*cfg.Window)
	sums := make([]Summary, nodes)
	for n := range sums {
		s, err := newSummary(&cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		sums[n] = s
	}
	out := make([][]Sealed, rounds)
	for w := range out {
		end := int64(w+1) * width
		parts := make([]*trace.KeyBatch, nodes)
		for n := range parts {
			parts[n] = trace.NewKeyBatch(0)
		}
		for _, p := range pkts {
			if p.Ts >= end-width && p.Ts < end {
				key := cfg.Hierarchy.Key(p.Src, 0)
				parts[hashx.Bucket(hashx.Mix64(key), nodes)].Append(key, p.Size, p.Ts)
			}
		}
		for n, s := range sums {
			s.Reset()
			s.UpdateKeys(parts[n])
			s.Advance(end)
			out[w] = append(out[w], Sealed{Seq: int64(w + 1), Start: end - width, End: end, Frame: s.Encode()})
		}
	}
	return out
}

// coldReport is what a fresh Aggregator, decoding every frame anew,
// publishes for one round.
func coldReport(t *testing.T, nodes int, phi float64, round []Sealed) *AggReport {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for n, s := range round {
		if err := agg.Ingest(fmt.Sprintf("node-%d", n), s); err != nil {
			t.Fatal(err)
		}
	}
	return agg.Report()
}

// allocated reports what one call of f allocates, in allocations
// (testing.AllocsPerRun) and in bytes, over twenty calls: the least of
// five such windows (leastAlloc).
func allocated(f func()) (allocs float64, bytes uint64) {
	const runs = 20
	allocs = math.Inf(1)
	bytes = leastAlloc(func() { allocs = min(allocs, testing.AllocsPerRun(runs, f)) })
	return allocs, bytes / (runs + 1) // AllocsPerRun warms up with one more call
}

// leastAlloc is the fewest bytes one of five calls of f allocates, read off
// the process-wide count: another goroutine's allocations can only add to a
// call's.
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func mustVerify(t *testing.T, frame []byte) wire.Frame {
	t.Helper()
	f, err := wire.Verify(frame)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// tables returns the storage a node summary restores into: its exact map,
// or its level summaries.
func tables(s Summary) []any {
	var out []any
	switch e := s.(type) {
	case *exactSummary:
		out = append(out, e.ex)
	case *perLevelSummary:
		for l := range e.d.Hierarchy().Levels() {
			out = append(out, e.d.LevelSummary(l))
		}
	}
	return out
}

// TestAggregatorWindowedRestoreInPlace: a windowed node's frame restores
// into the summary the node's previous round left — the same summary, the
// same tables — and every report equals the one a fresh Aggregator,
// decoding cold, publishes for that round. Once warm, a round's Ingest
// allocates less than roundBudget, report included (the merges take their
// scratch from sketch.SpaceSaving.MergeAll's pool).
func TestAggregatorWindowedRestoreInPlace(t *testing.T) {
	// roundBudget is a 64-counter level table laid out with 48-byte
	// entries, a 16-byte-slot index and its 8.25 KiB bucket ring: what each
	// level of each frame cost when every frame decoded into new tables.
	const rounds, roundBudget = 6, 13576
	for _, kind := range []Kind{KindExact, KindPerLevel, KindRHHH} {
		for _, nodes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v-%d", kind, nodes), func(t *testing.T) {
				cfg := rowConfig(int(kind))
				fleet := windowedFleet(t, cfg, nodes, rounds)
				agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: cfg.Phi})
				if err != nil {
					t.Fatal(err)
				}
				defer agg.Close()
				var kept [][]any
				for w, round := range fleet {
					for n, s := range round {
						if err := agg.Ingest(fmt.Sprintf("node-%d", n), s); err != nil {
							t.Fatal(err)
						}
					}
					if got, want := reportDigest(agg.Report()), reportDigest(coldReport(t, nodes, cfg.Phi, round)); got != want || agg.Report().Set.Len() == 0 {
						t.Fatalf("round %d: report %+v differs from a cold decode's", w, agg.Report())
					}
					for i, n := range agg.order {
						if n.sum == nil {
							t.Fatalf("round %d: %s keeps no summary", w, n.name)
						}
						if tb := append([]any{n.sum}, tables(n.sum)...); w == 0 {
							kept = append(kept, tb)
						} else if !slices.Equal(tb, kept[i]) {
							t.Fatalf("round %d: %s's frame did not restore into its summary of round 0", w, n.name)
						}
					}
				}
				// A frame restored into its node's summary allocates nothing
				// that grows with it (the level list; the exact summary's
				// header); a further window's Ingest — restore, fold, query,
				// publish: the frames of the first round again, under later
				// windows — less than roundBudget.
				n, f := agg.order[0], mustVerify(t, fleet[0][0].Frame)
				restoreAllocs, restoreBytes := allocated(func() {
					if _, _, _, err := restore(n.sum, sealedAt{}, f, cfg.Phi); err != nil {
						t.Fatal(err)
					}
				})
				last, w := fleet[rounds-1][0], int64(0)
				roundAllocs, roundBytes := allocated(func() {
					w++
					for n, s := range fleet[0] {
						s.Seq, s.Start, s.End = last.Seq+w, last.Start+w*int64(cfg.Window), last.End+w*int64(cfg.Window)
						if err := agg.Ingest(fmt.Sprintf("node-%d", n), s); err != nil {
							t.Fatal(err)
						}
					}
				})
				table := sketch.NewSpaceSaving(cfg.Counters).SizeBytes()
				t.Logf("%v, %d node(s): a restore %d B in %.0f allocations, a round %d B in %.0f; a level table is %d B",
					kind, nodes, restoreBytes, restoreAllocs, roundBytes, roundAllocs, table)
				if restoreBytes > 256 {
					t.Fatalf("a restore in place allocates %d B in %.0f allocations", restoreBytes, restoreAllocs)
				}
				if roundBytes >= roundBudget {
					t.Fatalf("a warm round allocates %d B, budget %d B", roundBytes, roundBudget)
				}
			})
		}
	}
}

// TestAggregatorWindowedRestoreCold: what cannot restore in place does not
// poison the rounds after it. A node whose capacity changes mid-stream gets
// new tables and publishes what a cold decode publishes; a corrupt frame
// rejects its round and drops its node's summary, and the node's next good
// frame restores cold.
func TestAggregatorWindowedRestoreCold(t *testing.T) {
	for _, kind := range []Kind{KindExact, KindPerLevel, KindRHHH} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := rowConfig(int(kind))
			fleet := windowedFleet(t, cfg, 2, 4)
			wider := cfg
			wider.Counters *= 2
			fleet[2][1] = windowedFleet(t, wider, 2, 4)[2][1] // node-1's third window, twice the counters
			agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: cfg.Phi, RoundGrace: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			ingest := func(w int, round []Sealed) error {
				var first error
				for n, s := range round {
					if err := agg.Ingest(fmt.Sprintf("node-%d", n), s); err != nil && first == nil {
						first = err
					}
				}
				if first == nil {
					if got, want := reportDigest(agg.Report()), reportDigest(coldReport(t, 2, cfg.Phi, round)); got != want {
						t.Fatalf("round %d: report %+v differs from a cold decode's", w, agg.Report())
					}
				}
				return first
			}
			for w := 0; w < 3; w++ {
				if err := ingest(w, fleet[w]); err != nil {
					t.Fatal(err)
				}
			}
			if kind != KindExact {
				if k := tables(agg.nodes["node-1"].sum)[0].(*sketch.SpaceSaving).Capacity(); k != wider.Counters {
					t.Fatalf("node-1's tables hold %d counters after its frame of %d", k, wider.Counters)
				}
			}

			// The frame's last entry — of the exact map, or of the last
			// level — counts -1 (the checksum made good again): everything
			// before it is restored by then.
			bad := slices.Clone(fleet[3])
			frame := slices.Clone(bad[1].Frame)
			n := len(frame) - 4
			count := n - 16 // key, count, error bound
			if kind == KindExact {
				count = n - 8 // key, count
			}
			binary.LittleEndian.PutUint64(frame[count:], ^uint64(0))
			binary.LittleEndian.PutUint32(frame[n:], crc32.ChecksumIEEE(frame[:n]))
			bad[1].Frame = frame
			if err := ingest(3, bad); !errors.Is(err, ErrFrameRejected) {
				t.Fatalf("corrupt frame: %v", err)
			}
			if agg.nodes["node-1"].sum != nil || agg.nodes["node-0"].sum == nil {
				t.Fatal("the corrupt frame's node kept its summary, or the other node lost its")
			}
			next := slices.Clone(fleet[0])
			for i := range next {
				next[i].Seq, next[i].Start, next[i].End = 10, fleet[3][i].End, fleet[3][i].End+int64(cfg.Window)
			}
			if err := ingest(4, next); err != nil {
				t.Fatal(err)
			}
			if agg.nodes["node-1"].sum == nil {
				t.Fatal("the node's next good frame did not bring it back")
			}
		})
	}
}
