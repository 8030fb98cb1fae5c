package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/chaos"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
)

// dualStackStream builds a time-ordered stream of n packets over six
// one-second windows with both families interleaved at random — except
// window 2, which is all IPv4, and window 4, all IPv6, so under either
// family's hierarchy one whole window dies in the family filter. Sources
// are skewed (a few heavy ones) and sizes vary per packet.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(6*time.Second) / int64(n)
	for i := range out {
		ts := int64(i) * step
		v6 := rng.Intn(2) == 0
		switch ts / int64(time.Second) {
		case 2:
			v6 = false
		case 4:
			v6 = true
		}
		id := uint64(rng.Intn(400))
		if rng.Intn(4) == 0 {
			id = uint64(rng.Intn(4))
		}
		src := addr.From4Uint32(10<<24 | uint32(id*2654435761>>12))
		if v6 {
			src = addr.FromParts(0x2001_0db8_0000_0000|id*0x9e37_79b1>>8&0xffff_ffff, id)
		}
		out[i] = trace.Packet{Ts: ts, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// stageEvent is one thing a shard's worker did, as seen from the chaos
// seam: it was about to absorb a batch, or to register at a barrier.
// absorbed is the shard's packet counter at that moment, so two runs with
// equal event lists handed that shard batches of the same sizes, in the
// same order, with the barrier tokens between the same batches.
type stageEvent struct {
	barrier  bool
	absorbed int64
}

// stageLog records every shard's events. Each shard's list is appended to
// by that shard's worker only and read after Close.
type stageLog struct {
	d      *Sharded
	events [][]stageEvent
}

func (l *stageLog) BeforeBatch(shard int) {
	l.events[shard] = append(l.events[shard], stageEvent{false, l.d.shards[shard].packets.Load()})
}

func (l *stageLog) BeforeBarrier(shard int) {
	l.events[shard] = append(l.events[shard], stageEvent{true, l.d.shards[shard].packets.Load()})
}

// stagedRun is everything one way of feeding a stream leaves behind.
type stagedRun struct {
	events   [][]stageEvent
	seals    []Sealed
	barriers int64
	stats    Stats
}

// feedStaged runs pkts through a windowed RHHH pipeline (its level draws
// make the sealed bytes depend on the order packets reach a shard in),
// handing them over as feed dictates, and closes every window.
func feedStaged(t *testing.T, shards int, h addr.Hierarchy, pkts []trace.Packet, feed func(d *Sharded)) stagedRun {
	t.Helper()
	log := &stageLog{events: make([][]stageEvent, shards)}
	var col sealCollector
	d, err := New(Config{
		Shards: shards, Window: time.Second, Phi: 0.02, Engine: KindRHHH, Counters: 64,
		Hierarchy: h, Seed: 11, Batch: 64, Chaos: log, OnSeal: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	log.d = d
	feed(d)
	d.Snapshot(pkts[len(pkts)-1].Ts + int64(time.Second))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.shards {
		log.events[i] = append(log.events[i], stageEvent{false, s.packets.Load()})
	}
	st := d.Stats()
	st.QueueDepth, st.SizeBytes = nil, 0 // not a property of the staging
	return stagedRun{log.events, col.all(), d.barrierSeq.Load(), st}
}

// TestStageRunEquivalence: however a stream is cut into runs — one packet
// at a time, one run that straddles every window boundary, arbitrary
// chunks — every shard receives the same batches in the same order
// between the same barriers, every sealed frame is the same bytes and the
// ingest totals agree; a window whose every packet is filtered closes as
// an empty one, without a barrier.
func TestStageRunEquivalence(t *testing.T) {
	pkts := dualStackStream(5, 9000)
	hiers := []addr.Hierarchy{addr.NewIPv4Hierarchy(addr.Byte), addr.NewIPv6Hierarchy(addr.Hextet)}
	for _, h := range hiers {
		var wantFiltered, wantBytes int64
		for i := range pkts {
			wantBytes += int64(pkts[i].Size)
			if !h.Match(pkts[i].Src) {
				wantFiltered++
			}
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/K=%d", h, shards), func(t *testing.T) {
				ref := feedStaged(t, shards, h, pkts, func(d *Sharded) {
					for i := range pkts {
						d.ObserveBatch(pkts[i : i+1])
					}
				})
				if ref.stats.Packets != int64(len(pkts)) || ref.stats.Bytes != wantBytes ||
					ref.stats.FilteredPackets != wantFiltered {
					t.Fatalf("per-packet totals %d packets / %d bytes / %d filtered, want %d / %d / %d",
						ref.stats.Packets, ref.stats.Bytes, ref.stats.FilteredPackets, len(pkts), wantBytes, wantFiltered)
				}
				// Six windows close, five with traffic of this family: the
				// filtered-out window must not cost a barrier.
				if len(ref.seals) != 6 || ref.barriers != 5 {
					t.Fatalf("%d seals, %d barriers; want 6 and 5", len(ref.seals), ref.barriers)
				}
				feeds := map[string]func(d *Sharded){
					"whole": func(d *Sharded) { d.ObserveBatch(pkts) },
				}
				for _, seed := range []int64{1, 2, 3} {
					rng := rand.New(rand.NewSource(seed))
					limit := []int{7, 300, 4000}[seed-1] // sub-batch, sub-window, multi-window runs
					feeds[fmt.Sprintf("chunks<=%d", limit)] = func(d *Sharded) {
						for rest := pkts; len(rest) > 0; {
							n := min(1+rng.Intn(limit), len(rest))
							d.ObserveBatch(rest[:n])
							rest = rest[n:]
						}
					}
				}
				for name, feed := range feeds {
					got := feedStaged(t, shards, h, pkts, feed)
					if !reflect.DeepEqual(got.events, ref.events) {
						t.Errorf("%s: per-shard batch sequences differ from runs of one", name)
					}
					if !reflect.DeepEqual(got.stats, ref.stats) || got.barriers != ref.barriers {
						t.Errorf("%s: stats %+v (%d barriers), per-packet %+v (%d)", name, got.stats, got.barriers, ref.stats, ref.barriers)
					}
					if len(got.seals) != len(ref.seals) {
						t.Fatalf("%s: %d seals, per-packet %d", name, len(got.seals), len(ref.seals))
					}
					for i, s := range got.seals {
						r := ref.seals[i]
						if s.Start != r.Start || s.End != r.End || !bytes.Equal(s.Frame, r.Frame) {
							t.Errorf("%s: seal %d [%d,%d) differs from runs of one", name, i, s.Start, s.End)
						}
					}
				}
			})
		}
	}
}

// TestFilteredAccounting closes the books on a dual-stack replay: after
// Close every packet offered was absorbed by a shard, shed, or filtered —
// exactly once — without loss under OverloadBlock and with a blocked
// shard shedding under OverloadShed, and /metrics serves the filtered
// total in a conforming exposition, equal to Stats.
func TestFilteredAccounting(t *testing.T) {
	pkts := dualStackStream(8, 12000)
	h := addr.NewIPv6Hierarchy(addr.Nibble)
	var wantFiltered int64
	for i := range pkts {
		if !h.Match(pkts[i].Src) {
			wantFiltered++
		}
	}
	for _, overload := range []Overload{OverloadBlock, OverloadShed} {
		t.Run(overload.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			plan := chaos.New()
			cfg := Config{
				Mode: ModeSliding, Shards: 4, Window: time.Second, Phi: 0.05, Counters: 64,
				Hierarchy: h, Batch: 32, RingDepth: 8, Overload: overload, Chaos: plan, Metrics: reg,
			}
			if overload == OverloadShed {
				cfg.ShedWait, cfg.BarrierTimeout = time.Millisecond, 50*time.Millisecond
			}
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			release := func() {}
			if overload == OverloadShed {
				var v6 addr.Addr
				for i := range pkts {
					if h.Match(pkts[i].Src) {
						v6 = pkts[i].Src
						break
					}
				}
				release = plan.BlockShard(d.shardOf(v6))
			}
			for i := 0; i < len(pkts); i += 500 {
				d.ObserveBatch(pkts[i:min(i+500, len(pkts))])
			}
			release()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			st := d.Stats()
			var absorbed int64
			for _, n := range st.ShardPackets {
				absorbed += n
			}
			if st.Packets != int64(len(pkts)) || st.FilteredPackets != wantFiltered {
				t.Fatalf("ingest %d packets, %d filtered; want %d and %d", st.Packets, st.FilteredPackets, len(pkts), wantFiltered)
			}
			if st.Packets != absorbed+st.DroppedPackets+st.FilteredPackets {
				t.Fatalf("ingest %d != absorbed %d + shed %d + filtered %d",
					st.Packets, absorbed, st.DroppedPackets, st.FilteredPackets)
			}
			if shed := st.DroppedPackets > 0; shed != (overload == OverloadShed) {
				t.Fatalf("%v: %d packets shed", overload, st.DroppedPackets)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
				t.Fatalf("exposition does not conform: %v", err)
			}
			want := fmt.Sprintf("\nhhh_pipeline_filtered_packets_total %d\n", st.FilteredPackets)
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("exposition lacks %q", strings.TrimSpace(want))
			}
		})
	}
}
