package pipeline

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/chaos"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
)

// shedStream builds a fixed-size-packet stream (Size 100) so byte
// accounting is exactly 100x packet accounting in every assertion.
func shedStream(n int, spanSec int) []trace.Packet {
	out := make([]trace.Packet, n)
	step := int64(spanSec) * int64(time.Second) / int64(n)
	for i := range out {
		out[i] = trace.Packet{
			Ts:   int64(i) * step,
			Src:  addr.From4Uint32(10<<24 | uint32(i%251)<<8 | uint32(i%17)),
			Size: 100,
		}
	}
	return out
}

// shardOf is the shard a source address is staged onto: the producer's
// own partition rule applied to the source's packed leaf key.
func (d *Sharded) shardOf(src addr.Addr) int {
	return shardOfKey(d.cfg.Hierarchy.Key(src, 0), len(d.shards))
}

// twoShardSources finds one source per shard of a 2-shard pipeline.
func twoShardSources(t *testing.T, d *Sharded) [2]addr.Addr {
	t.Helper()
	var srcs [2]addr.Addr
	found := [2]bool{}
	for i := uint32(1); i < 1000; i++ {
		a := addr.From4Uint32(10<<24 | i)
		si := d.shardOf(a)
		if !found[si] {
			srcs[si], found[si] = a, true
		}
		if found[0] && found[1] {
			return srcs
		}
	}
	t.Fatal("could not find sources for both shards")
	return srcs
}

// TestShedStalledShardExactAccounting stalls one shard under
// OverloadShed and checks the accounting is exact and isolated: every
// packet routed to the stalled shard is either absorbed or counted
// dropped (never both, never lost), and the healthy shards drop nothing.
// Stats/Degradation readers run concurrently throughout, Snapshot is
// interleaved with ingest, and Close races a final Snapshot.
func TestShedStalledShardExactAccounting(t *testing.T) {
	plan := chaos.New()
	d, err := New(Config{
		Mode:           ModeSliding,
		Shards:         4,
		Window:         time.Second,
		Phi:            0.05,
		Counters:       64,
		Batch:          32,
		RingDepth:      8,
		Overload:       OverloadShed,
		ShedWait:       20 * time.Millisecond,
		BarrierTimeout: 100 * time.Millisecond,
		Chaos:          plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := shedStream(2000, 2)
	target := d.shardOf(pkts[0].Src)
	release := plan.BlockShard(target)

	// Concurrent readers for the whole run: the introspection surface is
	// documented safe against ingest.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.Stats()
				d.Degradation()
				d.SizeBytes()
			}
		}
	}()

	routed := make([]int64, 4)
	for i := range pkts {
		routed[d.shardOf(pkts[i].Src)]++
	}
	for i := 0; i < len(pkts); i += 100 {
		end := i + 100
		if end > len(pkts) {
			end = len(pkts)
		}
		if err := d.TryObserveBatch(pkts[i:end]); err != nil {
			t.Fatalf("TryObserveBatch: %v", err)
		}
		if i%800 == 0 {
			// Interleaved snapshots must return within the barrier
			// deadline despite the stalled shard.
			begin := time.Now()
			d.Snapshot(pkts[end-1].Ts)
			if el := time.Since(begin); el > 2*time.Second {
				t.Fatalf("Snapshot took %v with a stalled shard", el)
			}
		}
	}

	if dp, _ := d.DroppedMass(); dp == 0 {
		t.Fatal("expected the stalled shard to shed batches, dropped nothing")
	}

	// Release the shard and race Close with a Snapshot.
	release()
	var closer sync.WaitGroup
	closer.Add(1)
	go func() {
		defer closer.Done()
		d.Snapshot(pkts[len(pkts)-1].Ts)
	}()
	if err := d.Close(); err != nil {
		t.Fatalf("Close after release: %v", err)
	}
	closer.Wait()
	close(stop)
	readers.Wait()

	st := d.Stats()
	deg := d.Degradation()
	for i := 0; i < 4; i++ {
		if i != target {
			if deg.ShardDroppedPackets[i] != 0 || deg.ShardDroppedBytes[i] != 0 {
				t.Errorf("healthy shard %d dropped %d pkts / %d bytes, want 0",
					i, deg.ShardDroppedPackets[i], deg.ShardDroppedBytes[i])
			}
		}
		// Conservation: absorbed + dropped == routed, per shard. (Sliding
		// mode has no reset barriers, so no summary mass is ever re-shed
		// and the two counters partition the routed packets exactly.)
		got := st.ShardPackets[i] + deg.ShardDroppedPackets[i]
		if got != routed[i] {
			t.Errorf("shard %d: absorbed %d + dropped %d = %d, want routed %d",
				i, st.ShardPackets[i], deg.ShardDroppedPackets[i], got, routed[i])
		}
		if deg.ShardDroppedBytes[i] != 100*deg.ShardDroppedPackets[i] {
			t.Errorf("shard %d: dropped %d bytes for %d packets of size 100",
				i, deg.ShardDroppedBytes[i], deg.ShardDroppedPackets[i])
		}
	}
	if deg.DroppedPackets == 0 || target < 0 {
		t.Errorf("stalled shard %d dropped nothing", target)
	}
}

// TestBarrierDeadlineDegradedWindow stalls one of two shards across a
// window close: the window must publish degraded within the deadline
// carrying exactly the healthy shard's mass; after the stall clears, the
// straggler's unmerged window slice is shed with exact accounting and
// the next window publishes whole again.
func TestBarrierDeadlineDegradedWindow(t *testing.T) {
	plan := chaos.New()
	d, err := New(Config{
		Mode:           ModeWindowed,
		Shards:         2,
		Window:         time.Second,
		Phi:            0.1,
		Engine:         KindExact,
		Batch:          1, // push every packet immediately: no staging latency
		RingDepth:      64,
		BarrierTimeout: 200 * time.Millisecond,
		Chaos:          plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srcs := twoShardSources(t, d)
	const stalled, healthy = 0, 1
	release := plan.BlockShard(stalled)

	sec := int64(time.Second)
	mk := func(ts int64, src addr.Addr) trace.Packet { return trace.Packet{Ts: ts, Src: src, Size: 100} }
	// Window 1: 5 packets on the stalled shard, 3 on the healthy one.
	var w1 []trace.Packet
	for i := int64(0); i < 5; i++ {
		w1 = append(w1, mk(sec/10+i, srcs[stalled]))
	}
	for i := int64(0); i < 3; i++ {
		w1 = append(w1, mk(sec/5+i, srcs[healthy]))
	}
	if err := d.TryObserveBatch(w1); err != nil {
		t.Fatal(err)
	}
	// Crossing into window 2 closes window 1; its barrier can only gather
	// the healthy shard.
	if err := d.TryObserveBatch([]trace.Packet{
		mk(sec+sec/10, srcs[stalled]), mk(sec+sec/10, srcs[healthy]),
	}); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	d.Snapshot(sec + sec/2)
	if el := time.Since(begin); el > 2*time.Second {
		t.Fatalf("degraded window snapshot took %v", el)
	}
	st := d.Stats()
	if !st.LastWindowDegraded || st.LastWindowShards != 1 {
		t.Fatalf("window 1 published degraded=%v shards=%d, want degraded with 1 shard",
			st.LastWindowDegraded, st.LastWindowShards)
	}
	if got := d.ReportMass(0); got != 300 {
		t.Fatalf("degraded window mass %d, want the healthy shard's 300", got)
	}
	if st.ShardLag[stalled] == 0 {
		t.Error("stalled shard reports zero barrier lag")
	}

	// Clear the stall: the straggler reaches the sealed window-1 token,
	// sheds its unmerged 5-packet slice, and rejoins. Window 2 then
	// closes whole.
	release()
	if err := d.TryObserveBatch([]trace.Packet{
		mk(sec+2*sec/10, srcs[stalled]), mk(sec+2*sec/10, srcs[healthy]),
	}); err != nil {
		t.Fatal(err)
	}
	d.Snapshot(2*sec + sec/2)
	st = d.Stats()
	if st.LastWindowDegraded || st.LastWindowShards != 2 {
		t.Fatalf("window 2 published degraded=%v shards=%d, want whole with 2 shards",
			st.LastWindowDegraded, st.LastWindowShards)
	}
	if got := d.ReportMass(0); got != 400 {
		t.Fatalf("window 2 mass %d, want 400", got)
	}
	deg := d.Degradation()
	if deg.ShardDroppedPackets[stalled] != 5 || deg.ShardDroppedBytes[stalled] != 500 {
		t.Errorf("straggler shed %d pkts / %d bytes, want exactly its window-1 slice (5 / 500)",
			deg.ShardDroppedPackets[stalled], deg.ShardDroppedBytes[stalled])
	}
	if deg.ShardDroppedPackets[healthy] != 0 {
		t.Errorf("healthy shard shed %d packets, want 0", deg.ShardDroppedPackets[healthy])
	}
	if deg.DegradedMerges != 1 {
		t.Errorf("degraded merges %d, want 1", deg.DegradedMerges)
	}
}

// TestPanicQuarantine injects an engine panic on one shard of a fully
// lossless (no deadlines) pipeline: the shard is quarantined with its
// substream shed and accounted, its barrier peers never deadlock, and
// merges stay whole (the quarantined shard answers with a fresh empty
// summary).
func TestPanicQuarantine(t *testing.T) {
	plan := chaos.New()
	d, err := New(Config{
		Mode:      ModeWindowed,
		Shards:    2,
		Window:    time.Second,
		Phi:       0.1,
		Engine:    KindExact,
		Batch:     1,
		RingDepth: 64,
		Chaos:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srcs := twoShardSources(t, d)
	const victim, healthy = 0, 1
	plan.PanicNextBatch(victim)

	sec := int64(time.Second)
	mk := func(ts int64, src addr.Addr) trace.Packet { return trace.Packet{Ts: ts, Src: src, Size: 100} }
	var w1 []trace.Packet
	for i := int64(0); i < 4; i++ {
		w1 = append(w1, mk(sec/10+i, srcs[victim]))
	}
	for i := int64(0); i < 3; i++ {
		w1 = append(w1, mk(sec/5+i, srcs[healthy]))
	}
	if err := d.TryObserveBatch(w1); err != nil {
		t.Fatal(err)
	}
	if err := d.TryObserveBatch([]trace.Packet{mk(sec+sec/10, srcs[healthy])}); err != nil {
		t.Fatal(err)
	}
	d.Snapshot(sec + sec/2) // unbounded barrier wait: must not deadlock

	if got := d.ReportMass(0); got != 300 {
		t.Fatalf("window mass %d, want the healthy shard's 300", got)
	}
	st := d.Stats()
	if st.LastWindowDegraded || st.LastWindowShards != 2 {
		t.Errorf("quarantined shard must still answer barriers: degraded=%v shards=%d",
			st.LastWindowDegraded, st.LastWindowShards)
	}
	deg := d.Degradation()
	if deg.Panics != 1 || !strings.Contains(deg.LastPanic, "chaos") {
		t.Errorf("panics=%d lastPanic=%q, want 1 recovered chaos panic", deg.Panics, deg.LastPanic)
	}
	if len(deg.Quarantined) != 1 || deg.Quarantined[0] != victim {
		t.Errorf("quarantined=%v, want [%d]", deg.Quarantined, victim)
	}
	if deg.ShardDroppedPackets[victim] != 4 || deg.ShardDroppedBytes[victim] != 400 {
		t.Errorf("victim shed %d pkts / %d bytes, want its whole substream (4 / 400)",
			deg.ShardDroppedPackets[victim], deg.ShardDroppedBytes[victim])
	}
	if deg.ShardDroppedPackets[healthy] != 0 {
		t.Errorf("healthy shard shed %d packets, want 0", deg.ShardDroppedPackets[healthy])
	}
}

// TestNoFaultShedConfigIdentical pins the degradation layer's zero-cost
// default: a pipeline with shedding and barrier deadlines configured but
// no fault firing publishes byte-identical windows to the plain blocking
// pipeline, and declares zero degradation.
func TestNoFaultShedConfigIdentical(t *testing.T) {
	pkts := testStream(9, 30000, 6)
	run := func(degradable bool) []string {
		var sets []string
		cfg := Config{
			Shards: 4,
			Window: time.Second,
			Phi:    0.02,
			Engine: KindRHHH,
			Seed:   77,
			OnWindow: func(start, end int64, set hhh.Set) {
				sets = append(sets, set.String())
			},
		}
		if degradable {
			cfg.Overload = OverloadShed
			cfg.ShedWait = time.Second // generous: never trips without a fault
			cfg.BarrierTimeout = 10 * time.Second
			cfg.Chaos = chaos.New() // armed with nothing
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveBatch(pkts)
		d.Snapshot(pkts[len(pkts)-1].Ts + int64(time.Second))
		if degradable {
			deg := d.Degradation()
			if deg.DroppedPackets != 0 || deg.DegradedMerges != 0 || deg.Panics != 0 {
				t.Errorf("no-fault run declared degradation: %+v", deg)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return sets
	}
	plain, degradable := run(false), run(true)
	if len(plain) != len(degradable) {
		t.Fatalf("window counts differ: %d vs %d", len(plain), len(degradable))
	}
	for i := range plain {
		if plain[i] != degradable[i] {
			t.Errorf("window %d differs between blocking and no-fault shed config:\n%s\n%s",
				i, plain[i], degradable[i])
		}
	}
}
