package hiddenhhh

import (
	"runtime"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// TestShardedKeyBatchZeroAlloc asserts the columnar ingest path's
// steady-state allocation contract: once the per-shard freelists and
// sketch state are warm, staging a packet into its shard's KeyBatch,
// handing full batches across the ring, and absorbing them into the
// engine allocates nothing per packet — the batch buffers cycle
// producer → ring → worker → freelist → producer. The sharded benchmarks
// report the same number as allocs/op and the bench/ module's
// alloc_bytes_per_pkt the end-to-end figure; this test turns it into a
// hard regression guard.
//
// The per-level engine's coalescing block is part of that state: each
// shard allocates one on its first batch, fills and applies it several
// times per measured run, and reports it in SizeBytes. So are a
// Space-Saving table's entries, which grow with the keys it holds, and its
// bucket ring, built at the table's first eviction: the warm-up grows the
// detector's footprint by one block per shard, and per shard by two tables
// filled to capacity and evicting — the /32 and /24 levels — and three
// that hold the first step of entries — the /16, /8 and root levels hold
// 7, 1 and 1 keys — and by nothing for the merge accumulator, which never
// ingests. The measured runs grow it by 0.
func TestShardedKeyBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const shards = 4
	pkts := propStream(31, 40000, 4)
	probe := hhh.NewPerLevel(addr.NewIPv4Hierarchy(addr.Byte), 8)
	block := -probe.SizeBytes()
	probe.UpdateKeys(trace.NewKeyBatch(0))
	if block += probe.SizeBytes(); block != hhh.BlockBytes || block > 16<<10 {
		t.Fatalf("a coalescing block is counted as %d B; want hhh.BlockBytes = %d, at most 16 KiB", block, hhh.BlockBytes)
	}
	const k = 512
	// grown is what a table of capacity k grows by taking n keys.
	grown := func(n int) int {
		table := sketch.NewSpaceSaving(k)
		fresh := table.SizeBytes()
		for key := 0; key < n; key++ {
			table.Update(uint64(key), 1)
		}
		return table.SizeBytes() - fresh
	}
	evicting, small := grown(k+1), grown(1) // the k+1st key evicts
	// A window longer than the trace keeps window-close merges (which
	// legitimately allocate result sets) out of the measurement.
	det, err := NewShardedDetector(ShardedConfig{
		Shards: shards, Window: time.Hour, Phi: 0.05, Engine: EnginePerLevel, Counters: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	empty := det.SizeBytes()

	// Warm-up: fill the freelists, grow the staging columns to capacity
	// and let every shard's sketch reach its counter budget, so the
	// measured runs exercise pure reuse.
	for round := 0; round < 3; round++ {
		if err := det.TryObserveBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}
	warm := det.SizeBytes()
	if grew := warm - empty; grew != shards*(block+2*evicting+3*small) {
		t.Fatalf("footprint grew by %d B over the warm-up; want %d shards x (%d B block + 2 x %d B evicting table + 3 x %d B small table)",
			grew, shards, block, evicting, small)
	}

	const chunk = 2048
	distinct := map[Addr]bool{}
	for i := range pkts[:chunk] {
		distinct[pkts[i].Src] = true
	}
	if len(distinct) < 2*hhh.BlockKeys { // half a block of distinct keys per shard and run: the blocks fill while measured
		t.Fatalf("%d distinct sources in a %d-packet run: blocks would not fill", len(distinct), chunk)
	}
	var off int
	avg := testing.AllocsPerRun(20, func() {
		if off+chunk > len(pkts) {
			off = 0
		}
		if err := det.TryObserveBatch(pkts[off : off+chunk]); err != nil {
			t.Fatal(err)
		}
		off += chunk
	})
	// The budget is per run of `chunk` packets, covering producer and
	// worker side together (AllocsPerRun counts process-wide mallocs).
	// Steady state is zero; a handful of stragglers (a late freelist
	// miss while a worker still holds buffers) stay under 1 alloc per
	// 100 packets. A per-packet or per-batch allocation regression shows
	// up as >= chunk/Batch allocs and fails loudly.
	if perPacket := avg / chunk; perPacket > 0.01 {
		t.Fatalf("sharded ingest allocates %.1f allocs per %d-packet batch (%.4f/packet); want ~0",
			avg, chunk, perPacket)
	}
	if grew := det.SizeBytes() - warm; grew != 0 {
		t.Fatalf("footprint grew by %d B over the measured runs; want 0", grew)
	}
}

// TestContinuousObserveKeysZeroAlloc is the same contract for the
// continuous detector's per-packet body: filter writes, the entry check,
// the exit sweep every 64th packet and the re-indexing of the active set
// after an admission or an exit all run on storage the detector already
// holds. Each measured run replays 0.4 s of traffic (64 sweeps) in which
// the heavy host alternates, so every run admits one host and sweeps the
// other out.
func TestContinuousObserveKeysZeroAlloc(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	enters, exits := 0, 0
	det, err := continuous.NewDetector(continuous.Config{
		Hierarchy: h,
		Phi:       0.05,
		Filter:    tdbf.Config{Cells: 1 << 12, Hashes: 4, Decay: tdbf.Exponential{Tau: 100 * time.Millisecond}},
		OnEnter:   func(addr.Prefix, int64) { enters++ },
		OnExit:    func(addr.Prefix, int64) { exits++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	span := int64(400 * time.Millisecond)
	pkts := propStream(33, n, 1)
	var batches [2]*trace.KeyBatch
	for parity := range batches {
		heavy := addr.From4(172, 16, byte(parity), 9)
		kb := trace.NewKeyBatch(n)
		for i := range pkts {
			src := pkts[i].Src
			if i%3 == 0 {
				src = heavy
			}
			kb.Append(h.Key(src, 0), pkts[i].Size, int64(i)*span/n)
		}
		batches[parity] = kb
	}
	run := 0
	replay := func() {
		det.ObserveKeys(batches[run%2])
		for _, b := range batches {
			for i := range b.Ts {
				b.Ts[i] += span
			}
		}
		run++
	}
	for run < 6 { // past the warm-up, both hosts admitted and dropped once
		replay()
	}
	enters, exits = 0, 0
	if avg := testing.AllocsPerRun(10, replay); avg != 0 {
		t.Fatalf("continuous ObserveKeys allocates %.1f times per %d-packet batch; want 0", avg, n)
	}
	if enters < 10 || exits < 10 {
		t.Fatalf("measured runs exercised nothing: %d admissions, %d exits", enters, exits)
	}
}

// TestSlidingSnapshotAllocBudget bounds what a steady-state sliding
// Snapshot allocates on a sharded detector that seals: the frame handed
// to OnSeal (one allocation of its final size), the returned Set, and the
// barrier's own bookkeeping (token, report, source list). The merge runs
// on storage the accumulator already holds — candidate enumeration,
// discount tables — and on the merge scratch sketch.SpaceSaving.MergeAll
// keeps in its pool, so nothing in the budget scales with the ring or the
// counters. Under the race detector, whose sync.Pool drops items at
// random, the snapshots still run but the budget is not held.
func TestSlidingSnapshotAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	var frameLen int
	det, err := NewShardedDetector(ShardedConfig{
		Mode: ModeSliding, Shards: 2, Window: 4 * time.Second, Frames: 8, Phi: 0.05, Counters: 256,
		OnSeal: func(s SealedSummary) { frameLen = len(s.Frame) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	pkts := propStream(35, 120000, 12)
	const chunk = 2000 // 200 ms of the stream per snapshot
	var m0, m1 runtime.MemStats
	var allocated, frames uint64
	rounds := 0
	for off := 0; off+chunk <= len(pkts); off += chunk {
		det.ObserveBatch(pkts[off : off+chunk])
		at := pkts[off+chunk-1].Ts
		if at < int64(6*time.Second) { // warm-up: the ring fills, scratch grows to size
			det.Snapshot(at)
			continue
		}
		runtime.ReadMemStats(&m0)
		set := det.Snapshot(at)
		runtime.ReadMemStats(&m1)
		if set.Len() == 0 {
			t.Fatal("empty snapshot proves nothing")
		}
		allocated += m1.TotalAlloc - m0.TotalAlloc
		frames += uint64(frameLen)
		rounds++
	}
	// Beyond the frame: a large allocation is rounded up to whole 8 KiB
	// pages, and 4 KiB covers the Set (a dozen items), the barrier token
	// with its channel, the published report and the Sealed value.
	const slack = 8<<10 + 4<<10
	t.Logf("%d snapshots: %d B allocated per snapshot, %d B frame", rounds, allocated/uint64(rounds), frames/uint64(rounds))
	if perSnap, perFrame := allocated/uint64(rounds), frames/uint64(rounds); perSnap > perFrame+slack && !raceEnabled {
		t.Fatalf("a steady-state snapshot allocates %d B for a %d B frame (%d B over; budget %d B)",
			perSnap, perFrame, perSnap-perFrame, slack)
	}
}
