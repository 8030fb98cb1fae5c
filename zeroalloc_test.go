package hiddenhhh

import (
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// TestShardedKeyBatchZeroAlloc asserts the columnar ingest path's
// steady-state allocation contract: once the per-shard freelists and
// sketch state are warm, staging a packet into its shard's KeyBatch,
// handing full batches across the ring, and absorbing them into the
// engine allocates nothing per packet — the batch buffers cycle
// producer → ring → worker → freelist → producer. The sharded benchmarks
// report the same number as allocs/op (cmd/benchjson records it in the
// BENCH baselines); this test turns it into a hard regression guard.
func TestShardedKeyBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	pkts := propStream(31, 40000, 4)
	// A window longer than the trace keeps window-close merges (which
	// legitimately allocate result sets) out of the measurement.
	det, err := NewShardedDetector(ShardedConfig{
		Shards: 4, Window: time.Hour, Phi: 0.05, Engine: EnginePerLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	// Warm-up: fill the freelists, grow the staging columns to capacity
	// and let every shard's sketch reach its counter budget, so the
	// measured runs exercise pure reuse.
	for round := 0; round < 3; round++ {
		if err := det.TryObserveBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}

	const chunk = 2048
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
