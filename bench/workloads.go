package main

import (
	"fmt"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/oracle"
)

// Driver constants, the same for every workload and every host so that
// counts (batches, seals, bytes) stay comparable between snapshots.
const (
	// shards is fixed rather than GOMAXPROCS-derived: the per-shard counts
	// and the partition skew would otherwise change with the host.
	shards = 2
	// procs is the GOMAXPROCS the program runs under, on every host. The
	// producer, the shard workers and the merges take turns on one
	// processor, so a run never asks the host for more than one core and
	// throughput reads as packets per CPU-second of the whole pipeline. The
	// reference host has two virtual CPUs but not two cores' worth of time:
	// two busy threads run at anything between full and half speed each,
	// for minutes at a stretch, while one busy thread holds its speed.
	procs = 1
	// phi, counters: the library defaults every experiment CLI uses.
	phi      = 0.05
	counters = 512
	// lapLen is the generated trace duration; lap k replays it with
	// k*lapLen added to every timestamp. It is a multiple of every
	// workload's window, so window grids line up across laps.
	lapLen = 60 * time.Second
	// variants is how many instances of its scenario an untraced run
	// replays, each through its own pipeline, lap about. How fast
	// continuous-decay goes depends on the instance: the admission chain
	// scans the active set for every packet, quadratically, and the set has
	// 6 to 10 members depending on where the seed puts the heavy sources —
	// 0.37 to 0.70 Mpkt/s, a standard deviation of 17 % from instance to
	// instance. The mean over eight instances brings that down to 6 % from
	// seed to seed. (Rotating the instances through one pipeline would not
	// do: the traffic would jump at every lap boundary, which is not the
	// stationary load the workloads stand for, and costs continuous-decay
	// 3x.)
	variants = 8
	// decodeBatch is the reused packet buffer the producer decodes into
	// and hands to ObserveBatch, matching cmd/hhheval's replay batch.
	decodeBatch = 512
	// nodeName is the ingest-node name the inline aggregator hop uses.
	nodeName = "bench"
)

// workload is one named input-plus-configuration the benchmark replays.
// Names are stable: later issues cite them.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// mirrors it.
	why      string
	scenario string // gen.Scenarios name
	hier     addr.Hierarchy
	mode     hiddenhhh.Mode
	engine   hiddenhhh.Engine
	window   time.Duration // window, sliding span or decay tau
	frames   int
	cells    int
	hashes   int
	// snapEvery is the Snapshot cadence in trace time. Zero means the
	// windowed model: reports are triggered by the batch that carries the
	// first packet past a window end, not by Snapshot.
	snapEvery time.Duration
	// bounds are cmd/hhheval's defaults for the engine family.
	bounds oracle.Bounds
	// hidden additionally requires every oracle hidden HHH (sliding truth
	// union minus disjoint-window truth union) in the global reports.
	hidden bool
	// intent checks, on the traced run's layer values, that the workload
	// still stresses the layer it was built to stress; it returns one
	// line per missed expectation.
	intent func(l map[string]float64) []string
}

var (
	v4byte   = addr.NewIPv4Hierarchy(addr.Byte)
	v4nibble = addr.NewIPv4Hierarchy(addr.Nibble)
	v6nibble = addr.NewIPv6Hierarchy(addr.Nibble)
	eps      = 1.0 / counters
)

// workloads is the benchmark's workload set, in declaration order.
var workloads = []*workload{
	{
		name:     "windowed-perlevel",
		why:      "9 Space-Saving updates per packet: engine update dominates, producer blocks on full rings; merge, seal and aggregate stay under 5%",
		scenario: "diurnal-tier1",
		hier:     v4nibble, mode: hiddenhhh.ModeWindowed, engine: hiddenhhh.EnginePerLevel,
		window: 10 * time.Second,
		bounds: oracle.Bounds{Epsilon: eps},
		intent: func(l map[string]float64) []string {
			var miss []string
			// The producer's own decode+stage comes out of the same
			// processor the workers run on, so the workers cannot reach 1;
			// more than half of all CPU time going to engine updates is what
			// "engine-bound" means.
			if u := l["pipeline.worker_util_est"]; u < 0.5 {
				miss = append(miss, fmt.Sprintf("pipeline.worker_util_est %.2f < 0.5", u))
			}
			if h, s := l["pipeline.handoff_ns_per_pkt"], l["pipeline.stage_ns_per_pkt"]; h <= s {
				miss = append(miss, fmt.Sprintf("handoff %.1f ns/pkt <= stage %.1f ns/pkt", h, s))
			}
			return miss
		},
	},
	{
		name:     "windowed-rhhh-v6",
		why:      "RHHH touches 1 of 17 levels per packet and half the packets die in the family filter: decode, pack, partition, ring hand-off dominate",
		scenario: "dual-stack-mix",
		hier:     v6nibble, mode: hiddenhhh.ModeWindowed, engine: hiddenhhh.EngineRHHH,
		window: 10 * time.Second,
		bounds: oracle.Bounds{Epsilon: eps, Slack: 0.15, AllowUnder: true},
		intent: func(l map[string]float64) []string {
			share := (l["trace.decode_ns_per_pkt"] + l["pipeline.stage_ns_per_pkt"]) / l["bench.wall_ns_per_pkt"]
			if share < 0.5 {
				return []string{fmt.Sprintf("decode+stage share %.2f < 0.5", share)}
			}
			return nil
		},
	},
	{
		name:     "sliding-wcss-live",
		why:      "Snapshot every 1 s of trace: barrier merge of 2x5x9 frame summaries, wire and Aggregator dominate; hidden HHHs must all be reported",
		scenario: "hit-and-run-ddos",
		hier:     v4byte, mode: hiddenhhh.ModeSliding, engine: hiddenhhh.EngineWCSS,
		window: 10 * time.Second, frames: 8, snapEvery: time.Second,
		bounds: oracle.Bounds{Epsilon: eps},
		hidden: true,
		intent: func(l map[string]float64) []string {
			share := l["pipeline.snapshot_ns_per_pkt"] / l["bench.wall_ns_per_pkt"]
			if share < 0.8 {
				return []string{fmt.Sprintf("snapshot share %.2f < 0.8", share)}
			}
			return nil
		},
	},
	{
		name:     "continuous-decay",
		why:      "per-packet TDBF admission chain costs ~2 us: internal/continuous + internal/tdbf do the work; 5 MB frames show in report lag",
		scenario: "zipf-steady",
		hier:     v4byte, mode: hiddenhhh.ModeContinuous,
		window: 10 * time.Second, cells: 1 << 16, hashes: 4, snapEvery: 30 * time.Second,
		bounds: oracle.Bounds{Slack: 0.05},
		intent: func(l map[string]float64) []string {
			// The share of the producer's wall spent waiting for the shards'
			// admission chains to take the next batch.
			share := l["pipeline.handoff_ns_per_pkt"] / l["bench.wall_ns_per_pkt"]
			if share < 0.6 {
				return []string{fmt.Sprintf("continuous.update-driven share (handoff wait / wall) %.2f < 0.6", share)}
			}
			return nil
		},
	},
}

// workloadByName looks a workload up by its stable name.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shardedConfig is the detector configuration of the workload: the
// production shape (Metrics registry, lossless OverloadBlock, defaults for
// Batch and RingDepth) with the callback and registry left for the rig.
func (w *workload) shardedConfig(seed int64) hiddenhhh.ShardedConfig {
	return hiddenhhh.ShardedConfig{
		Mode: w.mode, Shards: shards, Window: w.window, Phi: phi,
		Engine: w.engine, Counters: counters, Frames: w.frames,
		Cells: w.cells, Hashes: w.hashes, Hierarchy: w.hier,
		Seed: uint64(seed), Overload: hiddenhhh.OverloadBlock,
	}
}

// oracleConfig is the differential-run configuration matching the
// detector: same mode, window, frames and hierarchy, and the workload's
// own report cadence.
func (w *workload) oracleConfig() oracle.Config {
	return oracle.Config{
		Mode: oracle.Mode(w.mode), Window: w.window, Frames: w.frames,
		Phi: phi, Hierarchy: w.hier, Bounds: w.bounds, SnapshotEvery: w.snapEvery,
	}
}
