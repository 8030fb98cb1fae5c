package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// Kernel input geometry. The head of the lap (1.5 windows: more than a
// full sliding ring, past the continuous detector's admission warm-up)
// fills the operands of the merge and query kernels and warms the update
// kernels; the update kernels are then timed on the rest of the lap in
// chunks, on one engine in steady state — the state the pipeline's shards
// are in for all but the first seconds of a run.
const (
	headWindows = 1.5
	chunk       = 64      // batches per timed repetition of an update kernel
	smallPkts   = 1 << 16 // packets the per-record kernels (pack, pcap) repeat over
)

// sink keeps kernel results alive so the compiler cannot drop the work.
var sink uint64

// kernels runs every layer in isolation on the workload's own packets,
// packed keys and captured frame. Every workload runs every kernel, so
// the per-layer list is the same everywhere; the rows that explain a
// workload's end-to-end figure are the ones its engine uses.
type kernels struct {
	w      *workload
	seed   int64
	pkts   []trace.Packet
	keys   *trace.KeyBatch      // pkts packed through the family filter
	head   []*trace.KeyBatch    // keys before now, in pipeline-sized batches
	tail   []*trace.KeyBatch    // keys from now on, likewise
	halves [2][]*trace.KeyBatch // head, hash-partitioned as the two shards see it
	now    int64                // end of the head in trace time
	budget time.Duration        // time budget of one kernel
	out    map[string]float64
}

// batchesOf cuts columns [lo, hi) into Batch-sized key-batches that share
// the backing arrays.
func batchesOf(b *trace.KeyBatch, lo, hi int) []*trace.KeyBatch {
	const batch = 256 // ShardedConfig.Batch default
	var out []*trace.KeyBatch
	for i := lo; i < hi; i += batch {
		j := min(i+batch, hi)
		out = append(out, &trace.KeyBatch{Keys: b.Keys[i:j], Sizes: b.Sizes[i:j], Ts: b.Ts[i:j]})
	}
	return out
}

func newKernels(w *workload, in *input, seed int64, budget time.Duration) *kernels {
	k := &kernels{w: w, seed: seed, pkts: in.pkts, budget: budget, out: map[string]float64{}}
	k.now = int64(headWindows * float64(w.window))
	k.keys = trace.NewKeyBatch(len(k.pkts))
	k.keys.AppendPackets(w.hier, k.pkts)
	cut := sort.Search(k.keys.Len(), func(i int) bool { return k.keys.Ts[i] >= k.now })
	k.head = batchesOf(k.keys, 0, cut)
	k.tail = batchesOf(k.keys, cut, k.keys.Len())
	parts := [shards]*trace.KeyBatch{trace.NewKeyBatch(cut), trace.NewKeyBatch(cut)}
	for i, key := range k.keys.Keys[:cut] {
		parts[hashx.Bucket(hashx.Mix64(key), shards)].Append(key, k.keys.Sizes[i], k.keys.Ts[i])
	}
	for i, p := range parts {
		k.halves[i] = batchesOf(p, 0, p.Len())
	}
	return k
}

// measure repeats one kernel until its budget is spent — at least twice,
// the first repetition warming caches and dropped once others exist — and
// returns the median cost per unit in nanoseconds. rep does its own
// untimed preparation and returns the units of work it timed; zero units
// means its input is used up and ends the measurement early.
func (k *kernels) measure(rep func() (units int, d time.Duration)) float64 {
	var per []float64
	deadline := time.Now().Add(k.budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		units, d := rep()
		if units == 0 {
			break
		}
		per = append(per, float64(d)/float64(units))
	}
	if len(per) > 2 {
		per = per[1:]
	}
	return percentile(per, 0.5)
}

// elapsed runs f once and returns how long it took.
func elapsed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// once measures a kernel whose single call is the unit; the result is
// converted from ns to us.
func (k *kernels) onceUs(f func()) float64 {
	return k.measure(func() (int, time.Duration) { return 1, elapsed(f) }) / 1e3
}

// each feeds pipeline-sized key-batches to an engine's update method.
func each(bs []*trace.KeyBatch, update func(*trace.KeyBatch)) {
	for _, b := range bs {
		update(b)
	}
}

// stream measures an engine's update in steady state: the head of the lap
// goes in untimed, then the tail is timed chunk by chunk on the same
// engine (timestamps never go backwards) until the budget or the lap runs
// out. The result is the median ns per packet over the chunks.
func (k *kernels) stream(update func(*trace.KeyBatch)) float64 {
	each(k.head, update)
	next := 0
	return k.measure(func() (int, time.Duration) {
		if next+chunk > len(k.tail) {
			return 0, 0
		}
		bs := k.tail[next : next+chunk]
		next += chunk
		n := 0
		for _, b := range bs {
			n += b.Len()
		}
		return n, elapsed(func() { each(bs, update) })
	})
}

// run executes every kernel. frame is the last frame the traced run
// sealed; reg is that run's live registry.
func (k *kernels) run(frame []byte, reg *hiddenhhh.MetricsRegistry) error {
	k.hostAndProducer()
	if k.w.engine == hiddenhhh.EngineRHHH {
		windowedKernels(k, func() *hhh.RHHH { return hhh.NewRHHH(k.w.hier, counters, uint64(k.seed)) })
	} else {
		windowedKernels(k, func() *hhh.PerLevel { return hhh.NewPerLevel(k.w.hier, counters) })
	}
	scfg := swhh.Config{Window: k.w.window, Frames: k.w.frames, Counters: counters}
	if err := slidingKernels(k, "swhh.", true,
		func() (*swhh.SlidingHHH, error) { return swhh.NewSlidingHHH(k.w.hier, scfg) }); err != nil {
		return err
	}
	if err := slidingKernels(k, "swhh.memento_", false,
		func() (*swhh.MementoHHH, error) { return swhh.NewMementoHHH(k.w.hier, scfg, uint64(k.seed)) }); err != nil {
		return err
	}
	if err := k.continuousKernels(); err != nil {
		return err
	}
	k.sketchKernels()
	k.filterKernels()
	if err := k.single(); err != nil {
		return err
	}
	if err := k.wireKernels(frame); err != nil {
		return err
	}
	if err := k.fanIn(); err != nil {
		return err
	}
	if err := k.pcapKernel(); err != nil {
		return err
	}
	k.telemetryKernel(reg)
	return nil
}

// hostAndProducer: the host calibration unit and the two producer-side
// steps the pipeline does inside stage().
func (k *kernels) hostAndProducer() {
	// A chained Mix64 is pure ALU work with no memory traffic: if this
	// row moves, the host changed, not the code. Printed beside every
	// timing so snapshots from different hosts compare as ratios.
	const chain = 1 << 20
	k.out["hashx.calib_mix64_ns"] = k.measure(func() (int, time.Duration) {
		x := uint64(k.seed)
		d := elapsed(func() {
			for i := 0; i < chain; i++ {
				x = hashx.Mix64(x)
			}
		})
		sink += x
		return chain, d
	})
	small := k.pkts[:min(smallPkts, len(k.pkts))]
	kb := trace.NewKeyBatch(len(small))
	k.out["trace.pack_ns_per_pkt"] = k.measure(func() (int, time.Duration) {
		kb.Reset()
		return len(small), elapsed(func() { kb.AppendPackets(k.w.hier, small) })
	})
	k.out["hashx.partition_ns_per_pkt"] = k.measure(func() (int, time.Duration) {
		var acc int
		d := elapsed(func() {
			for _, key := range k.keys.Keys {
				acc += hashx.Bucket(hashx.Mix64(key), shards)
			}
		})
		sink += uint64(acc)
		return k.keys.Len(), d
	})
}

// windowedEngine is what hhh.PerLevel and hhh.RHHH share.
type windowedEngine[T any] interface {
	UpdateKeys(*trace.KeyBatch) int64
	Merge(T)
	QueryFraction(float64) hhh.Set
	Reset()
}

func windowedKernels[T windowedEngine[T]](k *kernels, mk func() T) {
	e, a, b, acc := mk(), mk(), mk(), mk()
	k.out["hhh.update_ns_per_pkt"] = k.stream(func(kb *trace.KeyBatch) { e.UpdateKeys(kb) })
	each(k.halves[0], func(kb *trace.KeyBatch) { a.UpdateKeys(kb) })
	each(k.halves[1], func(kb *trace.KeyBatch) { b.UpdateKeys(kb) })
	// One barrier's merge: reset the accumulator, fold both shards in.
	k.out["hhh.merge_us"] = k.onceUs(func() { acc.Reset(); acc.Merge(a); acc.Merge(b) })
	k.out["hhh.query_us"] = k.onceUs(func() { sink += uint64(acc.QueryFraction(phi).Len()) })
}

// slidingEngine is what swhh.SlidingHHH and swhh.MementoHHH share.
type slidingEngine[T any] interface {
	UpdateKeys(*trace.KeyBatch)
	Advance(int64)
	Merge(T)
	Query(float64, int64) hhh.Set
	Reset()
}

// slidingKernels fills prefix+{update_ns_per_pkt, merge_us, query_us} and,
// when advance is set, prefix+advance_us.
func slidingKernels[T slidingEngine[T]](k *kernels, prefix string, advance bool, mk func() (T, error)) error {
	var err error
	fresh := func() T {
		e, ferr := mk()
		if ferr != nil {
			err = ferr
		}
		return e
	}
	e, a, b, acc := fresh(), fresh(), fresh(), fresh()
	if err != nil {
		return err
	}
	k.out[prefix+"update_ns_per_pkt"] = k.stream(e.UpdateKeys)
	each(k.halves[0], a.UpdateKeys)
	each(k.halves[1], b.UpdateKeys)
	a.Advance(k.now)
	b.Advance(k.now)
	k.out[prefix+"merge_us"] = k.onceUs(func() { acc.Reset(); acc.Merge(a); acc.Merge(b) })
	k.out[prefix+"query_us"] = k.onceUs(func() { sink += uint64(acc.Query(phi, k.now).Len()) })
	if advance {
		// Each call expires exactly one more frame on every level.
		frame := int64(k.w.window) / int64(max(k.w.frames, 8)) // 8 is swhh's default
		at := k.now
		k.out[prefix+"advance_us"] = k.onceUs(func() { at += frame; a.Advance(at) })
	}
	return nil
}

func (k *kernels) continuousKernels() error {
	var ds [4]*continuous.Detector
	for i := range ds {
		d, err := continuous.NewDetector(continuous.Config{
			Hierarchy: k.w.hier, Phi: phi, Seed: uint64(k.seed),
			Filter: tdbf.Config{Cells: 1 << 16, Hashes: 4, Decay: tdbf.Exponential{Tau: k.w.window}},
		})
		if err != nil {
			return err
		}
		ds[i] = d
	}
	e, a, b, acc := ds[0], ds[1], ds[2], ds[3]
	k.out["continuous.update_ns_per_pkt"] = k.stream(e.ObserveKeys)
	each(k.halves[0], a.ObserveKeys)
	each(k.halves[1], b.ObserveKeys)
	k.out["continuous.merge_us"] = k.onceUs(func() { acc.Reset(); acc.Merge(a); acc.Merge(b) })
	k.out["continuous.query_us"] = k.onceUs(func() { sink += uint64(acc.Query(k.now).Len()) })
	k.out["continuous.active_len"] = float64(acc.ActiveLen())
	return nil
}

// sketchKernels: the leaf-level summaries the hhh and swhh engines are
// built from, on the level-0 keys.
func (k *kernels) sketchKernels() {
	keys, sizes := k.keys.Keys, k.keys.Sizes
	ss := sketch.NewSpaceSaving(counters)
	k.out["sketch.spacesaving_update_ns"] = k.measure(func() (int, time.Duration) {
		ss.Reset()
		return len(keys), elapsed(func() {
			for i, key := range keys {
				ss.Update(key, int64(sizes[i]))
			}
		})
	})
	a, b, acc := sketch.NewSpaceSaving(counters), sketch.NewSpaceSaving(counters), sketch.NewSpaceSaving(counters)
	for i, key := range keys {
		if hashx.Bucket(hashx.Mix64(key), shards) == 0 {
			a.Update(key, int64(sizes[i]))
		} else {
			b.Update(key, int64(sizes[i]))
		}
	}
	k.out["sketch.spacesaving_merge_us"] = k.onceUs(func() { acc.Reset(); acc.Merge(a); acc.Merge(b) })
	ex := sketch.NewExact(1024)
	k.out["sketch.exact_update_ns"] = k.measure(func() (int, time.Duration) {
		ex.Reset()
		return len(keys), elapsed(func() {
			for i, key := range keys {
				ex.Update(key, int64(sizes[i]))
			}
		})
	})
}

// filterKernels: one time-decaying Bloom filter, the unit the continuous
// admission chain calls per level.
func (k *kernels) filterKernels() {
	cfg := tdbf.Config{Cells: 1 << 16, Hashes: 4, Seed: uint64(k.seed), Decay: tdbf.Exponential{Tau: k.w.window}}
	keys, sizes, ts := k.keys.Keys, k.keys.Sizes, k.keys.Ts
	a, b := tdbf.New(cfg), tdbf.New(cfg)
	k.out["tdbf.add_ns"] = k.measure(func() (int, time.Duration) {
		a.Reset()
		return len(keys), elapsed(func() {
			for i, key := range keys {
				a.Add(key, float64(sizes[i]), ts[i])
			}
		})
	})
	k.out["tdbf.estimate_ns"] = k.measure(func() (int, time.Duration) {
		var acc float64
		d := elapsed(func() {
			for _, key := range keys {
				acc += a.Estimate(key, ts[len(ts)-1])
			}
		})
		sink += uint64(acc)
		return len(keys), d
	})
	for i, key := range keys[:len(keys)/2] {
		b.Add(key, float64(sizes[i]), ts[i])
	}
	acc := tdbf.New(cfg)
	k.out["tdbf.merge_us"] = k.onceUs(func() { acc.Reset(); acc.Merge(a); acc.Merge(b) })
}

// single is the single-thread baseline: the root package's one-goroutine
// detector of the same mode and engine over the same packets.
func (k *kernels) single() error {
	var d hiddenhhh.Detector
	var err error
	switch k.w.mode {
	case hiddenhhh.ModeSliding:
		d, err = hiddenhhh.NewSlidingDetector(hiddenhhh.SlidingConfig{
			Window: k.w.window, Phi: phi, Engine: k.w.engine, Frames: k.w.frames,
			Counters: counters, Hierarchy: k.w.hier, Seed: uint64(k.seed)})
	case hiddenhhh.ModeContinuous:
		d, err = hiddenhhh.NewContinuousDetector(hiddenhhh.ContinuousConfig{
			Horizon: k.w.window, Phi: phi, Cells: k.w.cells, Hashes: k.w.hashes,
			Hierarchy: k.w.hier, Seed: uint64(k.seed)})
	default:
		d, err = hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
			Window: k.w.window, Phi: phi, Engine: k.w.engine, Counters: counters,
			Hierarchy: k.w.hier, Seed: uint64(k.seed)})
	}
	if err != nil {
		return err
	}
	// Same discipline as stream, on packets: head untimed, tail in timed
	// chunks on the one detector.
	cut := sort.Search(len(k.pkts), func(i int) bool { return k.pkts[i].Ts >= k.now })
	observe := func(pkts []trace.Packet) {
		for i := 0; i < len(pkts); i += decodeBatch {
			d.ObserveBatch(pkts[i:min(i+decodeBatch, len(pkts))])
		}
	}
	observe(k.pkts[:cut])
	const step = chunk * 256
	next := cut
	k.out["detector.single_ns_per_pkt"] = k.measure(func() (int, time.Duration) {
		if next+step > len(k.pkts) {
			return 0, 0
		}
		pkts := k.pkts[next : next+step]
		next += step
		return len(pkts), elapsed(func() { observe(pkts) })
	})
	return nil
}

// wireKernels decodes and re-encodes the frame the traced run sealed
// last: what one report pays in the codec on each side of the hop.
func (k *kernels) wireKernels(frame []byte) error {
	v, err := wire.Decode(frame)
	if err != nil {
		return fmt.Errorf("captured frame: %w", err)
	}
	k.out["wire.frame_bytes"] = float64(len(frame))
	k.out["wire.decode_us_per_frame"] = k.onceUs(func() { v, _ = wire.Decode(frame) })
	k.out["wire.encode_us_per_frame"] = k.onceUs(func() {
		b, _ := wire.Encode(v) // v came out of Decode, which only returns encodable kinds
		sink += uint64(len(b))
	})
	return nil
}

// fanIn is the fleet use of the aggregator the inline Expected:1 hop does
// not exercise: four source-partitioned one-shard engines of the
// workload's kind seal one frame each, and an Expected:4 aggregator takes
// them round-robin.
func (k *kernels) fanIn() error {
	const nodes = 4
	// The lap's first window, so that every node seals exactly one full
	// window (or one query at its end).
	end := int64(k.w.window)
	parts := make([][]trace.Packet, nodes)
	for i := range k.pkts {
		p := &k.pkts[i]
		if p.Ts < end && k.w.hier.Match(p.Src) {
			n := hashx.Bucket(hashx.Mix64(k.w.hier.Key(p.Src, 0)), nodes)
			parts[n] = append(parts[n], *p)
		}
	}
	sealed := make([]hiddenhhh.SealedSummary, nodes)
	for n := range sealed {
		cfg := k.w.shardedConfig(k.seed)
		cfg.Shards = 1
		cfg.OnSeal = func(s hiddenhhh.SealedSummary) { sealed[n] = s }
		det, err := hiddenhhh.NewShardedDetector(cfg)
		if err != nil {
			return err
		}
		det.ObserveBatch(parts[n])
		det.Snapshot(end)
		if err := det.Close(); err != nil {
			return err
		}
		if sealed[n].Frame == nil {
			return fmt.Errorf("fan-in node %d sealed nothing", n)
		}
	}
	agg, err := hiddenhhh.NewAggregator(hiddenhhh.AggregatorConfig{Expected: nodes, Phi: phi})
	if err != nil {
		return err
	}
	defer agg.Close()
	names := [nodes]string{"n0", "n1", "n2", "n3"}
	var round int64
	var ingestErr error
	perFrame := k.measure(func() (int, time.Duration) {
		round++
		return nodes, elapsed(func() {
			for n, s := range sealed {
				s.Seq = round
				if k.w.mode == hiddenhhh.ModeWindowed {
					// Round-aligned kinds publish per window End; the
					// latest-frame kinds re-merge at a fixed End so the
					// frames do not age out between repetitions.
					s.Start += (round - 1) * int64(k.w.window)
					s.End += (round - 1) * int64(k.w.window)
				}
				if err := agg.Ingest(names[n], s); err != nil {
					ingestErr = err
				}
			}
		})
	})
	if ingestErr != nil {
		return fmt.Errorf("fan-in ingest: %w", ingestErr)
	}
	if st := agg.Stats(); st.LateFrames+st.Rejected > 0 {
		return fmt.Errorf("fan-in: %d late, %d rejected frames", st.LateFrames, st.Rejected)
	}
	k.out["aggregate.fanin4_us_per_frame"] = perFrame / 1e3
	rep := agg.Report
	const reads = 1 << 16
	k.out["aggregate.report_read_ns"] = k.measure(func() (int, time.Duration) {
		var acc int64
		d := elapsed(func() {
			for i := 0; i < reads; i++ {
				acc += rep().End
			}
		})
		sink += uint64(acc)
		return reads, d
	})
	return nil
}

// pcapKernel decodes the same packets from the alternative source format.
func (k *kernels) pcapKernel() error {
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		return err
	}
	for i := range k.pkts[:min(smallPkts, len(k.pkts))] {
		if err := pw.Write(&k.pkts[i]); err != nil {
			return err
		}
	}
	if err := pw.Close(); err != nil {
		return err
	}
	var readErr error
	k.out["pcap.decode_ns_per_pkt"] = k.measure(func() (int, time.Duration) {
		n := 0
		d := elapsed(func() {
			pr, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				readErr = err
				return
			}
			var p trace.Packet
			for {
				if err := pr.Next(&p); err != nil {
					if !errors.Is(err, io.EOF) {
						readErr = err
					}
					return
				}
				n++
			}
		})
		return max(n, 1), d
	})
	return readErr
}

// telemetryKernel scrapes the traced run's live registry: off the packet
// path, but it is what an operator's Prometheus pays every interval.
func (k *kernels) telemetryKernel(reg *hiddenhhh.MetricsRegistry) {
	var sb strings.Builder
	k.out["telemetry.scrape_us"] = k.onceUs(func() {
		sb.Reset()
		_ = hiddenhhh.WriteMetrics(&sb, reg) // strings.Builder writes cannot fail
	})
	n, _ := hiddenhhh.ValidateMetricsExposition(sb.String()) // conformance is the telemetry package's own test
	k.out["telemetry.samples"] = float64(n)
}
