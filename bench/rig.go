package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/oracle"
	"hiddenhhh/internal/trace"
)

// input is everything a workload derives from the seed before the program
// under test sees a packet: instances of the scenario (variants of them
// for an untraced run, one for a traced run), each encoded as an in-memory
// v2 trace and replayed by its own segment of the run, and — for the first
// instance, the one the verify pass, the traced run and the kernels use —
// the packets and the oracle's hidden-HHH reference.
type input struct {
	encoded [][]byte
	pkts    []trace.Packet
	// hidden is the oracle's hidden-HHH set (workloads with hidden set):
	// sliding truth union at the report cadence minus the truth union of
	// the lap's disjoint windows, as cmd/hhheval computes it. Each prefix
	// maps to its best exact conditioned share of the window mass over
	// the lap's report instants.
	hidden map[addr.Prefix]float64
}

// buildInput generates the workload's scenario instances from the seed and
// encodes each once. The seed is the only input to the generators:
// instance i is gen.Scenarios' scenario at base seed*variants+i, so no two
// seeds share an instance.
func buildInput(w *workload, seed int64, instances int) (*input, error) {
	in := &input{encoded: make([][]byte, instances)}
	for i := range in.encoded {
		pkts, enc, err := generate(w, seed*variants+int64(i))
		if err != nil {
			return nil, err
		}
		in.encoded[i] = enc
		if i == 0 {
			in.pkts = pkts
		}
	}
	if w.hidden {
		in.hidden = hiddenTruth(w, in.pkts)
	}
	return in, nil
}

// generate synthesises one instance of the workload's scenario and encodes
// it with trace.Writer.
func generate(w *workload, base int64) ([]trace.Packet, []byte, error) {
	var cfg *gen.Config
	for _, sc := range gen.Scenarios(lapLen, base) {
		if sc.Name == w.scenario {
			cfg = &sc.Config
			break
		}
	}
	if cfg == nil {
		return nil, nil, fmt.Errorf("scenario %q not in gen.Scenarios", w.scenario)
	}
	pkts, err := gen.Packets(*cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s: %w", w.scenario, err)
	}
	var enc bytes.Buffer
	enc.Grow(16 + 50*len(pkts))
	tw, err := trace.NewWriter(&enc)
	if err != nil {
		return nil, nil, err
	}
	for i := range pkts {
		if err := tw.Write(&pkts[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, nil, err
	}
	return pkts, enc.Bytes(), nil
}

// hiddenTruth computes the paper's quantity exactly: prefixes that are a
// sliding-window HHH at some report instant of the lap but an HHH of none
// of its disjoint windows.
func hiddenTruth(w *workload, pkts []trace.Packet) map[addr.Prefix]float64 {
	ref := oracle.FromTrace(w.hier, pkts)
	hidden := map[addr.Prefix]float64{}
	step := int64(w.snapEvery)
	for at := step; at <= int64(lapLen); at += step {
		set, total := ref.SlidingSet(w.window, w.frames, at, phi)
		for p, it := range set {
			hidden[p] = max(hidden[p], float64(it.Conditioned)/float64(total))
		}
	}
	width := int64(w.window)
	for lo := int64(0); lo < int64(lapLen); lo += width {
		set, _ := ref.WindowSet(lo, lo+width, phi)
		for p := range set {
			delete(hidden, p)
		}
	}
	return hidden
}

// sealRec is one report's journey as the benchmark's OnSeal callback saw
// it: the sealed frame arriving from the merge, the inline aggregator hop,
// and the global report that covers it.
type sealRec struct {
	seq        int64
	end        int64
	frameBytes int
	// trigger is stamped by the producer just before the call that causes
	// the report; zero when the seal had no trigger on record.
	trigger time.Time
	entry   time.Time // OnSeal entered: drain + merge + query + encode done
	done    time.Time // Aggregator.Ingest returned and Report() read
	report  *hiddenhhh.AggregatorReport
	failed  string // why the operation failed, "" when it did not
}

// recorder joins the producer's trigger stamps with the seals the merging
// goroutine delivers. Both sides touch it once per report, so a mutex
// costs nothing measurable.
type recorder struct {
	mu        sync.Mutex
	trig      map[int64]time.Time // report End -> trigger stamp
	triggered int                 // triggers stamped so far
	seals     []sealRec
	lastFrame []byte
}

func (r *recorder) stamp(end int64, at time.Time) {
	r.trig[end] = at
	r.triggered++
}

// rig is one instance of the production shape: sharded detector with a
// Metrics registry, OnSeal feeding an inline Aggregator (Expected 1; the
// hop that is HTTP in cmd/hhhserve is a function call here).
type rig struct {
	w   *workload
	det hiddenhhh.ShardedDetector
	agg *hiddenhhh.Aggregator
	reg *hiddenhhh.MetricsRegistry
	rec *recorder

	buf [decodeBatch]trace.Packet
	// Driver clocks in trace time: the next Snapshot instant (snapEvery
	// workloads) or the end of the window being filled (windowed).
	started  bool
	nextSnap int64
	winEnd   int64
}

// newRig constructs detector, registry and aggregator for w.
func newRig(w *workload, seed int64) (*rig, error) {
	r := &rig{w: w, reg: hiddenhhh.NewMetricsRegistry(), rec: &recorder{trig: map[int64]time.Time{}}}
	var err error
	r.agg, err = hiddenhhh.NewAggregator(hiddenhhh.AggregatorConfig{Expected: 1, Phi: phi})
	if err != nil {
		return nil, err
	}
	cfg := w.shardedConfig(seed)
	cfg.Metrics = r.reg
	cfg.OnSeal = r.onSeal
	r.det, err = hiddenhhh.NewShardedDetector(cfg)
	if err != nil {
		r.agg.Close()
		return nil, err
	}
	return r, nil
}

// close releases the worker goroutines and the aggregator. Both Close
// methods are idempotent, so it is safe after finish.
func (r *rig) close() {
	_ = r.det.Close() // without BarrierTimeout Close cannot fail
	r.agg.Close()
}

// onSeal is the ingest node's export seam and the aggregator's receive
// side in one call. It runs on the merging goroutine.
func (r *rig) onSeal(s hiddenhhh.SealedSummary) {
	rec := sealRec{seq: s.Seq, end: s.End, frameBytes: len(s.Frame), entry: time.Now()}
	err := r.agg.Ingest(nodeName, s)
	rec.report = r.agg.Report()
	rec.done = time.Now()
	switch {
	case err != nil:
		rec.failed = "rejected: " + err.Error()
	case s.Degraded || rec.report.Degraded:
		rec.failed = "degraded"
	case rec.report.End < s.End:
		rec.failed = "not published"
	}
	r.rec.mu.Lock()
	rec.trigger = r.rec.trig[s.End]
	delete(r.rec.trig, s.End)
	r.rec.seals = append(r.rec.seals, rec)
	r.rec.lastFrame = s.Frame
	r.rec.mu.Unlock()
}

// drain waits until the workers have taken everything the producer pushed.
// (The batch a worker is absorbing and the producer's part-filled staging
// batches, at most 256 packets each, are not waited for.)
func (r *rig) drain() {
	for {
		busy := false
		for _, depth := range r.det.Stats().QueueDepth {
			busy = busy || depth > 0
		}
		if !busy {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// snapRec is one Snapshot call as the producer saw it.
type snapRec struct {
	at    int64 // trace time of the query = End of the report it causes
	start time.Time
	d     time.Duration
}

// lapStats is what one lap cost the producer goroutine. The span fields
// (decode, observe, snaps) are only taken on traced laps.
type lapStats struct {
	traced  bool
	packets int
	batches int
	start   time.Time
	wall    time.Duration
	decode  time.Duration
	observe time.Duration
	snaps   []snapRec
}

// runLap decodes the encoded trace once, shifted by lap*lapLen, into the
// reused buffer and feeds it to the detector. The load generator is the
// ingest goroutine, as in cmd/hhhserve.
func (r *rig) runLap(encoded []byte, lap int, traced bool) (lapStats, error) {
	st := lapStats{traced: traced, start: time.Now()}
	rd, err := trace.NewReader(bytes.NewReader(encoded))
	if err != nil {
		return st, err
	}
	offset := int64(lap) * int64(lapLen)
	for {
		var t0, t1 time.Time
		if traced {
			t0 = time.Now()
		}
		n := 0
		for n < len(r.buf) {
			if err := rd.Next(&r.buf[n]); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return st, err
			}
			r.buf[n].Ts += offset
			n++
		}
		if n == 0 {
			break
		}
		if traced {
			t1 = time.Now()
			st.decode += t1.Sub(t0)
		}
		r.feed(r.buf[:n], &st, traced)
		if traced {
			st.observe += time.Since(t1)
		}
		st.packets += n
		st.batches++
	}
	if traced {
		// Snapshot calls were made from inside feed; they are their own
		// producer-side row, not part of observe.
		for _, sn := range st.snaps {
			st.observe -= sn.d
		}
	}
	st.wall = time.Since(st.start)
	return st, nil
}

// feed hands one decoded batch to the detector, stamping the trigger of
// every report the batch causes and issuing the Snapshots that fall
// inside it: packets with Ts <= at are observed before Snapshot(at), the
// order oracle.Run uses.
func (r *rig) feed(pkts []trace.Packet, st *lapStats, traced bool) {
	if !r.started {
		r.started = true
		if every := int64(r.w.snapEvery); every > 0 {
			r.nextSnap = (pkts[0].Ts/every + 1) * every
		}
		width := int64(r.w.window)
		r.winEnd = (pkts[0].Ts/width + 1) * width
	}
	if r.w.snapEvery == 0 {
		r.stampWindows(pkts[len(pkts)-1].Ts)
		r.det.ObserveBatch(pkts)
		return
	}
	for len(pkts) > 0 {
		n := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts > r.nextSnap })
		r.det.ObserveBatch(pkts[:n])
		pkts = pkts[n:]
		if len(pkts) > 0 {
			r.snapshot(st, traced)
		}
	}
}

// stampWindows records the trigger for every window that a packet at ts
// (or a Snapshot at ts) closes.
func (r *rig) stampWindows(ts int64) {
	if ts < r.winEnd {
		return
	}
	now := time.Now()
	r.rec.mu.Lock()
	for ; r.winEnd <= ts; r.winEnd += int64(r.w.window) {
		r.rec.stamp(r.winEnd, now)
	}
	r.rec.mu.Unlock()
}

// snapshot issues the Snapshot due at nextSnap and advances the clock.
func (r *rig) snapshot(st *lapStats, traced bool) {
	at := r.nextSnap
	r.nextSnap += int64(r.w.snapEvery)
	t0 := time.Now()
	r.rec.mu.Lock()
	r.rec.stamp(at, t0)
	r.rec.mu.Unlock()
	r.det.Snapshot(at)
	if traced {
		st.snaps = append(st.snaps, snapRec{at, t0, time.Since(t0)})
	}
}

// finish makes the final report visible: Snapshot(end) closes the last
// window or queries at the end of the last lap, Close drains the workers,
// Flush publishes anything the aggregator still holds.
func (r *rig) finish(end int64, st *lapStats, traced bool) {
	t0 := time.Now()
	if r.w.snapEvery == 0 {
		r.stampWindows(end)
		r.det.Snapshot(end)
		if traced {
			st.snaps = append(st.snaps, snapRec{end, t0, time.Since(t0)})
		}
	} else {
		r.nextSnap = end
		r.snapshot(st, traced)
	}
	_ = r.det.Close() // without BarrierTimeout Close cannot fail
	r.agg.Flush()
	st.wall += time.Since(t0)
}
