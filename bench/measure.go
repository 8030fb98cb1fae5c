package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hiddenhhh"
)

// warmup is the least time a segment replays untimed before its first
// timed lap. Lap 0 fills the windows and takes the continuous detector past
// its admission warm-up; on the fast workloads (a lap of windowed-perlevel
// is ~25 ms) a few more laps let the heap, the freelists and the rings
// settle. What slowness is left in the first timed laps the median over
// laps ignores.
const warmup = 200 * time.Millisecond

// segment is one scenario instance replayed through its own fresh rig:
// untimed warm-up laps, then timed laps, then the final report made
// visible. It is the raw material for both the end-to-end and the
// per-layer metrics.
type segment struct {
	r       *rig
	encoded []byte
	lap     int // the next lap to replay

	laps       []lapStats // timed laps only; the last one includes finish
	timedStart time.Time
	// seals is every report of the rig, warm-up laps included (the
	// determinism check compares the warm-up reports to the verify pass);
	// timed is the subset triggered in the timed laps.
	seals, timed []sealRec
	triggered0   int // triggers stamped during the warm-up
	attempted    int // reports triggered in the timed laps
	unpublished  int // triggers no seal ever answered
	lastFrame    []byte
	// Registry samples before the first timed lap and after finish.
	scrape0, scrape1 map[string]float64
	stateBytes       int
	stats            hiddenhhh.PipelineStats
	agg              hiddenhhh.AggregatorStats
	reg              *hiddenhhh.MetricsRegistry
}

// openSegment builds a fresh rig for encoded and replays the warm-up: lap 0
// and further laps until warmup has passed.
func openSegment(w *workload, encoded []byte, seed int64) (*segment, error) {
	r, err := newRig(w, seed)
	if err != nil {
		return nil, err
	}
	s := &segment{r: r, encoded: encoded, reg: r.reg}
	for t0 := time.Now(); s.lap == 0 || time.Since(t0) < warmup; s.lap++ {
		if _, err := r.runLap(encoded, s.lap, false); err != nil {
			r.close()
			return nil, err
		}
	}
	r.drain()
	s.scrape0, _ = scrape(r.reg)
	r.rec.mu.Lock()
	s.triggered0 = r.rec.triggered
	r.rec.mu.Unlock()
	s.timedStart = time.Now()
	return s, nil
}

// timedLap replays one more lap and keeps its cost. With drain set the lap
// lasts until the rings are empty: the producer is about to feed another
// rig, and what this one still holds is this lap's work.
func (s *segment) timedLap(traced, drain bool) error {
	st, err := s.r.runLap(s.encoded, s.lap, traced)
	if err != nil {
		return err
	}
	if drain {
		s.r.drain()
		st.wall = time.Since(st.start)
	}
	s.laps = append(s.laps, st)
	s.lap++
	return nil
}

// finish makes the final report visible (its cost goes to the last timed
// lap), stops the rig and collects what the metrics need.
func (s *segment) finish() {
	r := s.r
	last := &s.laps[len(s.laps)-1]
	r.finish(int64(s.lap)*int64(lapLen), last, last.traced)
	s.scrape1, _ = scrape(r.reg)
	s.stateBytes = r.det.SizeBytes()
	s.stats = r.det.Stats()
	s.agg = r.agg.Stats()
	// The workers have exited and the producer is this goroutine: the
	// recorder is quiescent.
	s.seals = r.rec.seals
	for _, rec := range s.seals {
		if !rec.trigger.IsZero() && !rec.trigger.Before(s.timedStart) {
			s.timed = append(s.timed, rec)
		}
	}
	s.lastFrame = r.rec.lastFrame
	s.attempted = r.rec.triggered - s.triggered0
	s.unpublished = len(r.rec.trig)
	r.close()
}

// runSegment is the traced run's replay: encoded through one rig for at
// least seconds of timed laps, back to back. Closed loop, full speed. Every
// second timed lap records producer spans; the laps in between run exactly
// as an untraced run's, so the two kinds see the same host conditions and
// their difference is the tracing overhead, not drift.
func runSegment(w *workload, encoded []byte, seed int64, seconds float64) (*segment, error) {
	s, err := openSegment(w, encoded, seed)
	if err != nil {
		return nil, err
	}
	defer s.r.close()
	for {
		if err := s.timedLap(len(s.laps)%2 == 0, false); err != nil {
			return nil, err
		}
		if time.Since(s.timedStart).Seconds() >= seconds {
			break
		}
	}
	s.finish()
	return s, nil
}

// runRounds is the untraced run: one segment per scenario instance, all
// open at once, replayed in rounds of one lap each until seconds have
// passed. Every instance's laps are thereby spread over the whole run, so
// a slow spell of the host — they last seconds on a shared machine — costs
// each instance a lap or two, which its median ignores, instead of costing
// one instance all of its laps. Only the rig being fed is busy; the others
// are parked on empty rings. It also returns the bytes allocated from the
// first timed lap to the last finish.
func runRounds(w *workload, in *input, seed int64, seconds float64) ([]*segment, uint64, error) {
	var segs []*segment
	defer func() {
		for _, s := range segs {
			s.r.close()
		}
	}()
	for _, encoded := range in.encoded {
		s, err := openSegment(w, encoded, seed)
		if err != nil {
			return nil, 0, err
		}
		segs = append(segs, s)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for rounds := 1; ; rounds++ {
		for _, s := range segs {
			if err := s.timedLap(false, true); err != nil {
				return nil, 0, err
			}
		}
		// Stop where the run ends closest to seconds: a round of
		// continuous-decay takes several of them.
		el := time.Since(start).Seconds()
		if el+el/float64(rounds)/2 >= seconds {
			break
		}
	}
	for _, s := range segs {
		s.finish()
	}
	runtime.ReadMemStats(&m1)
	return segs, m1.TotalAlloc - m0.TotalAlloc, nil
}

// pool joins the segments of one run — one per scenario instance — for the
// failure accounting: timed reports side by side, counts summed. The
// determinism check needs the first segment's reports (the verified
// instance), so seals stays segs[0]'s.
func pool(segs []*segment) *segment {
	p := *segs[0]
	for _, s := range segs[1:] {
		p.timed = append(p.timed, s.timed...)
		p.attempted += s.attempted
		p.unpublished += s.unpublished
		p.stats.DroppedPackets += s.stats.DroppedPackets
		p.agg.LateFrames += s.agg.LateFrames
	}
	return &p
}

// packets totals the timed laps.
func (s *segment) packets() (n int) {
	for _, l := range s.laps {
		n += l.packets
	}
	return n
}

// mpps is the median per-lap rate over the laps with the given tracing
// state: offered packets (decoded records) over the lap's wall, the last
// lap's wall running until the final report is visible. The median over
// laps keeps a descheduled lap on a shared host from moving the figure.
func (s *segment) mpps(traced bool) float64 {
	var rates []float64
	for _, l := range s.laps {
		if l.traced == traced {
			rates = append(rates, float64(l.packets)/l.wall.Seconds()/1e6)
		}
	}
	return percentile(rates, 0.5)
}

// delta is the growth of one registry sample over the timed laps.
func (s *segment) delta(sample string) float64 {
	return s.scrape1[sample] - s.scrape0[sample]
}

// scrape renders the registry in Prometheus text format and parses every
// sample line into name{labels} -> value; it also returns the exposition
// text so callers can validate or size it.
func scrape(reg *hiddenhhh.MetricsRegistry) (map[string]float64, string) {
	var sb strings.Builder
	_ = hiddenhhh.WriteMetrics(&sb, reg) // strings.Builder writes cannot fail
	text := sb.String()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, text
}

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics from the untraced segments of
// one run, one per scenario instance. The two timings are a median within
// each segment (robust to a descheduled lap or a slow report) and a mean
// across segments (the instances differ; a pooled median would hop between
// their modes). setup is the median set-up time in seconds.
func endToEnd(segs []*segment, allocBytes uint64, setup float64) (m map[string]metric, lagSamples int, detail []string) {
	var mpps, lagP50 float64
	var sealBytes, packets, reports int
	for _, seg := range segs {
		var lags []float64
		for _, rec := range seg.timed {
			sealBytes += rec.frameBytes
			// A report that ends on a lap boundary is triggered by the next
			// lap's first packet, on rings the round-robin left empty: it is
			// an operation like any other but no sample of the lag under load.
			if rec.end%int64(lapLen) != 0 {
				lags = append(lags, ms(rec.done.Sub(rec.trigger)))
			}
		}
		reports += len(seg.timed)
		lagSamples += len(lags)
		mpps += seg.mpps(false) / float64(len(segs))
		lagP50 += percentile(lags, 0.5) / float64(len(segs))
		detail = append(detail, fmt.Sprintf("instance %d: %d laps of %d packets, %.4g Mpkt/s; %d reports, lag p50 %.4g ms",
			len(detail), len(seg.laps), seg.laps[0].packets, seg.mpps(false), len(lags), percentile(lags, 0.5)))
		packets += seg.packets()
	}
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"e2e_mpps":              {mpps, "Mpkt/s"},
		"report_lag_ms_p50":     {lagP50, "ms"},
		"state_bytes":           {float64(segs[len(segs)-1].stateBytes), "B"},
		"seal_bytes_per_report": {float64(sealBytes) / math.Max(1, float64(reports)), "B"},
		"alloc_bytes_per_pkt":   {float64(allocBytes) / float64(packets), "B"},
	}, lagSamples, detail
}

// failures counts the segment's failed operations and explains them. An
// operation is one report travelling ingest -> seal -> aggregator ->
// query.
func (s *segment) failures() (failed int, why []string) {
	for _, rec := range s.timed {
		if rec.failed != "" {
			failed++
			why = append(why, fmt.Sprintf("report end=%d: %s", rec.end, rec.failed))
		}
	}
	if s.unpublished > 0 {
		failed += s.unpublished
		why = append(why, fmt.Sprintf("%d reports never published", s.unpublished))
	}
	// Rejected frames are already counted per seal; late ones are accepted
	// without an error and only show in the aggregator's counters.
	if n := int(s.agg.LateFrames); n > 0 {
		failed += n
		why = append(why, fmt.Sprintf("aggregator dropped %d frames as late", n))
	}
	return failed, why
}
