package core

import (
	"fmt"
	"math/rand"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/pipeline"
	"hiddenhhh/internal/trace"
)

// LatencyConfig parameterises the detection-latency experiment (E5), the
// operational question behind the paper's DDoS motivation: once an attack
// burst starts, how long until each window model reports its source? The
// experiment plants identical bursts at seeded random phases relative to
// the window grid and measures time-to-detection per model; bursts that
// are never reported count as misses.
type LatencyConfig struct {
	// Window is the disjoint/sliding window length and continuous decay
	// horizon. Default 10 s.
	Window time.Duration
	// Phi is the threshold fraction. Default 0.05.
	Phi float64
	// Span is the trace duration.
	Span int64
	// Bursts is the number of planted bursts. Default 20.
	Bursts int
	// BurstDuration is each burst's length. Default 3 s.
	BurstDuration time.Duration
	// BurstShare is the burst's packet rate as a fraction of the base
	// aggregate rate. Default 0.4 (well above a 5% byte threshold).
	BurstShare float64
	// BasePPS is the base traffic's aggregate packet rate, used to size
	// bursts. Default 5000.
	BasePPS float64
	// Seed drives burst placement.
	Seed int64
	// Hierarchy is the prefix lattice the analysis runs over. Defaults
	// to the IPv4 byte ladder.
	Hierarchy addr.Hierarchy
}

func (c *LatencyConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 10 * time.Second
	}
	if c.Phi == 0 {
		c.Phi = 0.05
	}
	if c.Bursts == 0 {
		c.Bursts = 20
	}
	if c.BurstDuration == 0 {
		c.BurstDuration = 3 * time.Second
	}
	if c.BurstShare == 0 {
		c.BurstShare = 0.4
	}
	if c.BasePPS == 0 {
		c.BasePPS = 5000
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
}

// LatencyReport summarises one detector's time-to-detection.
type LatencyReport struct {
	Name     string
	Detected int
	Missed   int
	// Latency holds seconds from burst start to first report, one sample
	// per detected burst.
	Latency *metrics.Dist
}

// Burst describes one planted attack burst.
type Burst struct {
	// Src is the burst's planted source address.
	Src addr.Addr
	// Start and End bound the burst in trace time (ns).
	Start int64
	End   int64
}

// DetectionLatency plants cfg.Bursts attack bursts into a copy of the
// time-ordered base trace at uniformly random phases and measures, for the
// disjoint, sliding(1 s query cadence) and continuous models, the delay
// from burst start to the first report covering the burst source.
func DetectionLatency(base []trace.Packet, cfg LatencyConfig) ([]LatencyReport, []Burst, error) {
	cfg.setDefaults()

	// Plant bursts: distinct sources, random phases, margin from ends.
	// Starts are confined to [Window, Span-BurstDuration) so that every
	// detector is past its startup transient (the continuous detector
	// warms up for one decay horizon) — the comparison then measures
	// steady-state reaction time only.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	minStart := int64(cfg.Window)
	maxStart := cfg.Span - int64(cfg.BurstDuration)
	if maxStart <= minStart {
		return nil, nil, fmt.Errorf("core: span %v too short for bursts after warmup",
			time.Duration(cfg.Span))
	}
	bursts := make([]Burst, cfg.Bursts)
	var burstPkts []trace.Packet
	pps := cfg.BasePPS * cfg.BurstShare
	for i := range bursts {
		src := addr.From4(240, byte(i>>8), byte(i), 1) // reserved space: never collides with base
		start := minStart + rng.Int63n(maxStart-minStart)
		bursts[i] = Burst{Src: src, Start: start, End: start + int64(cfg.BurstDuration)}
		n := int(cfg.BurstDuration.Seconds() * pps)
		for j := 0; j < n; j++ {
			burstPkts = append(burstPkts, trace.Packet{
				Ts:    start + int64(cfg.BurstDuration)*int64(j)/int64(n),
				Src:   src,
				Proto: trace.ProtoUDP,
				Size:  1000,
			})
		}
	}
	pkts := append(append([]trace.Packet(nil), base...), burstPkts...)
	trace.SortByTime(pkts)

	// firstDetection[src] per detector.
	type tracker struct {
		name  string
		first map[addr.Addr]int64
	}
	newTracker := func(name string) *tracker {
		return &tracker{name: name, first: make(map[addr.Addr]int64, cfg.Bursts)}
	}
	leafBits := cfg.Hierarchy.Bits(0)
	record := func(t *tracker, set hhh.Set, at int64) {
		for p := range set {
			for i := range bursts {
				if p.Contains(bursts[i].Src) && p.Bits == leafBits {
					if _, ok := t.first[bursts[i].Src]; !ok {
						t.first[bursts[i].Src] = at
					}
				}
			}
		}
	}

	// Each model is the live system's single-goroutine driver over the
	// same packets; what differs is when a report materialises.

	// Disjoint windows: at window close, the trace's last window included.
	disj := newTracker("disjoint")
	det, err := pipeline.NewSingle(pipeline.Config{
		Window: cfg.Window, Phi: cfg.Phi, Hierarchy: cfg.Hierarchy,
		OnWindow: func(_, end int64, set hhh.Set) { record(disj, set, end) },
	})
	if err != nil {
		return nil, nil, err
	}
	det.ObserveBatch(pkts)
	det.Snapshot(pkts[len(pkts)-1].Ts + int64(cfg.Window))

	// Sliding windows: queried every second.
	slid := newTracker("sliding")
	det, err = pipeline.NewSingle(pipeline.Config{
		Mode: pipeline.ModeSliding, Frames: 10,
		Window: cfg.Window, Phi: cfg.Phi, Hierarchy: cfg.Hierarchy,
	})
	if err != nil {
		return nil, nil, err
	}
	cut := trace.Cutter{Step: int64(time.Second)}
	cut.Feed(pkts, det.ObserveBatch, func(at int64) { record(slid, det.Snapshot(at), at) })

	// Continuous: enter events give exact detection instants.
	cont := newTracker("continuous")
	det, err = pipeline.NewSingle(pipeline.Config{
		Mode:   pipeline.ModeContinuous,
		Window: cfg.Window, Phi: cfg.Phi, Hierarchy: cfg.Hierarchy,
		OnEnter: func(p addr.Prefix, at int64) {
			record(cont, hhh.NewSet(hhh.Item{Prefix: p}), at)
		},
	})
	if err != nil {
		return nil, nil, err
	}
	det.ObserveBatch(pkts)

	var reports []LatencyReport
	for _, t := range []*tracker{disj, slid, cont} {
		rep := LatencyReport{Name: t.name, Latency: &metrics.Dist{}}
		for i := range bursts {
			at, ok := t.first[bursts[i].Src]
			if !ok || at < bursts[i].Start {
				rep.Missed++
				continue
			}
			rep.Detected++
			rep.Latency.Observe(float64(at-bursts[i].Start) / 1e9)
		}
		reports = append(reports, rep)
	}
	return reports, bursts, nil
}

// RenderLatency formats the E5 table.
func RenderLatency(reports []LatencyReport, bursts int) string {
	t := metrics.NewTable("detector", "detected", "missed", "median-s", "p90-s", "max-s")
	for _, r := range reports {
		t.AddRow(r.Name, r.Detected, r.Missed,
			r.Latency.Quantile(0.5), r.Latency.Quantile(0.9), r.Latency.Max())
	}
	return fmt.Sprintf("planted bursts: %d\n\n%s", bursts, t.String())
}
