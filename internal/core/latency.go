package core

import (
	"fmt"
	"math/rand"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
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

// DetectionLatency plants cfg.Bursts attack bursts into the provided base
// trace at uniformly random phases and measures, for the disjoint,
// sliding(1 s query cadence) and continuous models, the delay from burst
// start to the first report covering the burst source.
func DetectionLatency(provider Provider, cfg LatencyConfig) ([]LatencyReport, []Burst, error) {
	cfg.setDefaults()
	base, err := provider()
	if err != nil {
		return nil, nil, err
	}
	basePkts, err := trace.Collect(base, 0)
	if err != nil {
		return nil, nil, err
	}

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
	pkts := append(append([]trace.Packet(nil), basePkts...), burstPkts...)
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

	// Disjoint windows: reports materialise at window close.
	disj := newTracker("disjoint")
	{
		leaves := make(map[uint64]int64, 4096)
		var bytes int64
		curEnd := int64(cfg.Window)
		flush := func() {
			e := hhh.NewSet()
			T := hhh.Threshold(bytes, cfg.Phi)
			agg := sketchFromMap(leaves)
			e = hhh.Exact(agg, cfg.Hierarchy, T)
			record(disj, e, curEnd)
			for k := range leaves {
				delete(leaves, k)
			}
			bytes = 0
			curEnd += int64(cfg.Window)
		}
		for i := range pkts {
			for pkts[i].Ts >= curEnd {
				flush()
			}
			if !cfg.Hierarchy.Match(pkts[i].Src) {
				continue
			}
			leaves[cfg.Hierarchy.Key(pkts[i].Src, 0)] += int64(pkts[i].Size)
			bytes += int64(pkts[i].Size)
		}
		flush()
	}

	// Sliding windows: queried every second.
	slid := newTracker("sliding")
	{
		d, err := swhh.NewSlidingHHH(cfg.Hierarchy, swhh.Config{
			Window: cfg.Window, Frames: 10, Counters: 512,
		})
		if err != nil {
			return nil, nil, err
		}
		// Batch-ingest between query instants: each run covers the packets
		// before the next query cadence tick plus the packet that crosses
		// it, matching the per-packet ordering (the crossing packet was
		// always ingested before the query fired).
		nextQ := int64(time.Second)
		var kb trace.KeyBatch
		for i := 0; i < len(pkts); {
			j := i
			for j < len(pkts) && pkts[j].Ts < nextQ {
				j++
			}
			if j < len(pkts) {
				j++
			}
			kb.Reset()
			kb.AppendPackets(cfg.Hierarchy, pkts[i:j])
			d.UpdateKeys(&kb)
			for last := pkts[j-1].Ts; last >= nextQ; {
				record(slid, d.Query(cfg.Phi, nextQ), nextQ)
				nextQ += int64(time.Second)
			}
			i = j
		}
	}

	// Continuous: enter events give exact detection instants.
	cont := newTracker("continuous")
	{
		det, err := continuous.NewDetector(continuous.Config{
			Hierarchy: cfg.Hierarchy,
			Phi:       cfg.Phi,
			Filter: tdbf.Config{
				Decay: tdbf.Exponential{Tau: cfg.Window},
			},
			OnEnter: func(p addr.Prefix, at int64) {
				record(cont, hhh.NewSet(hhh.Item{Prefix: p}), at)
			},
		})
		if err != nil {
			return nil, nil, err
		}
		kb := trace.NewKeyBatch(len(pkts))
		kb.AppendPackets(cfg.Hierarchy, pkts)
		det.ObserveKeys(kb)
	}

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

// sketchFromMap adapts a plain leaf-key map into the LeafCounter surface
// the HHH routines consume.
func sketchFromMap(m map[uint64]int64) *exactAdapter {
	return &exactAdapter{m: m}
}

// exactAdapter satisfies the minimal surface hhh.Exact needs (ForEach and
// Len) without copying the window map.
type exactAdapter struct{ m map[uint64]int64 }

// Len implements hhh.LeafCounter.
func (a *exactAdapter) Len() int { return len(a.m) }

// ForEach implements hhh.LeafCounter.
func (a *exactAdapter) ForEach(fn func(key uint64, count int64)) {
	for k, v := range a.m {
		fn(k, v)
	}
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
