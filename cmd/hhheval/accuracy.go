package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/oracle"
)

// DetectorResult is one detector row of a scenario report.
type DetectorResult struct {
	Name string `json:"name"`
	Mode string `json:"mode"`
	// Snapshot-level accuracy vs the exact oracle reference.
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	WorstOver  float64 `json:"worst_over_frac"`
	WorstUnder float64 `json:"worst_under_frac"`
	Violations int     `json:"violations"`
	// Trace-level distinct-prefix accounting: recall against the sliding
	// oracle union and against its hidden subset (prefixes no disjoint
	// window reveals).
	Reported     int     `json:"reported_distinct"`
	UnionRecall  float64 `json:"union_recall"`
	HiddenRecall float64 `json:"hidden_recall"`
	// Ingest performance: wall-clock for one full-trace replay through a
	// fresh instance of this cell's detector and the implied rate. The
	// packet total behind the rate is scraped back from the
	// hhh_detector_* families on a per-cell MetricsRegistry — the same
	// families hhhserve exports on /metrics.
	IngestWallMs float64 `json:"ingest_wall_ms"`
	IngestMpps   float64 `json:"ingest_mpps"`
}

// ScenarioReport is the per-scenario section of the full report.
type ScenarioReport struct {
	Scenario    string           `json:"scenario"`
	Description string           `json:"description"`
	Hierarchy   string           `json:"hierarchy"`
	Packets     int              `json:"packets"`
	TruthHHHs   int              `json:"sliding_truth_distinct"`
	HiddenHHHs  int              `json:"hidden_distinct"`
	Detectors   []DetectorResult `json:"detectors"`
}

// Report is the full hhheval document.
type Report struct {
	Duration  string           `json:"duration"`
	Window    string           `json:"window"`
	Phi       float64          `json:"phi"`
	Counters  int              `json:"counters"`
	Seed      int64            `json:"seed"`
	Scenarios []ScenarioReport `json:"scenarios"`
	// TotalViolations counts broken bound checks across every cell; the
	// -strict flag turns a nonzero value into exit status 1.
	TotalViolations int `json:"total_violations"`
}

// accuracy runs the oracle-differential accuracy suite: every detector
// family over every generated scenario (internal/gen.Scenarios: Zipf
// steady state, hit-and-run DDoS, flash crowd, port sweep, the diurnal
// Tier-1 mix, an IPv6-only DDoS on the hextet ladder and a dual-stack mix
// on the 17-level IPv6 nibble lattice, each on its own hierarchy), scored
// against the brute-force exact HHH oracle: precision, recall, per-item
// count error and the paper-family bound checks — plus the hidden-HHH
// effect the source paper is about: prefixes that are sliding-window HHHs
// of the trace but never disjoint-window HHHs, and how many of them each
// window model recovers.
func accuracy(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		duration  = fs.Duration("duration", 30*time.Second, "trace duration per scenario")
		window    = fs.Duration("window", 5*time.Second, "window length / sliding span / decay tau")
		phi       = fs.Float64("phi", 0.05, "HHH threshold fraction")
		counters  = fs.Int("counters", 512, "Space-Saving counters per level")
		frames    = fs.Int("frames", 8, "sliding-window frames")
		shards    = fs.Int("shards", 4, "shard count for the sharded pipeline rows (0 disables them)")
		seed      = fs.Int64("seed", 1, "scenario suite base seed")
		rhhhSlack = fs.Float64("rhhh-slack", 0.15, "empirical sampling-slack fraction z for RHHH bound checks")
		memSlack  = fs.Float64("memento-slack", 0.15, "empirical sampling-slack fraction z for Memento sliding bound checks")
		tdbfSlack = fs.Float64("tdbf-slack", 0.05, "empirical collision/admission slack fraction for continuous bound checks")
		format    = fs.String("format", "markdown", "output format: markdown or json")
		strict    = fs.Bool("strict", false, "exit nonzero when any bound check fails")
	)
	return func(stdout, _ io.Writer) error {
		rep := Report{
			Duration: duration.String(),
			Window:   window.String(),
			Phi:      *phi,
			Counters: *counters,
			Seed:     *seed,
		}
		eps := 1.0 / float64(*counters)

		for _, sc := range gen.Scenarios(*duration, *seed) {
			pkts, err := gen.Packets(sc.Config)
			if err != nil {
				return err
			}
			sr := ScenarioReport{
				Scenario: sc.Name, Description: sc.Description,
				Hierarchy: sc.Hierarchy.String(), Packets: len(pkts),
			}
			hier := sc.Hierarchy

			type cell struct {
				name   string
				mode   oracle.Mode
				bounds oracle.Bounds
				mk     func() (oracle.Detector, error)
			}
			windowed := func(engine hiddenhhh.Engine) func() (oracle.Detector, error) {
				return func() (oracle.Detector, error) {
					return hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
						Window: *window, Phi: *phi, Engine: engine, Counters: *counters,
						Hierarchy: hier, Seed: uint64(*seed),
					})
				}
			}
			sliding := func(engine hiddenhhh.Engine) func() (oracle.Detector, error) {
				return func() (oracle.Detector, error) {
					return hiddenhhh.NewSlidingDetector(hiddenhhh.SlidingConfig{
						Window: *window, Phi: *phi, Frames: *frames, Counters: *counters,
						Hierarchy: hier, Engine: engine, Seed: uint64(*seed),
					})
				}
			}
			sharded := func(mode hiddenhhh.Mode, engine hiddenhhh.Engine) func() (oracle.Detector, error) {
				return func() (oracle.Detector, error) {
					return hiddenhhh.NewShardedDetector(hiddenhhh.ShardedConfig{
						Mode: mode, Shards: *shards, Window: *window, Phi: *phi, Engine: engine,
						Counters: *counters, Frames: *frames, Hierarchy: hier, Seed: uint64(*seed),
					})
				}
			}
			// RHHH and Memento sample one level per packet, so their bounds
			// carry an empirical sampling slack on top of the sketch ε.
			sketched := oracle.Bounds{Epsilon: eps}
			rhhhBounds := oracle.Bounds{Epsilon: eps, Slack: *rhhhSlack, AllowUnder: true}
			mementoBounds := oracle.Bounds{Epsilon: eps, Slack: *memSlack, AllowUnder: true}
			cells := []cell{
				{"windowed-exact", oracle.ModeWindowed, oracle.Bounds{}, windowed(hiddenhhh.EngineExact)},
				{"windowed-perlevel", oracle.ModeWindowed, sketched, windowed(hiddenhhh.EnginePerLevel)},
				{"windowed-rhhh", oracle.ModeWindowed, rhhhBounds, windowed(hiddenhhh.EngineRHHH)},
				{"sliding-wcss", oracle.ModeSliding, sketched, sliding(hiddenhhh.EngineWCSS)},
				{"sliding-memento", oracle.ModeSliding, mementoBounds, sliding(hiddenhhh.EngineMemento)},
				{"continuous-tdbf", oracle.ModeContinuous, oracle.Bounds{Slack: *tdbfSlack}, func() (oracle.Detector, error) {
					return hiddenhhh.NewContinuousDetector(hiddenhhh.ContinuousConfig{
						Horizon: *window, Phi: *phi, Hierarchy: hier, Seed: uint64(*seed),
					})
				}},
			}
			if *shards > 0 {
				cells = append(cells,
					cell{fmt.Sprintf("sharded-perlevel-%d", *shards), oracle.ModeWindowed, sketched,
						sharded(hiddenhhh.ModeWindowed, hiddenhhh.EnginePerLevel)},
					cell{fmt.Sprintf("sharded-sliding-%d", *shards), oracle.ModeSliding, sketched,
						sharded(hiddenhhh.ModeSliding, hiddenhhh.EngineWCSS)},
					cell{fmt.Sprintf("sharded-memento-%d", *shards), oracle.ModeSliding, mementoBounds,
						sharded(hiddenhhh.ModeSliding, hiddenhhh.EngineMemento)},
				)
			}

			// Truth unions for the hidden-HHH accounting: what the exact
			// sliding view ever reports vs what exact disjoint windows ever
			// report. Both fall out of the differential runs below.
			var slidingTruth, windowedTruth hhh.Set
			var unions []hhh.Set // every cell's distinct reported prefixes
			for _, c := range cells {
				det, err := c.mk()
				if err != nil {
					return err
				}
				// Windowed cells snapshot once per window — a finer cadence
				// would score the same closed window repeatedly, doubling the
				// brute-force oracle work for identical results. The sliding
				// and continuous views genuinely change between boundaries,
				// so they are sampled at half-window cadence.
				every := *window
				if c.mode != oracle.ModeWindowed {
					every = *window / 2
				}
				r, err := oracle.Run(c.name, det, pkts, oracle.Config{
					Mode:          c.mode,
					Window:        *window,
					Frames:        *frames,
					Phi:           *phi,
					Hierarchy:     hier,
					Bounds:        c.bounds,
					SnapshotEvery: every,
				})
				if cl, ok := det.(interface{ Close() error }); ok {
					cl.Close()
				}
				if err != nil {
					return err
				}
				wallMs, mpps, err := measureIngest(c.mk, c.name, r.Mode, pkts)
				if err != nil {
					return err
				}
				sr.Detectors = append(sr.Detectors, DetectorResult{
					Name:         r.Detector,
					Mode:         r.Mode,
					Precision:    r.MeanPrecision,
					Recall:       r.MeanRecall,
					WorstOver:    r.WorstOver,
					WorstUnder:   r.WorstUnder,
					Violations:   r.Violations,
					Reported:     r.GotUnion.Len(),
					IngestWallMs: wallMs,
					IngestMpps:   mpps,
				})
				unions = append(unions, r.GotUnion)
				rep.TotalViolations += r.Violations
				switch {
				case c.name == "windowed-exact":
					windowedTruth = r.TruthUnion
				case c.name == "sliding-wcss":
					slidingTruth = r.TruthUnion
				}
			}

			hidden := slidingTruth.Diff(windowedTruth)
			sr.TruthHHHs = slidingTruth.Len()
			sr.HiddenHHHs = hidden.Len()
			for i := range sr.Detectors {
				d := &sr.Detectors[i]
				sc := core.Score(d.Name, unions[i], slidingTruth, hidden)
				d.UnionRecall, d.HiddenRecall = sc.Recall, sc.HiddenRecall
			}
			rep.Scenarios = append(rep.Scenarios, sr)
		}

		switch *format {
		case "json":
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		case "markdown":
			renderMarkdown(stdout, &rep)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if *strict && rep.TotalViolations > 0 {
			return fmt.Errorf("%d bound violations", rep.TotalViolations)
		}
		return nil
	}
}

// evalBatch is the batch size measureIngest replays with — the
// production batch-ingest spine, matching the throughput benchmarks.
const evalBatch = 512

// measureIngest replays the whole trace through a fresh instance of a
// cell's detector, wrapped with InstrumentDetector on its own
// MetricsRegistry, and derives the row's wall-clock and rate. The packet
// total behind the rate is not a local counter: it is scraped back out
// of the registry's hhh_detector_packets_total family — the exact series
// hhhserve exports — so the report and a dashboard watching the same
// detector can never disagree. The final Snapshot is inside the timed
// region: for the sharded cells it forces the merge barrier, charging
// the rate for draining the rings, not just filling them.
func measureIngest(mk func() (oracle.Detector, error), name, mode string, pkts []hiddenhhh.Packet) (wallMs, mpps float64, err error) {
	det, err := mk()
	if err != nil {
		return 0, 0, err
	}
	hd, ok := det.(hiddenhhh.Detector)
	if !ok {
		return 0, 0, fmt.Errorf("cell %s: detector lacks the public ingest surface", name)
	}
	reg := hiddenhhh.NewMetricsRegistry()
	ins := hiddenhhh.InstrumentDetector(hd, reg, name, mode)
	start := time.Now()
	for off := 0; off < len(pkts); off += evalBatch {
		end := off + evalBatch
		if end > len(pkts) {
			end = len(pkts)
		}
		ins.ObserveBatch(pkts[off:end])
	}
	ins.Snapshot(pkts[len(pkts)-1].Ts + 1)
	wall := time.Since(start)
	if cl, ok := det.(interface{ Close() error }); ok {
		cl.Close()
	}
	var sb strings.Builder
	if err := hiddenhhh.WriteMetrics(&sb, reg); err != nil {
		return 0, 0, err
	}
	sample := fmt.Sprintf("hhh_detector_packets_total{engine=%q,mode=%q}", name, mode)
	count, err := scrapeValue(sb.String(), sample)
	if err != nil {
		return 0, 0, fmt.Errorf("cell %s: %w", name, err)
	}
	return float64(wall) / 1e6, count / wall.Seconds() / 1e6, nil
}

// scrapeValue extracts one sample's value from a Prometheus text
// exposition; sample is the exact name{labels} prefix of its line.
func scrapeValue(text, sample string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			return strconv.ParseFloat(strings.TrimSpace(line[len(sample)+1:]), 64)
		}
	}
	return 0, fmt.Errorf("sample %q not in exposition", sample)
}

func renderMarkdown(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "# hhheval accuracy report\n\n")
	fmt.Fprintf(w, "window=%s phi=%v counters=%d seed=%d duration=%s\n\n",
		rep.Window, rep.Phi, rep.Counters, rep.Seed, rep.Duration)
	for _, sc := range rep.Scenarios {
		fmt.Fprintf(w, "## %s\n\n%s (hierarchy %s)\n\n", sc.Scenario, sc.Description, sc.Hierarchy)
		fmt.Fprintf(w, "%d packets; %d distinct sliding-truth HHHs, %d hidden (absent from every disjoint window)\n\n",
			sc.Packets, sc.TruthHHHs, sc.HiddenHHHs)
		t := metrics.NewTable("detector", "mode", "precision", "recall",
			"err+%", "err-%", "viol", "distinct", "union-recall", "hidden-recall",
			"wall-ms", "Mpps")
		for _, d := range sc.Detectors {
			t.AddRow(d.Name, d.Mode,
				fmt.Sprintf("%.3f", d.Precision), fmt.Sprintf("%.3f", d.Recall),
				fmt.Sprintf("%.2f", 100*d.WorstOver), fmt.Sprintf("%.2f", 100*d.WorstUnder),
				d.Violations, d.Reported,
				fmt.Sprintf("%.3f", d.UnionRecall), fmt.Sprintf("%.3f", d.HiddenRecall),
				fmt.Sprintf("%.1f", d.IngestWallMs), fmt.Sprintf("%.2f", d.IngestMpps))
		}
		fmt.Fprintf(w, "%s\n", t.String())
	}
	fmt.Fprintf(w, "total bound violations: %d\n", rep.TotalViolations)
}
