// Command bench is the repository's one end-to-end benchmark. It replays a
// seeded, encoded trace through the production shape
//
//	trace.Reader -> ShardedDetector.ObserveBatch/Snapshot -> OnSeal
//	             -> Aggregator.Ingest -> Aggregator.Report()
//
// on four named workloads, prints every metric by name and unit, checks
// every published global report against internal/oracle, and — in a
// separate traced run — decomposes the end-to-end figure into a per-layer
// ns/packet budget. BENCHMARK.json at the repository root describes it;
// README.md in this directory says how to read it.
//
//	bash bench/run.sh                                  # all workloads, both runs
//	bash bench/run.sh -aa                              # twice, alternating order
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run sets up (generate, encode, build the oracle reference, construct
// detector, registry and aggregator) setupsBefore times ahead of the timed
// laps and setupsAfter times behind the verify pass; setup_s is the
// median of all of them. Spreading them over the run keeps one slow second
// on a shared host from owning the median.
const (
	setupsBefore = 2
	setupsAfter  = 1
)

// timeSetups sets up n times and returns the durations in seconds and the
// last input built.
func timeSetups(w *workload, seed int64, n int) ([]float64, *input, error) {
	var in *input
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		var err error
		if in, err = buildInput(w, seed, variants); err != nil {
			return nil, nil, err
		}
		r, err := newRig(w, seed)
		if err != nil {
			return nil, nil, err
		}
		times[i] = time.Since(t0).Seconds()
		r.close()
	}
	return times, in, nil
}

// result is one run of one workload.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	why       []string // failed operations, explained
	warnings  []string // traced run only: missed workload intent, harness health
	layers    map[string]float64
	lagN      int
	detail    []string // untraced run only: one line per scenario instance
}

// jsonLine is the contract's last line of standard output.
func (r *result) jsonLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}) // plain numbers and strings: cannot fail
	return string(b)
}

// check folds a segment's failures, the verify pass and the
// determinism self-check into the result.
func (r *result) check(seg *segment, v *verdict) {
	failed, why := seg.failures()
	r.attempted = seg.attempted + v.attempted
	r.failed = failed + v.failed
	r.why = append(append(r.why, why...), v.why...)
	r.correct = r.failed == 0
	if n := seg.stats.DroppedPackets; n > 0 {
		r.correct = false
		r.why = append(r.why, fmt.Sprintf("%d packets dropped", n))
	}
	// Two replays of one seed must seal identical reports.
	common, diffs := sameReports(v.seals, seg.seals)
	if common == 0 {
		diffs = append(diffs, "determinism: the verify pass and the timed run share no report")
	}
	if len(diffs) > 0 {
		r.correct = false
		r.why = append(r.why, diffs...)
	}
}

// runPlain is the --trace 0 run: set-up timing, the scenario instances
// replayed in rounds for the requested length, the verify pass.
func runPlain(w *workload, seed int64, seconds float64) (*result, error) {
	times, in, err := timeSetups(w, seed, setupsBefore)
	if err != nil {
		return nil, err
	}
	segs, allocBytes, err := runRounds(w, in, seed, seconds)
	if err != nil {
		return nil, err
	}
	v, err := verify(w, in, seed)
	if err != nil {
		return nil, err
	}
	more, _, err := timeSetups(w, seed, setupsAfter)
	if err != nil {
		return nil, err
	}
	times = append(times, more...)
	res := &result{}
	all, n, detail := endToEnd(segs, allocBytes, percentile(times, 0.5))
	res.lagN, res.detail = n, detail
	res.metrics = pick(endToEndDecls, func(name string) float64 { return all[name].Value })
	res.check(pool(segs), v)
	return res, nil
}

// runTraced is the --trace 1 run. The time is split: half for the traced
// segment (traced and untraced laps alternating, the latter the overhead
// reference), half for the isolated kernels.
func runTraced(w *workload, seed int64, seconds float64, outDir string) (*result, error) {
	in, err := buildInput(w, seed, 1) // the traced run and the kernels use the first instance only
	if err != nil {
		return nil, err
	}
	tr, err := runSegment(w, in.encoded[0], seed, seconds/2)
	if err != nil {
		return nil, err
	}
	kernelBudget := time.Duration(seconds / 2 / 32 * float64(time.Second)) // ~30 timed kernels
	k := newKernels(w, in, seed, kernelBudget)
	if err := k.run(tr.lastFrame, tr.reg); err != nil {
		return nil, err
	}
	v, err := verify(w, in, seed)
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.layers = perLayer(w, tr, k.out, v)
	res.metrics = pick(perLayerDecls, func(name string) float64 { return res.layers[name] })
	res.check(tr, v)
	res.warnings = append(w.intent(res.layers), health(res.layers)...)
	path, err := writeSpans(outDir, w, tr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s\n", path)
	return res, nil
}

// pick builds the emitted metric set: exactly the declared names, with
// their declared units.
func pick(decls []decl, value func(name string) float64) map[string]metric {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		out[d.name] = metric{value(d.name), d.unit}
	}
	return out
}

// print writes the run's metrics by name and unit, then its failures and
// warnings.
func (r *result) print(out io.Writer, w *workload) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.layers != nil {
		printBudget(out, w, r.layers)
	} else {
		for _, s := range r.detail {
			fmt.Fprintf(out, "  %s\n", s)
		}
		fmt.Fprintf(out, "  report lag samples n=%d\n", r.lagN)
	}
	fmt.Fprintf(out, "  ops_attempted=%d ops_failed=%d correct=%v\n", r.attempted, r.failed, r.correct)
	for _, s := range r.why {
		fmt.Fprintf(out, "  FAILED: %s\n", s)
	}
	for _, s := range r.warnings {
		fmt.Fprintf(out, "  WARNING: %s\n", s)
	}
}

func hostLine() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s shards=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, shards)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the result as a JSON last line (default: run all)")
		seed    = flag.Int64("seed", 1, "the only input to the traffic generators")
		seconds = flag.Float64("seconds", 10, "timed length of one run")
		traced  = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = traced run and kernels, per-layer metrics")
		aa      = flag.Bool("aa", false, "run the full set twice in alternating order and compare the end-to-end metrics against their bounds")
		outDir  = flag.String("trace-out", "bench/out", "directory the traced run writes its spans to")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	fmt.Println(hostLine())

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var res *result
		var err error
		if *traced == 1 {
			res, err = runTraced(w, *seed, *seconds, *outDir)
		} else {
			res, err = runPlain(w, *seed, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)
		res.print(os.Stdout, w)
		fmt.Println(res.jsonLine())
		return
	}

	ok := true
	if *aa {
		ok = runAA(*seed, *seconds)
	} else {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				var res *result
				var err error
				if trace == 1 {
					res, err = runTraced(w, *seed, *seconds, *outDir)
				} else {
					res, err = runPlain(w, *seed, *seconds)
				}
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, trace)
				res.print(os.Stdout, w)
				// In the full run a missed workload intent or an unhealthy
				// harness is a failure: the baseline must not be recorded.
				ok = ok && res.correct && len(res.warnings) == 0
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
