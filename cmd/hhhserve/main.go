// Command hhhserve runs a live hierarchical-heavy-hitter query server: it
// ingests a packet stream — a generated scenario, or with -trace a stored
// trace (a .pcap capture or a binary trace file) — through the sharded
// concurrent pipeline and answers JSON queries while ingest is running.
//
//	go run ./cmd/hhhserve -addr :8080 -scenario day0 -shards 4
//	curl localhost:8080/hhh      # current merged HHH set
//	curl localhost:8080/stats    # pipeline counters
//	curl localhost:8080/healthz  # liveness
//
// -mode selects the window model: "windowed" (default) reports the most
// recently completed disjoint window; "sliding" and "continuous" — the
// views the paper shows reveal boundary-hidden HHHs — answer /hhh with a
// query-time merge of the live shard summaries at the current trace
// timestamp, so reports move continuously instead of stepping once per
// window.
//
// By default (-laps 0) the trace replays continuously, each lap shifted
// forward in time, so the server stays live indefinitely; -laps n stops
// after n laps for scripted runs. -pps throttles ingest to a target
// packet rate (0 ingests at full speed), which makes the windowed
// reports evolve at a human-watchable pace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/trace"
)

// server owns the sharded detector. The Detector ingest contract is
// single-goroutine, so the write-side touches — batch ingest and the
// snapshot at each report instant — serialise on mu; the parallelism
// lives inside the pipeline, behind the shard rings. The /hhh query
// surface does NOT take mu: it reads the pipeline's atomically
// published WindowReport via LastWindow, so queries never stall ingest.
type server struct {
	mu     sync.Mutex
	det    hiddenhhh.ShardedDetector
	window time.Duration
	phi    float64

	lastTs  atomic.Int64 // highest ingested timestamp (trace time, ns)
	laps    atomic.Int64
	started time.Time

	// Telemetry: the registry /metrics scrapes (the detector registers
	// its pipeline families on it via ShardedConfig.Metrics), the attack
	// onset/offset watcher behind /events, and the per-route HTTP metric
	// families.
	reg     *hiddenhhh.MetricsRegistry
	watcher *hiddenhhh.AttackWatcher
	http    httpMetrics
	// pprof exposes net/http/pprof on the server mux when set (the
	// -pprof flag): hot-path profiling on demand, closed by default.
	pprof bool
	// pushEvery, when positive and shorter than the window, tightens the
	// in-replay snapshot cadence so cluster-mode seals (emitted at
	// snapshot barriers in the sliding and continuous modes) ship at a
	// sub-window rate; 0 keeps the once-per-window default.
	pushEvery time.Duration
}

// replayBatch is how many packets main's replay hands to run at a time.
const replayBatch = 512

// newServer builds the query server around det. reg must be the registry
// det's pipeline metrics are registered on (ShardedConfig.Metrics) so
// /metrics serves ingest, shard and degradation families alongside the
// server's own; wcfg parameterises the attack watcher behind /events
// (zero value = documented defaults). When wcfg.OnEvent is unset every
// event is also emitted as a structured log line.
func newServer(det hiddenhhh.ShardedDetector, window time.Duration, phi float64,
	reg *hiddenhhh.MetricsRegistry, wcfg hiddenhhh.AttackWatcherConfig) *server {
	if wcfg.OnEvent == nil {
		wcfg.OnEvent = func(e hiddenhhh.AttackEvent) { log.Printf("hhhserve: %s", e) }
	}
	s := &server{
		det:     det,
		window:  window,
		phi:     phi,
		started: time.Now(),
		reg:     reg,
		watcher: hiddenhhh.NewAttackWatcher(wcfg),
	}
	s.watcher.Register(reg)
	registerUptime(reg, s.started)
	reg.GaugeFunc("hhh_server_trace_time_seconds",
		"Highest ingested trace timestamp, in seconds of trace time.",
		func() float64 { return float64(s.lastTs.Load()) / float64(time.Second) })
	reg.CounterFunc("hhh_server_trace_laps_total",
		"Completed replay laps over the ingest trace.",
		s.laps.Load)
	s.http = newHTTPMetrics(reg)
	return s
}

// run replays the trace through the pipeline, batch packets at a time.
// Each lap shifts timestamps by the trace span so trace time keeps
// advancing monotonically. laps <= 0 replays forever. pps > 0 paces
// ingest to that packet rate.
//
// Reports are taken on the trace clock, at exact multiples of the step
// (the window, or -push-every when shorter), by trace.Cutter: the packets
// stamped at or before an instant go in, then the snapshot is taken at
// the instant itself, once a later packet shows it has passed. What a
// node seals and serves is therefore a function of the packets'
// stamps, never of where a replay batch happened to end, and every node
// of a fleet seals at the same instants.
func (s *server) run(pkts []hiddenhhh.Packet, span int64, laps int, pps float64, batch int, stop <-chan struct{}) {
	var interval time.Duration
	if pps > 0 {
		interval = time.Duration(float64(batch) / pps * float64(time.Second))
	}
	step := int64(s.window)
	if s.pushEvery > 0 && int64(s.pushEvery) < step {
		step = int64(s.pushEvery)
	}
	cut := trace.Cutter{Step: step}
	observe := func(run []hiddenhhh.Packet) {
		s.mu.Lock()
		s.det.ObserveBatch(run)
		s.mu.Unlock()
		s.lastTs.Store(run[len(run)-1].Ts)
	}
	shifted := make([]hiddenhhh.Packet, batch)
	for lap := 0; laps <= 0 || lap < laps; lap++ {
		off := int64(lap) * span
		for i := 0; i < len(pkts); i += batch {
			select {
			case <-stop:
				return
			default:
			}
			n := copy(shifted, pkts[i:min(i+batch, len(pkts))])
			for j := 0; j < n; j++ {
				shifted[j].Ts += off
			}
			cut.Feed(shifted[:n], observe, s.sample)
			if interval > 0 {
				time.Sleep(interval)
			}
		}
		s.laps.Store(int64(lap + 1))
	}
	// Publish one final merge at the last ingested timestamp so the
	// wait-free /hhh read surface (LastWindow) reflects the end of the
	// replay, not just the last in-replay report instant. The frame it
	// seals is the replay's last — no later one would make up for it — so it
	// is sealed whole: an aggregator applies a full frame whatever it holds.
	s.mu.Lock()
	s.det.ResyncSeal()
	s.det.Snapshot(s.lastTs.Load())
	s.mu.Unlock()
}

// sample snapshots the detector at the report instant at and hands the
// HHH set (plus the window-mass denominator) to the onset/offset watcher.
// Runs on the ingest goroutine; the snapshot serialises on mu exactly
// like a query.
func (s *server) sample(at int64) {
	s.mu.Lock()
	set := s.det.Snapshot(at)
	windowBytes := s.det.Stats().LastWindowBytes
	s.mu.Unlock()
	s.watcher.ObserveWindow(at, set, windowBytes)
}

// hhhItem is one reported heavy hitter, JSON-shaped for /hhh.
type hhhItem struct {
	Prefix      string  `json:"prefix"`
	Bytes       int64   `json:"bytes"`
	Conditioned int64   `json:"conditioned_bytes"`
	Share       float64 `json:"share"`
}

// renderItems shapes a reported set for /hhh, each item's share taken of
// total, the report's threshold denominator.
func renderItems(set hiddenhhh.Set, total int64) []hhhItem {
	items := make([]hhhItem, 0, set.Len())
	for _, it := range set.Items() {
		item := hhhItem{
			Prefix:      it.Prefix.String(),
			Bytes:       it.Count,
			Conditioned: it.Conditioned,
		}
		if total > 0 {
			item.Share = float64(it.Conditioned) / float64(total)
		}
		items = append(items, item)
	}
	return items
}

type hhhResponse struct {
	TraceTimeNs int64     `json:"trace_time_ns"`
	WindowNs    int64     `json:"window_ns"`
	WindowBytes int64     `json:"window_bytes"`
	Phi         float64   `json:"phi"`
	Count       int       `json:"count"`
	Items       []hhhItem `json:"items"`
}

func (s *server) handleHHH(w http.ResponseWriter, r *http.Request) {
	now := s.lastTs.Load()
	// Wait-free query path: LastWindow reads the pipeline's atomically
	// published report — set and window volume are mutually consistent
	// by construction, and the read neither takes s.mu nor runs a
	// barrier merge, so queries never stall ingest (and a query storm
	// cannot pile up behind a slow merge). The ingest loop publishes a
	// fresh merge at least once per window (sample), so the report
	// is at most one window stale.
	rep := s.det.LastWindow()
	writeJSON(w, hhhResponse{
		TraceTimeNs: now,
		WindowNs:    int64(s.window),
		WindowBytes: rep.Bytes,
		Phi:         s.phi,
		Count:       rep.Set.Len(),
		Items:       renderItems(rep.Set, rep.Bytes),
	})
}

type statsResponse struct {
	hiddenhhh.PipelineStats
	StartedAt   time.Time `json:"started_at"`
	UptimeSec   float64   `json:"uptime_sec"`
	Laps        int64     `json:"laps"`
	TraceTimeNs int64     `json:"trace_time_ns"`
	IngestPPS   float64   `json:"ingest_pps"`
	// Degradation carries the per-shard shed breakdown and fault state
	// behind the embedded DroppedPackets/DegradedWindows/ShardLag
	// counters.
	Degradation hiddenhhh.DegradationReport `json:"degradation"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One Stats() snapshot per request: every top-level field below is
	// derived from st, so the response is a single consistent view even
	// while ingest keeps counting. (The per-shard Degradation breakdown is
	// necessarily a second read; its totals may trail st by the packets
	// ingested in between.)
	st := s.det.Stats()
	up := time.Since(s.started).Seconds()
	resp := statsResponse{
		PipelineStats: st,
		StartedAt:     s.started,
		UptimeSec:     up,
		Laps:          s.laps.Load(),
		TraceTimeNs:   s.lastTs.Load(),
		Degradation:   s.det.Degradation(),
	}
	if up > 0 {
		resp.IngestPPS = float64(st.Packets) / up
	}
	writeJSON(w, resp)
}

// handleHealthz reports liveness plus the degradation state an operator
// alerts on: "degraded" means the detector is up but has declared
// unobserved mass (shed batches, degraded windows, or a quarantined
// shard), so reports cover less than the full stream. The whole response
// — status decision included — derives from one Stats() snapshot, so the
// fields can never contradict the verdict.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.det.Stats()
	status := "ok"
	if st.DroppedPackets > 0 || st.DegradedWindows > 0 || len(st.Quarantined) > 0 {
		status = "degraded"
	}
	writeJSON(w, map[string]any{
		"status":             status,
		"started_at":         s.started,
		"uptime_sec":         time.Since(s.started).Seconds(),
		"dropped_packets":    st.DroppedPackets,
		"dropped_bytes":      st.DroppedBytes,
		"degraded_windows":   st.DegradedWindows,
		"quarantined_shards": len(st.Quarantined),
		"shard_lag":          st.ShardLag,
	})
}

// eventsResponse is the /events payload: the watcher's retained ring,
// oldest first.
type eventsResponse struct {
	Active int                     `json:"active_attacks"`
	Onsets int64                   `json:"onsets_total"`
	Offs   int64                   `json:"offsets_total"`
	Count  int                     `json:"count"`
	Events []hiddenhhh.AttackEvent `json:"events"`
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	evs := s.watcher.Events()
	if evs == nil {
		evs = []hiddenhhh.AttackEvent{} // "events": [] rather than null
	}
	onsets, offs := s.watcher.Counts()
	writeJSON(w, eventsResponse{
		Active: s.watcher.Active(),
		Onsets: onsets,
		Offs:   offs,
		Count:  len(evs),
		Events: evs,
	})
}

// registerUptime puts the process uptime gauge both roles export on reg.
func registerUptime(reg *hiddenhhh.MetricsRegistry, started time.Time) {
	reg.GaugeFunc("hhh_server_uptime_seconds",
		"Wall-clock seconds since the server started.",
		func() float64 { return time.Since(started).Seconds() })
}

// metricsHandler serves reg in Prometheus text format.
func metricsHandler(reg *hiddenhhh.MetricsRegistry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := hiddenhhh.WriteMetrics(w, reg); err != nil {
			log.Printf("hhhserve: /metrics write: %v", err)
		}
	}
}

// httpMetrics is the per-route HTTP metric families of either role's
// server.
type httpMetrics struct {
	reqs *telemetry.CounterVec
	lat  *telemetry.HistogramVec
}

func newHTTPMetrics(reg *hiddenhhh.MetricsRegistry) httpMetrics {
	return httpMetrics{
		reqs: reg.CounterVec("hhh_http_requests_total",
			"HTTP requests served, by route.", "route"),
		lat: reg.HistogramVec("hhh_http_request_seconds",
			"HTTP request handling latency, by route.", telemetry.LatencyBuckets, "route"),
	}
}

// instrument wraps one route with its request counter and latency
// histogram (handles cached at registration; the handler path adds one
// atomic increment and one histogram observation).
func (m httpMetrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := m.reqs.With(route)
	lat := m.lat.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		reqs.Inc()
		lat.Observe(time.Since(t0).Seconds())
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/hhh", s.http.instrument("/hhh", s.handleHHH))
	mux.HandleFunc("/stats", s.http.instrument("/stats", s.handleStats))
	mux.HandleFunc("/healthz", s.http.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/events", s.http.instrument("/events", s.handleEvents))
	mux.HandleFunc("/metrics", s.http.instrument("/metrics", metricsHandler(s.reg)))
	if s.pprof {
		// The stock pprof handlers register on DefaultServeMux at import;
		// this server uses its own mux, so the profiles stay unreachable
		// unless -pprof opted in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// withRecovery is the outermost handler layer: a panicking handler
// answers 500 and the server keeps serving, instead of the panic tearing
// down the connection (and, for handler goroutine panics, the process).
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("hhhserve: panic serving %s: %v", r.URL.Path, rec)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// serveUntilSignal serves handler on addr until SIGINT or SIGTERM, then
// runs stop — which ends whatever feeds the state the handlers read — and
// drains in-flight requests: Shutdown (unlike Close) lets a running /hhh
// finish, so the caller releases that state only after this returns.
func serveUntilSignal(addr string, handler http.Handler, stop func()) {
	httpSrv := &http.Server{
		Addr:    addr,
		Handler: withRecovery(handler),
		// Slow-client ceilings so a wedged peer cannot pin a handler (and
		// the detector lock behind it) indefinitely.
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal("hhhserve: ", err)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("hhhserve: shutting down")
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Print("hhhserve: http shutdown: ", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// replayPackets is the trace the server replays: the stored trace at path,
// a capture or a binary trace file, or else the named scenario synthesised.
func replayPackets(path, scenario string, duration time.Duration, seed int64) ([]hiddenhhh.Packet, error) {
	if path != "" {
		return pcap.LoadTrace(path)
	}
	cfg, err := scenarioConfig(scenario, duration, seed)
	if err != nil {
		return nil, err
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err == nil && len(pkts) == 0 {
		err = errors.New("empty trace")
	}
	return pkts, err
}

// scenarioConfig resolves the -scenario flag.
func scenarioConfig(name string, duration time.Duration, seed int64) (hiddenhhh.TraceConfig, error) {
	switch name {
	case "day0", "day1", "day2", "day3":
		return hiddenhhh.Tier1Day(int(name[3]-'0'), duration), nil
	case "ddos":
		return hiddenhhh.DDoSScenario(duration, seed), nil
	case "default":
		cfg := hiddenhhh.DefaultTraceConfig()
		cfg.Duration = duration
		cfg.Seed = seed
		return cfg, nil
	default:
		return hiddenhhh.TraceConfig{}, fmt.Errorf("unknown scenario %q (want day0..day3, ddos, default)", name)
	}
}

func parseOverload(name string) (hiddenhhh.OverloadPolicy, error) {
	switch name {
	case "block":
		return hiddenhhh.OverloadBlock, nil
	case "shed":
		return hiddenhhh.OverloadShed, nil
	default:
		return 0, fmt.Errorf("unknown overload policy %q (want block, shed)", name)
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modeStr   = flag.String("mode", "windowed", "window model: windowed, sliding, continuous")
		shards    = flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
		engineStr = flag.String("engine", "perlevel", "per-shard engine: exact, perlevel, rhhh (-mode windowed); wcss, memento (-mode sliding)")
		window    = flag.Duration("window", 10*time.Second, "window length / sliding span / decay horizon (detector roles; the aggregate role takes its windows from the frames)")
		phi       = flag.Float64("phi", 0.05, "HHH threshold fraction of the mode's total mass")
		counters  = flag.Int("counters", 512, "Space-Saving counters per level")
		frames    = flag.Int("frames", 0, "sliding frame count (0 = default 8, -mode sliding)")
		scenario  = flag.String("scenario", "day0", "traffic scenario: day0..day3, ddos, default")
		tracePath = flag.String("trace", "", "trace to replay instead of a scenario: a .pcap capture or a binary trace file")
		duration  = flag.Duration("duration", time.Minute, "generated scenario length")
		seed      = flag.Int64("seed", 1, "scenario seed")
		pps       = flag.Float64("pps", 0, "ingest pacing in packets/sec (0 = full speed)")
		laps      = flag.Int("laps", 0, "trace replay count (0 = loop forever)")

		overloadStr    = flag.String("overload", "block", "ring-full policy: block (lossless) or shed (bounded wait, drop and account)")
		shedWait       = flag.Duration("shed-wait", 0, "max ring wait before shedding a batch (-overload shed; 0 = 1ms default)")
		barrierTimeout = flag.Duration("barrier-timeout", 0, "window-merge deadline; stalled shards degrade the window instead of wedging it (0 = wait forever)")

		role       = flag.String("role", "single", "process role: single (default), ingest (detector + seal push to -push), aggregate (merge fleet seals, no detector)")
		pushURL    = flag.String("push", "", "aggregator /ingest URL (-role ingest)")
		nodeName   = flag.String("node", "", "this ingest node's name in the fleet (default hostname)")
		nodeIndex  = flag.Int("node-index", 0, "this node's slot in the fleet's source partition (-role ingest)")
		nodeCount  = flag.Int("node-count", 1, "fleet size for source partitioning (-role ingest; 1 = no partitioning)")
		pushEvery  = flag.Duration("push-every", 0, "seal cadence for sliding/continuous ingest (0 = once per window)")
		expected   = flag.Int("expected", 1, "ingest fleet size the aggregator waits for per round (-role aggregate)")
		roundGrace = flag.Duration("round-grace", 2*time.Second, "how long the aggregator waits for round stragglers before publishing degraded (-role aggregate)")

		pprofFlag   = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
		attackThr   = flag.Float64("attack-threshold", 0, "onset watcher: min conditioned share of window mass (0 = default 0.25)")
		attackHold  = flag.Int("attack-holdoff", 0, "onset watcher: windows below threshold before an offset fires (0 = default 2)")
		attackBytes = flag.Int64("attack-min-bytes", 0, "onset watcher: min conditioned bytes before a prefix can alarm")
	)
	flag.Parse()

	switch *role {
	case "single", "ingest":
	case "aggregate":
		runAggregate(*addr, *expected, *phi, *roundGrace)
		return
	default:
		log.Fatalf("hhhserve: unknown role %q (want single, ingest, aggregate)", *role)
	}

	mode, err := hiddenhhh.ParseMode(*modeStr)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}
	engine, err := hiddenhhh.ParseEngine(*engineStr)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}
	overload, err := parseOverload(*overloadStr)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}

	pkts, err := replayPackets(*tracePath, *scenario, *duration, *seed)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}
	// Lap span comes from the unpartitioned trace so every fleet node
	// shifts replays identically.
	span := pkts[len(pkts)-1].Ts + 1

	reg := hiddenhhh.NewMetricsRegistry()
	var push *pusher
	if *role == "ingest" {
		if *pushURL == "" {
			log.Fatal("hhhserve: -role ingest requires -push")
		}
		name := *nodeName
		if name == "" {
			name, _ = os.Hostname()
			if name == "" {
				name = fmt.Sprintf("node%d", *nodeIndex)
			}
		}
		if *nodeIndex < 0 || *nodeIndex >= *nodeCount {
			log.Fatalf("hhhserve: -node-index %d out of fleet [0,%d)", *nodeIndex, *nodeCount)
		}
		pkts = partitionPackets(pkts, *nodeIndex, *nodeCount)
		if len(pkts) == 0 {
			log.Fatal("hhhserve: this node's partition of the trace is empty")
		}
		push = newPusher(*pushURL, name)
		push.register(reg)
	}
	cfg := hiddenhhh.ShardedConfig{
		Mode:           mode,
		Shards:         *shards,
		Window:         *window,
		Phi:            *phi,
		Engine:         engine,
		Counters:       *counters,
		Frames:         *frames,
		Overload:       overload,
		ShedWait:       *shedWait,
		BarrierTimeout: *barrierTimeout,
		Metrics:        reg,
	}
	if push != nil {
		cfg.OnSeal = push.seal
	}
	det, err := hiddenhhh.NewShardedDetector(cfg)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}
	if push != nil {
		push.resync = det.ResyncSeal
	}

	srv := newServer(det, *window, *phi, reg, hiddenhhh.AttackWatcherConfig{
		Threshold: *attackThr,
		HoldOff:   *attackHold,
		MinBytes:  *attackBytes,
	})
	srv.pprof = *pprofFlag
	srv.pushEvery = *pushEvery
	stop := make(chan struct{})
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		srv.run(pkts, span, *laps, *pps, replayBatch, stop)
	}()

	st := det.Stats()
	log.Printf("hhhserve: listening on %s (%d packets/lap, %d shards, mode %s, engine %s)",
		*addr, len(pkts), st.Shards, st.Mode, st.Engine)
	serveUntilSignal(*addr, srv.mux(), func() {
		close(stop)
		<-ingestDone
	})
	if err := det.Close(); err != nil {
		log.Fatal("hhhserve: ", err)
	}
	if push != nil {
		// After det.Close no more seals can fire; drain the delivery
		// queue so the aggregator gets the final windows.
		push.close()
	}
}
