package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hiddenhhh"
)

// startTestServer builds a server over a short generated scenario and
// ingests the whole trace synchronously (one lap, full speed), so the
// handlers answer from a fully-closed-window state.
func startTestServer(t *testing.T) (*server, func()) {
	t.Helper()
	cfg, err := scenarioConfig("ddos", 15*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := hiddenhhh.NewMetricsRegistry()
	det, err := hiddenhhh.NewShardedDetector(hiddenhhh.ShardedConfig{
		Shards:  3,
		Window:  5 * time.Second,
		Phi:     0.05,
		Engine:  hiddenhhh.EnginePerLevel,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(det, 5*time.Second, 0.05, reg, hiddenhhh.AttackWatcherConfig{
		OnEvent: func(hiddenhhh.AttackEvent) {}, // keep test logs quiet
	})
	srv.run(pkts, pkts[len(pkts)-1].Ts+1, 1, 0, replayBatch, make(chan struct{}))
	return srv, func() { det.Close() }
}

// TestServeHHH checks /hhh answers valid JSON with a plausible HHH set.
func TestServeHHH(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/hhh", nil))
	if rec.Code != 200 {
		t.Fatalf("/hhh status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/hhh content type %q", ct)
	}
	var resp hhhResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/hhh invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Count == 0 || len(resp.Items) != resp.Count {
		t.Fatalf("/hhh count=%d items=%d", resp.Count, len(resp.Items))
	}
	if resp.WindowBytes <= 0 {
		t.Fatalf("/hhh window bytes %d", resp.WindowBytes)
	}
	for _, it := range resp.Items {
		if it.Prefix == "" || it.Conditioned <= 0 || it.Share <= 0 || it.Share > 1 {
			t.Errorf("implausible item %+v", it)
		}
	}
}

// TestServeStats checks /stats reflects the ingested trace.
func TestServeStats(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var resp statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/stats invalid JSON: %v", err)
	}
	if resp.Packets == 0 || resp.Windows == 0 || resp.Shards != 3 {
		t.Fatalf("/stats implausible: %+v", resp)
	}
	if resp.Laps != 1 {
		t.Fatalf("/stats laps %d, want 1", resp.Laps)
	}
}

// TestServeHealthz checks the liveness endpoint: a clean run answers
// "ok" and carries the degradation fields an operator alerts on.
func TestServeHealthz(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/healthz invalid JSON: %v", err)
	}
	if resp["status"] != "ok" {
		t.Fatalf("/healthz status field %v", resp["status"])
	}
	for _, key := range []string{"dropped_packets", "dropped_bytes", "degraded_windows", "quarantined_shards", "shard_lag"} {
		if _, present := resp[key]; !present {
			t.Errorf("/healthz missing %q: %v", key, resp)
		}
	}
	if dp, _ := resp["dropped_packets"].(float64); dp != 0 {
		t.Errorf("clean run reports %v dropped packets", dp)
	}
}

// TestServeStatsDegradation checks /stats exposes the degradation
// report, with zero shed mass on a lossless (blocking) run.
func TestServeStatsDegradation(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var resp statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/stats invalid JSON: %v", err)
	}
	deg := resp.Degradation
	if deg.DroppedPackets != 0 || deg.DroppedBytes != 0 || deg.DegradedMerges != 0 {
		t.Fatalf("blocking run declared degradation: %+v", deg)
	}
	if len(deg.ShardDroppedPackets) != 3 {
		t.Fatalf("per-shard drop breakdown has %d entries, want 3", len(deg.ShardDroppedPackets))
	}
}

// TestRecoveryMiddleware checks a panicking handler answers 500 and the
// wrapped mux stays serviceable.
func TestRecoveryMiddleware(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	mux := srv.mux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	h := withRecovery(mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz after a recovered panic: %d", rec.Code)
	}
}

// TestOverloadFlag pins the -overload parser.
func TestOverloadFlag(t *testing.T) {
	for name, want := range map[string]hiddenhhh.OverloadPolicy{
		"block": hiddenhhh.OverloadBlock, "shed": hiddenhhh.OverloadShed,
	} {
		got, err := parseOverload(name)
		if err != nil || got != want {
			t.Errorf("overload %q: got %v, %v", name, got, err)
		}
	}
	if _, err := parseOverload("nope"); err == nil {
		t.Error("unknown overload policy accepted")
	}
}

// TestScenarioAndEngineFlags pins the flag parsers.
func TestScenarioAndEngineFlags(t *testing.T) {
	for _, name := range []string{"day0", "day1", "day2", "day3", "ddos", "default"} {
		if _, err := scenarioConfig(name, time.Minute, 1); err != nil {
			t.Errorf("scenario %q rejected: %v", name, err)
		}
	}
	if _, err := scenarioConfig("nope", time.Minute, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
	for name, want := range map[string]hiddenhhh.Engine{
		"exact": hiddenhhh.EngineExact, "perlevel": hiddenhhh.EnginePerLevel, "rhhh": hiddenhhh.EngineRHHH,
		"wcss": hiddenhhh.EngineWCSS, "memento": hiddenhhh.EngineMemento,
	} {
		got, err := hiddenhhh.ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("engine %q: got %v, %v", name, got, err)
		}
	}
	if _, err := hiddenhhh.ParseEngine("nope"); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestModeFlag pins the -mode parser.
func TestModeFlag(t *testing.T) {
	for name, want := range map[string]hiddenhhh.Mode{
		"windowed": hiddenhhh.ModeWindowed, "sliding": hiddenhhh.ModeSliding, "continuous": hiddenhhh.ModeContinuous,
	} {
		got, err := hiddenhhh.ParseMode(name)
		if err != nil || got != want {
			t.Errorf("mode %q: got %v, %v", name, got, err)
		}
	}
	if _, err := hiddenhhh.ParseMode("nope"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// metricValue extracts one sample's value from a Prometheus text
// exposition; sample is the exact name{labels} prefix of the line.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(sample)+1:]), 64)
			if err != nil {
				t.Fatalf("sample %q value unparsable: %v (%q)", sample, err, line)
			}
			return v
		}
	}
	t.Fatalf("sample %q not in exposition:\n%s", sample, text)
	return 0
}

// TestServeMetrics scrapes /metrics and checks the exposition is
// format-conformant and numerically honest: the ingest counters equal
// Stats() and the degradation counters equal Degradation() exactly.
func TestServeMetrics(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	mux := srv.mux()
	// Tick the per-route HTTP counters before the scrape.
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/hhh", nil))

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := rec.Body.String()
	samples, err := hiddenhhh.ValidateMetricsExposition(text)
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, text)
	}
	if samples < 20 {
		t.Fatalf("/metrics carries only %d samples", samples)
	}

	st := srv.det.Stats()
	deg := srv.det.Degradation()
	const labels = `{engine="perlevel",mode="windowed"}`
	if got := metricValue(t, text, "hhh_detector_packets_total"+labels); got != float64(st.Packets) {
		t.Errorf("detector packets metric %v, Stats says %d", got, st.Packets)
	}
	if got := metricValue(t, text, "hhh_detector_bytes_total"+labels); got != float64(st.Bytes) {
		t.Errorf("detector bytes metric %v, Stats says %d", got, st.Bytes)
	}
	if got := metricValue(t, text, "hhh_pipeline_filtered_packets_total"); got != float64(st.FilteredPackets) {
		t.Errorf("filtered packets metric %v, Stats says %d", got, st.FilteredPackets)
	}
	var shedPkts, shedBytes, shardPkts float64
	for i := 0; i < 3; i++ {
		lbl := `{shard="` + strconv.Itoa(i) + `"}`
		shedPkts += metricValue(t, text, "hhh_pipeline_shed_packets_total"+lbl)
		shedBytes += metricValue(t, text, "hhh_pipeline_shed_bytes_total"+lbl)
		shardPkts += metricValue(t, text, "hhh_pipeline_shard_packets_total"+lbl)
		if got := metricValue(t, text, "hhh_pipeline_shed_packets_total"+lbl); got != float64(deg.ShardDroppedPackets[i]) {
			t.Errorf("shard %d shed packets metric %v, Degradation says %d", i, got, deg.ShardDroppedPackets[i])
		}
	}
	dp, db := srv.det.DroppedMass()
	if shedPkts != float64(dp) || shedBytes != float64(db) {
		t.Errorf("shed totals metric %v/%v, DroppedMass says %d/%d", shedPkts, shedBytes, dp, db)
	}
	// Shard counters track worker absorption, which trails ingest while
	// rings drain — bounded by the stable ingest total, not equal to it.
	if shardPkts <= 0 || shardPkts > float64(st.Packets) {
		t.Errorf("per-shard packet metrics sum to %v, ingest total %d", shardPkts, st.Packets)
	}
	if got := metricValue(t, text, `hhh_pipeline_window_seals_total{result="degraded"}`); got != float64(deg.DegradedMerges) {
		t.Errorf("degraded seals metric %v, Degradation says %d", got, deg.DegradedMerges)
	}
	if got := metricValue(t, text, "hhh_pipeline_panics_total"); got != float64(deg.Panics) {
		t.Errorf("panics metric %v, Degradation says %d", got, deg.Panics)
	}
	if got := metricValue(t, text, `hhh_http_requests_total{route="/hhh"}`); got < 1 {
		t.Errorf("/hhh request counter %v after a request", got)
	}
	for _, family := range []string{
		"hhh_attacks_active", "hhh_attack_onsets_total",
		"hhh_pipeline_handoff_seconds_count", "hhh_pipeline_barrier_merge_seconds_count",
		"hhh_server_uptime_seconds", "hhh_pipeline_last_window_bytes",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

// TestServeEvents drives the server's attack watcher directly and
// checks /events round-trips the episode as JSON with coherent counts.
func TestServeEvents(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	mux := srv.mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != 200 {
		t.Fatalf("/events status %d", rec.Code)
	}
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/events invalid JSON: %v", err)
	}
	if resp.Count != len(resp.Events) {
		t.Fatalf("/events count %d vs %d events", resp.Count, len(resp.Events))
	}

	// Inject an attack window and a quiet aftermath through the same
	// watcher the sampler feeds; /events must surface both transitions.
	hot := hiddenhhh.Set{}
	p := hiddenhhh.MustParsePrefix("198.51.100.7/32")
	hot[p] = hiddenhhh.Item{Prefix: p, Count: 900, Conditioned: 900}
	srv.watcher.ObserveWindow(1e9, hot, 1000)
	quiet := hiddenhhh.Set{}
	srv.watcher.ObserveWindow(2e9, quiet, 1000)
	srv.watcher.ObserveWindow(3e9, quiet, 1000)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/events invalid JSON: %v", err)
	}
	if resp.Onsets != 1 || resp.Offs != 1 || resp.Count != 2 || len(resp.Events) != 2 {
		t.Fatalf("/events after episode: %+v", resp)
	}
	on, off := resp.Events[0], resp.Events[1]
	if on.Type != hiddenhhh.AttackOnset || off.Type != hiddenhhh.AttackOffset {
		t.Fatalf("/events order: %v then %v", on.Type, off.Type)
	}
	if on.Prefix != "198.51.100.7/32" || off.DurationNs != 2e9 {
		t.Fatalf("/events payload: onset %+v offset %+v", on, off)
	}
	if resp.Active != 0 {
		t.Fatalf("/events active %d after offset", resp.Active)
	}
}

// TestServePprofGate checks /debug/pprof/ is absent by default and
// served when the flag is set.
func TestServePprofGate(t *testing.T) {
	srv, done := startTestServer(t)
	defer done()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof served without the flag: %d", rec.Code)
	}
	srv.pprof = true
	rec = httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof index with the flag: %d", rec.Code)
	}
}

// TestServeSlidingMode runs the server over a sliding-mode sharded
// detector: /hhh must answer from a query-time merge of the live shard
// summaries at the current trace timestamp.
func TestServeSlidingMode(t *testing.T) {
	cfg, err := scenarioConfig("ddos", 15*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := hiddenhhh.NewMetricsRegistry()
	det, err := hiddenhhh.NewShardedDetector(hiddenhhh.ShardedConfig{
		Mode:    hiddenhhh.ModeSliding,
		Shards:  3,
		Window:  5 * time.Second,
		Phi:     0.05,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	srv := newServer(det, 5*time.Second, 0.05, reg, hiddenhhh.AttackWatcherConfig{
		OnEvent: func(hiddenhhh.AttackEvent) {},
	})
	srv.run(pkts, pkts[len(pkts)-1].Ts+1, 1, 0, replayBatch, make(chan struct{}))
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/hhh", nil))
	if rec.Code != 200 {
		t.Fatalf("/hhh status %d", rec.Code)
	}
	var resp hhhResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/hhh invalid JSON: %v", err)
	}
	if resp.Count == 0 {
		t.Fatal("sliding /hhh reported nothing at end of a ddos trace")
	}
	if resp.WindowBytes <= 0 {
		t.Fatalf("window bytes %d", resp.WindowBytes)
	}
	rec = httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats invalid JSON: %v", err)
	}
	if st.Mode != "sliding" {
		t.Fatalf("/stats mode %q", st.Mode)
	}
}

// TestReplayBatchInvariance pins that what a node seals and serves is a
// function of the packets' stamps and not of how the replay hands them
// over: report instants are exact multiples of the step on the trace
// clock, so batches of 1, 7 and 512 packets give the same sealed frames,
// byte for byte, and the same /events in every window model.
func TestReplayBatchInvariance(t *testing.T) {
	cfg, err := scenarioConfig("ddos", 14*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		seals  []hiddenhhh.SealedSummary
		events string
	}
	replay := func(t *testing.T, dcfg hiddenhhh.ShardedConfig, batch int) outcome {
		var out outcome
		dcfg.Shards, dcfg.Window, dcfg.Phi = 2, 3*time.Second, 0.05
		dcfg.OnSeal = func(s hiddenhhh.SealedSummary) { out.seals = append(out.seals, s) }
		det, err := hiddenhhh.NewShardedDetector(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(det, dcfg.Window, dcfg.Phi, hiddenhhh.NewMetricsRegistry(), hiddenhhh.AttackWatcherConfig{
			OnEvent: func(hiddenhhh.AttackEvent) {},
		})
		srv.pushEvery = time.Second
		srv.run(pkts, pkts[len(pkts)-1].Ts+1, 1, 0, batch, make(chan struct{}))
		if err := det.Close(); err != nil { // the last seal has fired once Close returns
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
		out.events = rec.Body.String()
		return out
	}
	for _, row := range []struct {
		name string
		cfg  hiddenhhh.ShardedConfig
	}{
		{"windowed-perlevel", hiddenhhh.ShardedConfig{Mode: hiddenhhh.ModeWindowed, Engine: hiddenhhh.EnginePerLevel}},
		{"sliding-wcss", hiddenhhh.ShardedConfig{Mode: hiddenhhh.ModeSliding, Engine: hiddenhhh.EngineWCSS}},
		{"continuous", hiddenhhh.ShardedConfig{Mode: hiddenhhh.ModeContinuous}},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := replay(t, row.cfg, replayBatch)
			if len(want.seals) < 4 {
				t.Fatalf("only %d seals over the trace", len(want.seals))
			}
			for _, batch := range []int{1, 7} {
				got := replay(t, row.cfg, batch)
				if got.events != want.events {
					t.Errorf("batch %d: /events differs from batch %d:\n%s\n%s", batch, replayBatch, got.events, want.events)
				}
				if len(got.seals) != len(want.seals) {
					t.Fatalf("batch %d: %d seals, batch %d gave %d", batch, len(got.seals), replayBatch, len(want.seals))
				}
				for i, g := range got.seals {
					w := want.seals[i]
					if g.Start != w.Start || g.End != w.End || !bytes.Equal(g.Frame, w.Frame) {
						t.Fatalf("batch %d: seal %d is [%d, %d) %d B, batch %d sealed [%d, %d) %d B",
							batch, i, g.Start, g.End, len(g.Frame), replayBatch, w.Start, w.End, len(w.Frame))
					}
				}
			}
		})
	}
}

// TestReplayPacketsReadsStoredTraces loads a scenario through the path
// -trace takes, once stored as a pcap capture and once as a binary trace
// file: each reads back as its format's own reader reads it. An empty
// capture is refused.
func TestReplayPacketsReadsStoredTraces(t *testing.T) {
	cfg, err := scenarioConfig("ddos", 5*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, f := range []struct {
		name  string
		write func(string, []hiddenhhh.Packet) error
		read  func(string) ([]hiddenhhh.Packet, error)
	}{
		{"day.pcap", hiddenhhh.WritePcapFile, hiddenhhh.ReadPcapFile},
		{"day.hhht", hiddenhhh.WriteTraceFile, hiddenhhh.ReadTraceFile},
	} {
		path := filepath.Join(dir, f.name)
		if err := f.write(path, pkts); err != nil {
			t.Fatal(err)
		}
		got, err := replayPackets(path, "", 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		want, err := f.read(path)
		if err != nil || len(want) != len(pkts) {
			t.Fatalf("%s: the format's reader read %d packets of %d: %v", f.name, len(want), len(pkts), err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: -trace read %d packets, not the %d its format's reader reads", f.name, len(got), len(want))
		}
	}
	empty := filepath.Join(dir, "empty.pcap")
	if err := hiddenhhh.WritePcapFile(empty, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := replayPackets(empty, "", 0, 0); err == nil {
		t.Fatal("an empty capture loaded without error")
	}
}
