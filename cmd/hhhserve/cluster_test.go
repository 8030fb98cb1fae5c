package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hiddenhhh"
)

// slidingSeals replays a short scenario through a two-shard sliding
// detector and returns what OnSeal delivered: a full frame, then deltas.
func slidingSeals(t *testing.T, n int) []hiddenhhh.SealedSummary {
	t.Helper()
	cfg, err := scenarioConfig("ddos", time.Duration(n+1)*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seals []hiddenhhh.SealedSummary
	det, err := hiddenhhh.NewShardedDetector(hiddenhhh.ShardedConfig{
		Mode: hiddenhhh.ModeSliding, Shards: 2, Window: 3 * time.Second, Phi: 0.05,
		OnSeal: func(s hiddenhhh.SealedSummary) { seals = append(seals, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for k := 1; k <= n; k++ {
		at := int64(k) * int64(time.Second)
		i := fed
		for i < len(pkts) && pkts[i].Ts <= at {
			i++
		}
		det.ObserveBatch(pkts[fed:i])
		fed = i
		det.Snapshot(at)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seals) != n || seals[0].Delta || !seals[1].Delta {
		t.Fatalf("%d seals, want %d: a full frame, then deltas", len(seals), n)
	}
	return seals
}

// ingestRequest is the POST a pusher would make for s, with the named
// headers left out or replaced.
func ingestRequest(s hiddenhhh.SealedSummary, node string, override map[string]string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(s.Frame))
	h := map[string]string{
		"X-HHH-Node":  node,
		"X-HHH-Seq":   strconv.FormatInt(s.Seq, 10),
		"X-HHH-Start": strconv.FormatInt(s.Start, 10),
		"X-HHH-End":   strconv.FormatInt(s.End, 10),
	}
	for k, v := range override {
		h[k] = v
	}
	for k, v := range h {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	return req
}

// TestAggIngestHandler drives /ingest in process. A frame with its
// alignment headers answers 204; one whose node name, Seq, Start or End is
// missing or not a number answers 400 before the Aggregator hears of it —
// no node filed under a connection's address, no frame dropped as late
// under Seq 0 and acknowledged; a delta the aggregator holds no base for
// answers 409 and counts as neither rejected nor late.
func TestAggIngestHandler(t *testing.T) {
	seals := slidingSeals(t, 3)
	s, err := newAggServer(1, 0.05, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.agg.Close()
	mux := s.mux()
	post := func(req *http.Request) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(ingestRequest(seals[0], "n0", nil)); code != http.StatusNoContent {
		t.Fatalf("good frame: %d", code)
	}
	before := s.agg.Stats()
	for _, tc := range []struct {
		name     string
		override map[string]string
	}{
		{"no node", map[string]string{"X-HHH-Node": ""}},
		{"no seq", map[string]string{"X-HHH-Seq": ""}},
		{"garbled seq", map[string]string{"X-HHH-Seq": "2x"}},
		{"no start", map[string]string{"X-HHH-Start": ""}},
		{"garbled start", map[string]string{"X-HHH-Start": "soon"}},
		{"no end", map[string]string{"X-HHH-End": ""}},
		{"garbled end", map[string]string{"X-HHH-End": "1e9"}},
	} {
		if code := post(ingestRequest(seals[1], "n0", tc.override)); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, code)
		}
	}
	if st := s.agg.Stats(); len(st.Nodes) != 1 || st.Nodes[0] != before.Nodes[0] || st.LateFrames != 0 || st.Rejected != 0 {
		t.Fatalf("refused requests reached the aggregator: %+v", st)
	}
	if code := post(ingestRequest(seals[1], "n0", nil)); code != http.StatusNoContent {
		t.Fatalf("delta over its base: %d", code)
	}
	// A node the aggregator has no frame of sends a delta.
	if code := post(ingestRequest(seals[2], "n1", nil)); code != http.StatusConflict {
		t.Fatalf("delta without a base: %d, want 409", code)
	}
	st := s.agg.Stats()
	if len(st.Nodes) != 2 || st.Nodes[0].Frames != 2 || st.Nodes[1].NeedFull != 1 || st.Nodes[1].Frames != 0 ||
		st.Rejected != 0 || st.LateFrames != 0 {
		t.Fatalf("stats %+v", st)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if _, err := hiddenhhh.ValidateMetricsExposition(rec.Body.String()); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	if got := metricValue(t, rec.Body.String(), `hhh_aggregator_need_full_total{node="n1"}`); got != 1 {
		t.Errorf("need_full metric %v, Stats says 1", got)
	}
}

// TestPusherHeaders pins what a pushed seal carries: the frame as the body
// and exactly the headers handleIngest reads — the node name, Seq, the span
// and the degradation verdict. Everything else a report needs is in the
// frame.
func TestPusherHeaders(t *testing.T) {
	s := slidingSeals(t, 2)[1]
	s.Degraded = true
	var got http.Header
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		body, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	push := newPusher(ts.URL+"/ingest", "n0")
	defer push.close()
	if err := push.post(s); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"X-Hhh-Node":     "n0",
		"X-Hhh-Seq":      strconv.FormatInt(s.Seq, 10),
		"X-Hhh-Start":    strconv.FormatInt(s.Start, 10),
		"X-Hhh-End":      strconv.FormatInt(s.End, 10),
		"X-Hhh-Degraded": "true",
	}
	for name, vals := range got {
		if strings.HasPrefix(name, "X-Hhh-") {
			if w, ok := want[name]; !ok || len(vals) != 1 || vals[0] != w {
				t.Errorf("header %s: %q, want %q", name, vals, w)
			}
		}
	}
	for name := range want {
		if got.Get(name) == "" {
			t.Errorf("header %s missing", name)
		}
	}
	if !bytes.Equal(body, s.Frame) {
		t.Errorf("body is %d bytes, the frame %d", len(body), len(s.Frame))
	}
}

// TestPusherResync runs a sliding detector behind a real pusher against an
// aggregator that is replaced, state and all, between two seals. The new
// one holds no base for the next delta and answers 409; the pusher asks the
// detector for a full frame, and the seal after that one puts the node back
// in the global report — two seals, counted in hhh_push_resync_total
// beside the errors.
func TestPusherResync(t *testing.T) {
	var live atomic.Pointer[aggServer]
	restart := func() *aggServer {
		s, err := newAggServer(1, 0.05, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.agg.Close)
		live.Store(s)
		return s
	}
	restart()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().mux().ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := hiddenhhh.NewMetricsRegistry()
	push := newPusher(ts.URL+"/ingest", "n0")
	push.register(reg)
	det, err := hiddenhhh.NewShardedDetector(hiddenhhh.ShardedConfig{
		Mode: hiddenhhh.ModeSliding, Shards: 2, Window: 3 * time.Second, Phi: 0.05, OnSeal: push.seal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	push.resync = det.ResyncSeal
	cfg, err := scenarioConfig("ddos", 8*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed, sealed := 0, int64(0)
	seal := func() { // one more report instant, delivered or refused before it returns
		sealed++
		at := sealed * int64(time.Second)
		i := fed
		for i < len(pkts) && pkts[i].Ts <= at {
			i++
		}
		det.ObserveBatch(pkts[fed:i])
		fed = i
		det.Snapshot(at)
		for deadline := time.Now().Add(10 * time.Second); push.pushed.Load()+push.errs.Load() < sealed; {
			if time.Now().After(deadline) {
				t.Fatalf("seal %d never left the pusher", sealed)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		seal()
	}
	if push.pushed.Load() != 3 || push.resyncs.Load() != 0 {
		t.Fatalf("before the restart: %d pushed, %d resyncs", push.pushed.Load(), push.resyncs.Load())
	}
	agg := restart()
	seal() // a delta over a frame the new aggregator never saw: 409
	if push.errs.Load() != 1 || push.resyncs.Load() != 1 || agg.agg.Report().Nodes != 0 {
		t.Fatalf("seal after the restart: %d errors, %d resyncs, %d nodes reporting",
			push.errs.Load(), push.resyncs.Load(), agg.agg.Report().Nodes)
	}
	seal() // the full frame the resync asked for
	seal() // and deltas again
	st := agg.agg.Stats()
	if push.pushed.Load() != 5 || agg.agg.Report().Nodes != 1 || agg.agg.Report().End != sealed*int64(time.Second) ||
		st.Nodes[0].NeedFull != 1 || st.Nodes[0].Frames != 2 || st.Rejected != 0 {
		t.Fatalf("two seals after the restart: %d pushed, report %+v, stats %+v", push.pushed.Load(), agg.agg.Report(), st)
	}
	var sb bytes.Buffer
	if err := hiddenhhh.WriteMetrics(&sb, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := hiddenhhh.ValidateMetricsExposition(sb.String()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for sample, want := range map[string]int64{
		"hhh_push_resync_total": push.resyncs.Load(), "hhh_push_errors_total": 1,
		"hhh_push_frames_total": 5, "hhh_push_dropped_total": 0,
	} {
		if got := metricValue(t, sb.String(), sample); got != float64(want) {
			t.Errorf("%s %v, want %d", sample, got, want)
		}
	}
	push.close()
}
