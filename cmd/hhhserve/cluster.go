// Cluster mode for hhhserve: -role ingest runs the normal sharded
// detector and additionally ships every sealed summary frame to an
// aggregator node over HTTP; -role aggregate runs no detector at all —
// it accepts frames from the whole ingest fleet on /ingest, merges them
// through the Aggregator, and serves the global /hhh, /stats, /healthz
// and /metrics views. See ARCHITECTURE.md, "Cluster mode".
//
//	hhhserve -role aggregate -addr :9090 -expected 3
//	hhhserve -role ingest -push http://agg:9090/ingest -node n0 \
//	         -node-index 0 -node-count 3 -mode sliding
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hiddenhhh"
)

// maxFrameBody bounds an /ingest request body; the wire codec's own
// allocation budgets bound what a decoded frame may cost beyond that.
const maxFrameBody = 64 << 20

// pusher ships sealed frames from the detector's OnSeal callback to the
// aggregator's /ingest endpoint. OnSeal must not block, so frames hop
// through a bounded queue to a single delivery goroutine; when the
// aggregator is slow or down the queue drops the newest frame and
// counts it (the aggregator's round grace turns the gap into a degraded
// round, never a wrong one). A frame that did not get through — dropped,
// failed, or answered 409: no base there for a delta — leaves the deltas
// after it without one, so it asks the detector for a full frame next.
type pusher struct {
	url    string
	node   string
	client *http.Client
	ch     chan hiddenhhh.SealedSummary
	wg     sync.WaitGroup
	resync func() // the detector's ResyncSeal, set before the first packet

	pushed  atomic.Int64
	dropped atomic.Int64
	errs    atomic.Int64
	resyncs atomic.Int64
}

// lost asks for a full frame next: one just sealed will not be applied.
func (p *pusher) lost() {
	p.resyncs.Add(1)
	p.resync()
}

func newPusher(url, node string) *pusher {
	p := &pusher{
		url:    url,
		node:   node,
		client: &http.Client{Timeout: 10 * time.Second},
		ch:     make(chan hiddenhhh.SealedSummary, 64),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// seal is the OnSeal callback: enqueue without blocking the merge path.
func (p *pusher) seal(s hiddenhhh.SealedSummary) {
	select {
	case p.ch <- s:
	default:
		p.dropped.Add(1)
		p.lost()
	}
}

func (p *pusher) loop() {
	defer p.wg.Done()
	for s := range p.ch {
		if err := p.post(s); err != nil {
			p.errs.Add(1)
			p.lost()
			log.Printf("hhhserve: push seal %d: %v", s.Seq, err)
		} else {
			p.pushed.Add(1)
		}
	}
}

// post delivers one frame. The alignment metadata rides in headers so
// the body stays the raw frame (curl-able, content-addressable).
func (p *pusher) post(s hiddenhhh.SealedSummary) error {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(s.Frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-HHH-Node", p.node)
	req.Header.Set("X-HHH-Seq", strconv.FormatInt(s.Seq, 10))
	req.Header.Set("X-HHH-Start", strconv.FormatInt(s.Start, 10))
	req.Header.Set("X-HHH-End", strconv.FormatInt(s.End, 10))
	req.Header.Set("X-HHH-Degraded", strconv.FormatBool(s.Degraded))
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("aggregator answered %s", resp.Status)
	}
	return nil
}

// close drains and stops the delivery goroutine.
func (p *pusher) close() {
	close(p.ch)
	p.wg.Wait()
}

// register puts the pusher's delivery counters on the ingest node's
// registry so fleet health is scrapeable from both ends.
func (p *pusher) register(reg *hiddenhhh.MetricsRegistry) {
	reg.CounterFunc("hhh_push_frames_total",
		"Sealed frames delivered to the aggregator.", p.pushed.Load)
	reg.CounterFunc("hhh_push_dropped_total",
		"Sealed frames dropped because the push queue was full.", p.dropped.Load)
	reg.CounterFunc("hhh_push_errors_total",
		"Sealed frame deliveries that failed, a 409 (the aggregator lacks the frame a delta builds on) included.", p.errs.Load)
	reg.CounterFunc("hhh_push_resync_total",
		"Full frames asked of the detector because a sealed frame was dropped or its delivery failed.", p.resyncs.Load)
}

// partitionPackets keeps the slice of pkts that belongs to node index
// of count: the packets whose source address, its two halves XORed, is
// index mod count. It is not the in-process shards' split (a mixed hash of
// the leaf key), but it is as disjoint — every source lands on exactly one
// node — so the fleet's merged view telescopes to the single-node bound.
func partitionPackets(pkts []hiddenhhh.Packet, index, count int) []hiddenhhh.Packet {
	if count <= 1 {
		return pkts
	}
	out := make([]hiddenhhh.Packet, 0, len(pkts)/count+1)
	for i := range pkts {
		src := pkts[i].Src
		if int((src.Lo()^src.Hi())%uint64(count)) == index {
			out = append(out, pkts[i])
		}
	}
	return out
}

// aggServer is the -role aggregate process: no detector, just the
// fleet-merge Aggregator behind an HTTP surface.
type aggServer struct {
	agg     *hiddenhhh.Aggregator
	phi     float64
	started time.Time
	reg     *hiddenhhh.MetricsRegistry
	http    httpMetrics
}

func newAggServer(expected int, phi float64, grace time.Duration) (*aggServer, error) {
	reg := hiddenhhh.NewMetricsRegistry()
	agg, err := hiddenhhh.NewAggregator(hiddenhhh.AggregatorConfig{
		Expected:   expected,
		Phi:        phi,
		RoundGrace: grace,
		Metrics:    reg,
	})
	if err != nil {
		return nil, err
	}
	s := &aggServer{
		agg:     agg,
		phi:     phi,
		started: time.Now(),
		reg:     reg,
	}
	registerUptime(reg, s.started)
	s.http = newHTTPMetrics(reg)
	return s, nil
}

// handleIngest accepts one sealed frame from an ingest node. Sender
// faults (missing or garbled alignment headers, bad frames, kind or
// hierarchy drift) answer 400; a delta whose base the aggregator does not
// hold answers 409, which the sender's next seal — a full frame — cures;
// everything else that fails answers 500. Accepted frames answer 204.
func (s *aggServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBody))
	if err != nil {
		http.Error(w, "body read: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	// What the frame is filed and aligned by must be there: without a name
	// it would open a node per connection, without a Seq be dropped as late.
	node, bad := r.Header.Get("X-HHH-Node"), ""
	if node == "" {
		bad = "X-HHH-Node"
	}
	intHeader := func(name string) int64 {
		v, err := strconv.ParseInt(r.Header.Get(name), 10, 64)
		if err != nil {
			bad = name
		}
		return v
	}
	sealed := hiddenhhh.SealedSummary{
		Seq:      intHeader("X-HHH-Seq"),
		Start:    intHeader("X-HHH-Start"),
		End:      intHeader("X-HHH-End"),
		Degraded: r.Header.Get("X-HHH-Degraded") == "true",
		Frame:    body,
	}
	if bad != "" {
		http.Error(w, "missing or non-numeric "+bad, http.StatusBadRequest)
		return
	}
	if err := s.agg.Ingest(node, sealed); err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, hiddenhhh.ErrFrameRejected):
			code = http.StatusBadRequest
		case errors.Is(err, hiddenhhh.ErrNeedFull):
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// aggHHHResponse is the aggregator's /hhh payload: the merged fleet
// view plus its coverage markers.
type aggHHHResponse struct {
	StartNs  int64     `json:"start_ns"`
	EndNs    int64     `json:"end_ns"`
	Bytes    int64     `json:"bytes"`
	Phi      float64   `json:"phi"`
	Nodes    int       `json:"nodes"`
	Expected int       `json:"expected"`
	Degraded bool      `json:"degraded"`
	Seq      int64     `json:"seq"`
	Count    int       `json:"count"`
	Items    []hhhItem `json:"items"`
}

func (s *aggServer) handleHHH(w http.ResponseWriter, r *http.Request) {
	rep := s.agg.Report()
	writeJSON(w, aggHHHResponse{
		StartNs:  rep.Start,
		EndNs:    rep.End,
		Bytes:    rep.Bytes,
		Phi:      s.phi,
		Nodes:    rep.Nodes,
		Expected: rep.Expected,
		Degraded: rep.Degraded,
		Seq:      rep.Seq,
		Count:    rep.Set.Len(),
		Items:    renderItems(rep.Set, rep.Bytes),
	})
}

// aggStatsResponse is the aggregator's /stats payload.
type aggStatsResponse struct {
	hiddenhhh.AggregatorStats
	StartedAt time.Time `json:"started_at"`
	UptimeSec float64   `json:"uptime_sec"`
	ReportSeq int64     `json:"report_seq"`
	ReportEnd int64     `json:"report_end_ns"`
}

func (s *aggServer) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := s.agg.Report()
	writeJSON(w, aggStatsResponse{
		AggregatorStats: s.agg.Stats(),
		StartedAt:       s.started,
		UptimeSec:       time.Since(s.started).Seconds(),
		ReportSeq:       rep.Seq,
		ReportEnd:       rep.End,
	})
}

// handleHealthz mirrors the ingest server's contract: "degraded" means
// alive but covering less than the full fleet — the latest report
// missed nodes, or frames have been rejected or dropped late.
func (s *aggServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := s.agg.Report()
	st := s.agg.Stats()
	status := "ok"
	if rep.Degraded || st.Rejected > 0 {
		status = "degraded"
	}
	writeJSON(w, map[string]any{
		"status":          status,
		"started_at":      s.started,
		"uptime_sec":      time.Since(s.started).Seconds(),
		"expected_nodes":  st.Expected,
		"reported_nodes":  rep.Nodes,
		"degraded_report": rep.Degraded,
		"rejected_frames": st.Rejected,
		"late_frames":     st.LateFrames,
	})
}

func (s *aggServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.http.instrument("/ingest", s.handleIngest))
	mux.HandleFunc("/hhh", s.http.instrument("/hhh", s.handleHHH))
	mux.HandleFunc("/stats", s.http.instrument("/stats", s.handleStats))
	mux.HandleFunc("/healthz", s.http.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.http.instrument("/metrics", metricsHandler(s.reg)))
	return mux
}

// runAggregate is the -role aggregate main loop: serve until SIGINT or
// SIGTERM, then drain in-flight requests and release the aggregator.
func runAggregate(addr string, expected int, phi float64, grace time.Duration) {
	s, err := newAggServer(expected, phi, grace)
	if err != nil {
		log.Fatal("hhhserve: ", err)
	}
	log.Printf("hhhserve: aggregating on %s (expecting %d ingest nodes, phi %.3g)",
		addr, expected, phi)
	serveUntilSignal(addr, s.mux(), func() {})
	s.agg.Close()
}
