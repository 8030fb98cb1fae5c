package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/addr"
)

// The multi-process cluster integration test: three ingest hhhserve
// processes partition a hit-and-run trace by source, run the sliding
// detector, and push sealed frames to a fourth aggregator process. The
// trace hides an attack pulse across the final window boundary — each
// disjoint window sees too small a slice to report it, but the trailing
// sliding window at trace end covers the whole pulse — and additionally
// splits the pulse across all three nodes, so only the aggregator's
// merged view holds the full evidence. The test asserts the aggregator
// reports every boundary-hidden prefix (hidden recall 1.0), then
// SIGSTOPs one node in a second fleet and asserts the global report
// degrades by declared coverage instead of silently narrowing.

const (
	itWindow  = 2 * time.Second
	itPhi     = 0.05
	itNodes   = 3
	itBaseEnd = int64(10_700 * int64(time.Millisecond)) // trace span
)

// itTrace builds the deterministic hit-and-run trace: a heavy-tailed
// base mix for 10.7s plus a 0.6 MB pulse from 99.99.0.0/24 over
// [9.9s, 10.7s). The pulse straddles the window boundary at 10s
// asymmetrically: window [8s,10s) holds only 0.1s of it (~2.4% of
// window mass, under phi) and window [10s,12s) never completes, while
// the trailing 2s window at trace end holds all of it (~17%).
func itTrace() []hiddenhhh.Packet {
	var pkts []hiddenhhh.Packet
	for i := int64(0); i*500_000 < itBaseEnd; i++ {
		pkts = append(pkts, hiddenhhh.Packet{
			Ts:   i * 500_000, // 2000 pps
			Src:  addr.From4(10, byte(i%200), byte((i/7)%40), byte(i%251)),
			Size: 750,
		})
	}
	pulseStart := itBaseEnd - int64(800*time.Millisecond)
	for j := int64(0); j < 2000; j++ {
		pkts = append(pkts, hiddenhhh.Packet{
			Ts:   pulseStart + j*400_000,
			Src:  addr.From4(99, 99, 0, byte(j%256)),
			Size: 300,
		})
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Ts < pkts[j].Ts })
	return pkts
}

// hiddenPrefixes computes the boundary-hidden truth at `at`: exact HHHs
// of the trailing window minus exact HHHs of every completed disjoint
// window.
func hiddenPrefixes(pkts []hiddenhhh.Packet, at int64) map[string]bool {
	h := hiddenhhh.NewIPv4Hierarchy(8)
	exact := func(lo, hi int64) hiddenhhh.Set {
		counts := map[hiddenhhh.Addr]int64{}
		var total int64
		for i := range pkts {
			if pkts[i].Ts > lo && pkts[i].Ts <= hi {
				counts[pkts[i].Src] += int64(pkts[i].Size)
				total += int64(pkts[i].Size)
			}
		}
		return hiddenhhh.ExactHHH(counts, h, hiddenhhh.Threshold(total, itPhi))
	}
	visible := map[string]bool{}
	w := int64(itWindow)
	for end := w; end <= at; end += w {
		for _, it := range exact(end-w-1, end-1).Items() { // [start,end)
			visible[it.Prefix.String()] = true
		}
	}
	hidden := map[string]bool{}
	for _, it := range exact(at-w, at).Items() {
		if !visible[it.Prefix.String()] {
			hidden[it.Prefix.String()] = true
		}
	}
	return hidden
}

// freePort grabs an ephemeral localhost port.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// buildServe compiles the hhhserve binary once per test into dir.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hhhserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startProc launches one hhhserve role and registers cleanup.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Signal(syscall.SIGCONT) // in case it is stopped
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitReady polls url until it answers 200 OK.
func waitReady(t *testing.T, url string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", url)
}

// getJSON fetches and decodes one endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// itHHH mirrors the aggregator /hhh payload fields the test reads.
type itHHH struct {
	EndNs    int64 `json:"end_ns"`
	Bytes    int64 `json:"bytes"`
	Nodes    int   `json:"nodes"`
	Expected int   `json:"expected"`
	Degraded bool  `json:"degraded"`
	Seq      int64 `json:"seq"`
	Count    int   `json:"count"`
	Items    []struct {
		Prefix string `json:"prefix"`
		Bytes  int64  `json:"bytes"`
	} `json:"items"`
}

// itStats mirrors the aggregator /stats payload fields the test reads.
type itStats struct {
	Kind           string `json:"kind"`
	Merges         int64  `json:"merges"`
	DegradedMerges int64  `json:"degraded_merges"`
	Rejected       int64  `json:"rejected"`
	Nodes          []struct {
		Node   string `json:"node"`
		Frames int64  `json:"frames"`
		LagNs  int64  `json:"lag_ns"`
	} `json:"nodes"`
}

func ingestArgs(push, tracePath string, idx int, extra ...string) []string {
	args := []string{
		"-role", "ingest", "-push", push,
		"-node", fmt.Sprintf("n%d", idx),
		"-node-index", fmt.Sprint(idx), "-node-count", fmt.Sprint(itNodes),
		"-addr", "127.0.0.1:0",
		"-mode", "sliding", "-engine", "wcss",
		"-window", itWindow.String(), "-phi", fmt.Sprint(itPhi),
		"-counters", "512", "-frames", "4",
		"-push-every", "500ms",
		"-trace", tracePath,
	}
	return append(args, extra...)
}

func TestClusterHiddenRecallMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test; skipped with -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	pkts := itTrace()
	tracePath := filepath.Join(dir, "hitrun.trace")
	if err := hiddenhhh.WriteTraceFile(tracePath, pkts); err != nil {
		t.Fatal(err)
	}

	aggPort := freePort(t)
	aggURL := fmt.Sprintf("http://127.0.0.1:%d", aggPort)
	startProc(t, bin, "-role", "aggregate", "-addr", fmt.Sprintf("127.0.0.1:%d", aggPort),
		"-expected", fmt.Sprint(itNodes), "-phi", fmt.Sprint(itPhi),
		"-window", itWindow.String(), "-round-grace", "5s")
	waitReady(t, aggURL+"/healthz", 20*time.Second)

	for i := 0; i < itNodes; i++ {
		startProc(t, bin, ingestArgs(aggURL+"/ingest", tracePath, i, "-laps", "1")...)
	}

	// Each node replays its partition once and seals a final snapshot at
	// its last packet; wait for the fleet-complete report at trace end.
	var rep itHHH
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, aggURL+"/hhh", &rep)
		if rep.Nodes == itNodes && !rep.Degraded && rep.EndNs > itBaseEnd-int64(50*time.Millisecond) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet report never completed; last: %+v", rep)
		}
		time.Sleep(100 * time.Millisecond)
	}

	hidden := hiddenPrefixes(pkts, rep.EndNs)
	if len(hidden) == 0 {
		t.Fatal("trace produced no boundary-hidden prefixes; scenario is broken")
	}
	got := map[string]bool{}
	for _, it := range rep.Items {
		got[it.Prefix] = true
	}
	for p := range hidden {
		if !got[p] {
			t.Errorf("hidden prefix %s missing from the aggregator's global report %v", p, rep.Items)
		}
	}
	t.Logf("hidden recall 1.0 over %d boundary-hidden prefixes (report: %d items, %d bytes)",
		len(hidden), rep.Count, rep.Bytes)

	var st itStats
	getJSON(t, aggURL+"/stats", &st)
	if st.Kind != "sliding" || len(st.Nodes) != itNodes || st.Rejected != 0 {
		t.Fatalf("aggregator stats: %+v", st)
	}
	for _, n := range st.Nodes {
		if n.Frames == 0 {
			t.Errorf("node %s contributed no frames", n.Node)
		}
	}
}

func TestClusterStalledNodeDegradesMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test; skipped with -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	tracePath := filepath.Join(dir, "hitrun.trace")
	if err := hiddenhhh.WriteTraceFile(tracePath, itTrace()); err != nil {
		t.Fatal(err)
	}

	aggPort := freePort(t)
	aggURL := fmt.Sprintf("http://127.0.0.1:%d", aggPort)
	startProc(t, bin, "-role", "aggregate", "-addr", fmt.Sprintf("127.0.0.1:%d", aggPort),
		"-expected", fmt.Sprint(itNodes), "-phi", fmt.Sprint(itPhi),
		"-window", itWindow.String(), "-round-grace", "2s")
	waitReady(t, aggURL+"/healthz", 20*time.Second)

	// Loop the trace with paced ingest so the fleet keeps sealing while
	// one node is stopped mid-stream.
	procs := make([]*exec.Cmd, itNodes)
	for i := 0; i < itNodes; i++ {
		procs[i] = startProc(t, bin, ingestArgs(aggURL+"/ingest", tracePath, i, "-laps", "0", "-pps", "4000")...)
	}

	// Wait for a healthy full-fleet report first.
	var rep itHHH
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, aggURL+"/hhh", &rep)
		if rep.Nodes == itNodes && !rep.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reported healthy; last: %+v", rep)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Freeze one node past the round grace; its frames stop while the
	// others keep advancing, so its last frame ages past the sliding
	// span and the report must degrade — with the lag accounted per
	// node — instead of silently narrowing.
	stalled := procs[itNodes-1]
	if err := stalled.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		getJSON(t, aggURL+"/hhh", &rep)
		if rep.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled node never degraded the report; last: %+v", rep)
		}
		time.Sleep(100 * time.Millisecond)
	}
	var st itStats
	getJSON(t, aggURL+"/stats", &st)
	stalledName := fmt.Sprintf("n%d", itNodes-1)
	var lag int64 = -1
	for _, n := range st.Nodes {
		if n.Node == stalledName {
			lag = n.LagNs
		}
	}
	if lag <= 0 {
		t.Fatalf("stalled node %s shows no lag in %+v", stalledName, st)
	}
	if st.DegradedMerges == 0 {
		t.Fatalf("no degraded merges counted: %+v", st)
	}
	// Resume so cleanup can terminate it normally.
	if err := stalled.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	t.Logf("stalled node degraded the report with lag %.2fs (%d degraded merges)",
		float64(lag)/1e9, st.DegradedMerges)
}

// TestClusterAggregatorRestartMultiProcess kills the aggregate process in
// the middle of a paced replay and starts a new, empty one on the same
// port. Every frame an ingest node sealed against the old one is a delta
// the new one has no base for, and every push into the gap fails: either
// way the node's pusher asks for a full frame, and the fleet is whole in
// the global report again without anybody's intervention — each node's
// hhh_push_resync_total says it went that way, and the new aggregator has
// rejected nothing.
func TestClusterAggregatorRestartMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test; skipped with -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	tracePath := filepath.Join(dir, "hitrun.trace")
	if err := hiddenhhh.WriteTraceFile(tracePath, itTrace()); err != nil {
		t.Fatal(err)
	}
	aggPort := freePort(t)
	aggURL := fmt.Sprintf("http://127.0.0.1:%d", aggPort)
	aggArgs := []string{"-role", "aggregate", "-addr", fmt.Sprintf("127.0.0.1:%d", aggPort),
		"-expected", fmt.Sprint(itNodes), "-phi", fmt.Sprint(itPhi), "-window", itWindow.String(), "-round-grace", "2s"}
	agg := startProc(t, bin, aggArgs...)
	waitReady(t, aggURL+"/healthz", 20*time.Second)
	nodeURLs := make([]string, itNodes)
	for i := range nodeURLs {
		port := freePort(t)
		nodeURLs[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
		startProc(t, bin, ingestArgs(aggURL+"/ingest", tracePath, i, "-laps", "0", "-pps", "4000",
			"-addr", fmt.Sprintf("127.0.0.1:%d", port))...)
	}
	whole := func(what string) itHHH {
		var rep itHHH
		for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(100 * time.Millisecond) {
			getJSON(t, aggURL+"/hhh", &rep)
			if rep.Nodes == itNodes && !rep.Degraded {
				return rep
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: fleet never reported whole; last: %+v", what, rep)
			}
		}
	}
	before := whole("before the restart")

	if err := agg.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	agg.Wait()
	startProc(t, bin, aggArgs...)
	waitReady(t, aggURL+"/healthz", 20*time.Second)
	after := whole("after the restart")
	if after.EndNs <= before.EndNs {
		t.Fatalf("the new aggregator reports up to %d, the old one had reached %d", after.EndNs, before.EndNs)
	}
	var st itStats
	getJSON(t, aggURL+"/stats", &st)
	if st.Rejected != 0 || len(st.Nodes) != itNodes {
		t.Fatalf("new aggregator stats: %+v", st)
	}
	for i, url := range nodeURLs {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := metricValue(t, string(text), "hhh_push_resync_total"); got < 1 {
			t.Errorf("node %d: hhh_push_resync_total %v after an aggregator restart", i, got)
		}
	}
	t.Logf("fleet whole again at trace time %.1fs (was %.1fs at the kill)", float64(after.EndNs)/1e9, float64(before.EndNs)/1e9)
}
