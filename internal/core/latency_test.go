package core

import (
	"strings"
	"testing"
	"time"
)

func TestDetectionLatency(t *testing.T) {
	pkts, span := testTrace(t, 60, 21)
	reports, bursts, err := DetectionLatency(pkts, LatencyConfig{
		Window:        10 * time.Second,
		Phi:           0.05,
		Span:          span,
		Bursts:        8,
		BurstDuration: 3 * time.Second,
		BurstShare:    0.6,
		BasePPS:       2000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 8 {
		t.Fatalf("planted %d bursts", len(bursts))
	}
	for _, b := range bursts {
		if b.Start < 0 || b.End > span {
			t.Fatalf("burst outside span: %+v", b)
		}
		if b.Src.As4()[0] != 240 {
			t.Fatalf("burst source %v not in reserved space", b.Src)
		}
	}
	byName := map[string]LatencyReport{}
	for _, r := range reports {
		byName[r.Name] = r
		if r.Detected+r.Missed != len(bursts) {
			t.Errorf("%s: detected %d + missed %d != %d bursts",
				r.Name, r.Detected, r.Missed, len(bursts))
		}
		if r.Latency.N() != r.Detected {
			t.Errorf("%s: %d latency samples for %d detections",
				r.Name, r.Latency.N(), r.Detected)
		}
		for _, s := range r.Latency.Samples() {
			if s < 0 {
				t.Errorf("%s: negative latency %v", r.Name, s)
			}
		}
	}
	for _, want := range []string{"disjoint", "sliding", "continuous"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing report %q", want)
		}
	}
	// Strong bursts (60% of base rate for 3 s at phi=5%) must be seen by
	// the windowless detectors essentially always.
	if byName["continuous"].Detected < len(bursts)*3/4 {
		t.Errorf("continuous detected only %d/%d strong bursts",
			byName["continuous"].Detected, len(bursts))
	}
	if byName["sliding"].Detected < len(bursts)*3/4 {
		t.Errorf("sliding detected only %d/%d strong bursts",
			byName["sliding"].Detected, len(bursts))
	}
	// Continuous detection is event-driven and must not be slower on
	// median than the disjoint model, whose reports wait for the window
	// boundary (expected ~W/2 later than burst start on average).
	cont := byName["continuous"]
	disj := byName["disjoint"]
	if disj.Detected > 0 && cont.Detected > 0 {
		if cont.Latency.Quantile(0.5) > disj.Latency.Quantile(0.5)+0.5 {
			t.Errorf("continuous median latency %.2fs slower than disjoint %.2fs",
				cont.Latency.Quantile(0.5), disj.Latency.Quantile(0.5))
		}
	}
	out := RenderLatency(reports, len(bursts))
	if !strings.Contains(out, "continuous") || !strings.Contains(out, "median") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

func TestDetectionLatencyDefaults(t *testing.T) {
	pkts, span := testTrace(t, 30, 22)
	reports, bursts, err := DetectionLatency(pkts, LatencyConfig{Span: span})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 20 || len(reports) != 3 {
		t.Fatalf("defaults: %d bursts, %d reports", len(bursts), len(reports))
	}
}
