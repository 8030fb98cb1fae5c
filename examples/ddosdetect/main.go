// DDoS detection: the paper's motivating scenario, made concrete.
//
// An attack burst is planted so that it straddles a disjoint-window
// boundary: each window sees only half of it, and the attacker stays
// below the per-window threshold — a hidden hierarchical heavy hitter.
// The same stream is fed to the sliding-window and continuous
// (time-decaying) detectors, which both catch it.
//
//	go run ./examples/ddosdetect
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"hiddenhhh"
)

func main() {
	const (
		window = 10 * time.Second
		phi    = 0.10
	)
	attacker := hiddenhhh.MustParseAddr("203.0.113.66")
	host := hiddenhhh.MustParsePrefix("203.0.113.66/32")

	// Base traffic: one minute of the standard mix.
	cfg := hiddenhhh.DefaultTraceConfig()
	cfg.Duration = time.Minute
	cfg.Seed = 99
	cfg.MeanPacketRate = 2000
	cfg.PulsesPerMinute = 0 // keep the demonstration deterministic
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Plant a 2-second attack burst centred on the 30 s window boundary:
	// ~7% of each adjacent disjoint window (below the 10% threshold),
	// ~15% of any window that contains it whole.
	burst := makeBurst(attacker, 30*time.Second, 2*time.Second, 1100)
	pkts = mergeByTime(pkts, burst)
	fmt.Printf("trace: %d packets, attack burst of %d packets at 29-31 s\n\n",
		len(pkts), len(burst))

	report := func(name string, found bool, detail string) {
		verdict := "MISSED"
		if found {
			verdict = "DETECTED"
		}
		fmt.Printf("%-22s %-9s %s\n", name, verdict, detail)
	}

	// 1. Disjoint windows (the data-plane status quo).
	var disjointHit bool
	wd, err := hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
		Window: window,
		Phi:    phi,
		OnWindow: func(start, end int64, set hiddenhhh.Set) {
			if set.Contains(host) {
				disjointHit = true
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	wd.ObserveBatch(pkts)
	wd.Snapshot(int64(cfg.Duration))
	report("disjoint windows", disjointHit,
		fmt.Sprintf("(burst split across [20s,30s) and [30s,40s); phi=%.0f%%)", 100*phi))

	// 2. Sliding windows (same length, 1 s granularity via frames).
	sd, err := hiddenhhh.NewSlidingDetector(hiddenhhh.SlidingConfig{
		Window: window,
		Phi:    phi,
		Frames: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Batch-feed one second at a time and poll the report at each
	// boundary, as a sliding analysis would.
	var slidingHit bool
	var slidingAt time.Duration
	for rest, sec := pkts, int64(time.Second); len(rest) > 0; sec += int64(time.Second) {
		n := sort.Search(len(rest), func(i int) bool { return rest[i].Ts >= sec })
		sd.ObserveBatch(rest[:n])
		rest = rest[n:]
		if !slidingHit && sd.Snapshot(sec).Contains(host) {
			slidingHit = true
			slidingAt = time.Duration(sec)
		}
	}
	report("sliding window", slidingHit, fmt.Sprintf("(first seen at %v)", slidingAt.Round(time.Second)))

	// 3. Continuous time-decaying detection (the paper's proposal).
	var contAt time.Duration
	var contHit bool
	cd, err := hiddenhhh.NewContinuousDetector(hiddenhhh.ContinuousConfig{
		Horizon: window,
		Phi:     phi,
		OnEnter: func(p hiddenhhh.Prefix, at int64) {
			if p == host && !contHit {
				contHit = true
				contAt = time.Duration(at)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	cd.ObserveBatch(pkts)
	report("continuous (TDBF)", contHit, fmt.Sprintf("(entered active set at %v)", contAt.Round(time.Second)))

	fmt.Println("\nThe burst never exceeds the threshold inside any single disjoint")
	fmt.Println("window, so the reset-per-window pipeline cannot see it — the hidden")
	fmt.Println("HHH the paper quantifies. Both windowless views recover it.")
}

// makeBurst emits n pps of 1000-byte packets for dur centred on at.
func makeBurst(src hiddenhhh.Addr, at, dur time.Duration, pps int) []hiddenhhh.Packet {
	start := at - dur/2
	n := int(dur.Seconds() * float64(pps))
	out := make([]hiddenhhh.Packet, n)
	for i := range out {
		out[i] = hiddenhhh.Packet{
			Ts:    int64(start) + int64(dur)*int64(i)/int64(n),
			Src:   src,
			Dst:   hiddenhhh.MustParseAddr("198.51.100.10"),
			Proto: 17,
			Size:  1000,
		}
	}
	return out
}

// mergeByTime merges two time-sorted packet slices.
func mergeByTime(a, b []hiddenhhh.Packet) []hiddenhhh.Packet {
	out := append(append([]hiddenhhh.Packet(nil), a...), b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}
