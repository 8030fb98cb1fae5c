// Command tracegen synthesises Tier-1-like packet traces — the
// repository's stand-in for the paper's CAIDA captures — and stores them
// in the compact binary trace format or as pcap.
//
// Usage:
//
//	tracegen -out day0.hhht -duration 1m -preset day0
//	tracegen -out attack.pcap -format pcap -preset ddos -seed 7
//	tracegen -out custom.hhht -pps 20000 -flows 5000 -pulses 10
//	tracegen -out v6ddos.pcap -preset ipv6-ddos        # IPv6-only attack mix
//	tracegen -out dual.hhht -v6 0.5                    # dual-stack default mix
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", "", "output path (required)")
		format   = flag.String("format", "auto", "output format: trace, pcap or auto (by extension)")
		preset   = flag.String("preset", "default", "scenario: default, day0..day3, ddos, ipv6-ddos, dual-stack")
		duration = flag.Duration("duration", time.Minute, "trace duration")
		seed     = flag.Int64("seed", 0, "override scenario seed (0 keeps preset seed)")
		pps      = flag.Float64("pps", 0, "override mean packet rate")
		flows    = flag.Int("flows", 0, "override concurrent flow count")
		pulses   = flag.Float64("pulses", -1, "override pulses per minute (-1 keeps preset)")
		v6       = flag.Float64("v6", -1, "override the IPv6 source fraction in [0,1] (-1 keeps preset)")
		quiet    = flag.Bool("q", false, "suppress the stats summary")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := presetConfig(*preset, *duration)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *pps > 0 {
		cfg.MeanPacketRate = *pps
	}
	if *flows > 0 {
		cfg.Flows = *flows
	}
	if *pulses >= 0 {
		cfg.PulsesPerMinute = *pulses
	}
	if *v6 >= 0 {
		cfg.V6Fraction = *v6
	}

	pkts, err := gen.Packets(cfg)
	if err != nil {
		fatal(err)
	}

	f := *format
	if f == "auto" {
		if strings.HasSuffix(*out, ".pcap") {
			f = "pcap"
		} else {
			f = "trace"
		}
	}
	switch f {
	case "trace":
		err = trace.WriteFile(*out, pkts)
	case "pcap":
		err = pcap.WriteFile(*out, pkts)
	default:
		err = fmt.Errorf("unknown format %q", f)
	}
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("wrote %s (%s): %s\n", *out, f, trace.ComputeStats(pkts))
	}
}

func presetConfig(name string, d time.Duration) (gen.Config, error) {
	switch name {
	case "default":
		cfg := gen.DefaultConfig()
		cfg.Duration = d
		return cfg, nil
	case "day0", "day1", "day2", "day3":
		return gen.Tier1Day(int(name[3]-'0'), d), nil
	case "ddos":
		return gen.DDoSScenario(d, 42), nil
	case "ipv6-ddos":
		return gen.IPv6HitAndRunScenario(d, 42), nil
	case "dual-stack":
		return gen.DualStackScenario(d, 42), nil
	default:
		return gen.Config{}, fmt.Errorf("unknown preset %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
