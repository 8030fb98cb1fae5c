// Command hhhscan runs hierarchical-heavy-hitter detection over a stored
// trace (binary format or pcap) and prints the per-window reports.
//
// Usage:
//
//	hhhscan -in day0.hhht -window 10s -phi 0.05
//	hhhscan -in day0.pcap -engine rhhh -counters 256 -window 5s -phi 0.01
//	hhhscan -in day0.hhht -engine continuous -window 10s -phi 0.05
//	hhhscan -in dual.pcap -hierarchy ipv6-hextet -window 10s
//
// The -hierarchy flag selects the prefix lattice (and with it the address
// family scanned; the other family's packets are ignored): ipv4-byte,
// ipv4-nibble, ipv4-bit, ipv6-hextet, ipv6-nibble.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "input trace (.hhht or .pcap; required)")
		win      = flag.Duration("window", 10*time.Second, "window length / decay horizon")
		phi      = flag.Float64("phi", 0.05, "HHH threshold fraction of window bytes")
		engine   = flag.String("engine", "exact", "exact, perlevel, rhhh or continuous")
		counters = flag.Int("counters", 512, "counters per level (sketch engines)")
		hierStr  = flag.String("hierarchy", "ipv4-byte", "prefix lattice: ipv4-byte, ipv4-nibble, ipv4-bit, ipv6-hextet, ipv6-nibble")
		seed     = flag.Uint64("seed", 1, "seed for randomised engines")
		verbose  = flag.Bool("v", false, "print every window even when empty")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hhhscan: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	pkts, err := load(*in)
	if err != nil {
		fatal(err)
	}
	if len(pkts) == 0 {
		fatal(fmt.Errorf("trace %s is empty", *in))
	}
	h, err := hierarchyOf(*hierStr)
	if err != nil {
		fatal(err)
	}
	span := pkts[len(pkts)-1].Ts + 1

	printSet := func(start, end int64, set hiddenhhh.Set) {
		if set.Len() == 0 && !*verbose {
			return
		}
		fmt.Printf("window [%v, %v): %d HHHs\n",
			time.Duration(start).Round(time.Millisecond),
			time.Duration(end).Round(time.Millisecond), set.Len())
		for _, it := range set.Items() {
			fmt.Printf("  %v\n", it)
		}
	}

	// Every engine runs as the public detector of its window model: the
	// windowed ones report through OnWindow, the continuous one through its
	// transitions and a final query.
	var det hiddenhhh.Detector
	if *engine == "continuous" {
		stamp := func(what string) func(addr.Prefix, int64) {
			return func(p addr.Prefix, at int64) {
				fmt.Printf("%v %s %v\n", time.Duration(at).Round(time.Millisecond), what, p)
			}
		}
		det, err = hiddenhhh.NewContinuousDetector(hiddenhhh.ContinuousConfig{
			Horizon: *win, Phi: *phi, Hierarchy: h, Seed: *seed,
			OnEnter: stamp("ENTER"), OnExit: stamp("EXIT "),
		})
	} else {
		var eng hiddenhhh.Engine
		if eng, err = hiddenhhh.ParseEngine(*engine); err == nil {
			det, err = hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
				Window: *win, Phi: *phi, Engine: eng, Counters: *counters,
				Hierarchy: h, Seed: *seed, OnWindow: printSet,
			})
		}
	}
	if err != nil {
		fatal(err)
	}
	det.ObserveBatch(pkts)
	final := det.Snapshot(span) // closes every complete window
	if *engine == "continuous" {
		fmt.Println("final active set:")
		printSet(0, span, final)
	}
}

func load(path string) ([]trace.Packet, error) {
	if strings.HasSuffix(path, ".pcap") {
		return pcap.ReadFile(path)
	}
	return trace.ReadFile(path)
}

func hierarchyOf(s string) (addr.Hierarchy, error) {
	switch s {
	case "ipv4-bit", "bit":
		return addr.NewIPv4Hierarchy(addr.Bit), nil
	case "ipv4-nibble", "nibble":
		return addr.NewIPv4Hierarchy(addr.Nibble), nil
	case "ipv4-byte", "byte":
		return addr.NewIPv4Hierarchy(addr.Byte), nil
	case "ipv6-hextet":
		return addr.NewIPv6Hierarchy(addr.Hextet), nil
	case "ipv6-nibble":
		return addr.NewIPv6Hierarchy(addr.Nibble), nil
	default:
		return addr.Hierarchy{}, fmt.Errorf("unknown hierarchy %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hhhscan:", err)
	os.Exit(1)
}
