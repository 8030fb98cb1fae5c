package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/pcap"
)

// scan runs one detector over a stored trace and prints its reports in
// capture time: every window's HHH set for the windowed engines, the
// enter/exit transitions and the final active set for the continuous
// one. -hierarchy selects the prefix lattice and with it the address
// family scanned; the other family's packets are ignored.
func scan(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		in       = fs.String("in", "", "input trace (.hhht or .pcap; required)")
		win      = fs.Duration("window", 10*time.Second, "window length / decay horizon")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction of window bytes")
		engine   = fs.String("engine", "exact", "exact, perlevel, rhhh or continuous")
		counters = fs.Int("counters", 512, "counters per level (sketch engines)")
		hierStr  = fs.String("hierarchy", "ipv4-byte", "prefix lattice: ipv4-byte, ipv4-nibble, ipv4-bit, ipv6-hextet, ipv6-nibble")
		seed     = fs.Uint64("seed", 1, "seed for randomised engines")
		verbose  = fs.Bool("v", false, "print every window even when empty")
	)
	return func(stdout, _ io.Writer) error {
		if *in == "" {
			return fmt.Errorf("%w: -in is required", errUsage)
		}
		pkts, err := pcap.LoadTrace(*in)
		if err != nil {
			return err
		}
		h, err := hierarchyOf(*hierStr)
		if err != nil {
			return err
		}
		span := pkts[len(pkts)-1].Ts + 1

		printSet := func(start, end int64, set hiddenhhh.Set) {
			if set.Len() == 0 && !*verbose {
				return
			}
			fmt.Fprintf(stdout, "window [%v, %v): %d HHHs\n",
				time.Duration(start).Round(time.Millisecond),
				time.Duration(end).Round(time.Millisecond), set.Len())
			for _, it := range set.Items() {
				fmt.Fprintf(stdout, "  %v\n", it)
			}
		}

		// Every engine runs as the public detector of its window model: the
		// windowed ones report through OnWindow, the continuous one through
		// its transitions and a final query.
		var det hiddenhhh.Detector
		if *engine == "continuous" {
			stamp := func(what string) func(addr.Prefix, int64) {
				return func(p addr.Prefix, at int64) {
					fmt.Fprintf(stdout, "%v %s %v\n", time.Duration(at).Round(time.Millisecond), what, p)
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
			return err
		}
		det.ObserveBatch(pkts)
		final := det.Snapshot(span) // closes every complete window
		if *engine == "continuous" {
			fmt.Fprintln(stdout, "final active set:")
			printSet(0, span, final)
		}
		return nil
	}
}
