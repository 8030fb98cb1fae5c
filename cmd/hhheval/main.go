// Command hhheval is the offline harness: the paper's experiments and
// the accuracy suite, one subcommand each, all driving the same detectors
// the live system runs.
//
//	hhheval [accuracy] [-strict] [-format json]   oracle-differential accuracy suite
//	hhheval fig2 [-steps] [-granularity nibble]   Figure 2: HHHs hidden by disjoint windows
//	hhheval fig3 [-cdf] [-tails]                  Figure 3: sensitivity to window size
//	hhheval section3 [-sweep] [-latency]          Section 3: windowed vs time-decaying detection
//	hhheval scan -in day0.pcap [-engine rhhh]     per-window reports over a stored trace
//
// With no subcommand (or a flag first) it runs accuracy. fig2, fig3 and
// section3 synthesise the Tier-1 scenarios standing in for the paper's
// CAIDA days unless -in names a stored trace (.pcap by extension, the
// binary trace format otherwise); `hhheval <subcommand> -h` lists a
// subcommand's flags. Everything is seeded, so two runs with the same
// flags print the same tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

// A command declares its flags on fs and returns the body to run once
// they are parsed; progress goes to stderr, results to stdout.
type command func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error

var commands = map[string]command{
	"accuracy": accuracy,
	"fig2":     fig2,
	"fig3":     fig3,
	"section3": section3,
	"scan":     scan,
}

// errUsage marks a failure of the invocation rather than of the run: run
// adds the subcommand's usage and exits 2, as a flag error does.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind an exit status, so tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	name := "accuracy"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "hhheval: unknown subcommand %q (want accuracy, fig2, fig3, section3 or scan)\n", name)
		return 2
	}
	fs := flag.NewFlagSet("hhheval "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // Parse has printed the error and the usage
	}
	err := body(stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "hhheval:", err)
	if errors.Is(err, errUsage) {
		fs.Usage()
		return 2
	}
	return 1
}

// loadTrace reads a stored trace, pcap or binary by extension.
func loadTrace(path string) (pkts []trace.Packet, err error) {
	if strings.HasSuffix(path, ".pcap") {
		pkts, err = pcap.ReadFile(path)
	} else {
		pkts, err = trace.ReadFile(path)
	}
	if err == nil && len(pkts) == 0 {
		err = fmt.Errorf("trace %s is empty", path)
	}
	return pkts, err
}

// input is one trace an experiment analyses, over [0, span).
type input struct {
	name string
	pkts []trace.Packet
	span int64
}

// openInput loads the stored trace at path or, when path is empty,
// synthesises cfg under the given name. The experiments tile time from
// zero, so a stored trace is rebased to the whole second that contains
// its first packet: a capture stamped in Unix time is analysed like the
// same packets stamped from zero.
func openInput(path, name string, cfg gen.Config, stderr io.Writer) (input, error) {
	if path == "" {
		fmt.Fprintf(stderr, "synthesising %s (%v at %.0f pps)...\n", name, cfg.Duration, cfg.MeanPacketRate)
		pkts, err := gen.Packets(cfg)
		return input{name, pkts, int64(cfg.Duration)}, err
	}
	pkts, err := loadTrace(path)
	if err != nil {
		return input{}, err
	}
	const sec = int64(time.Second)
	origin := pkts[0].Ts - ((pkts[0].Ts%sec)+sec)%sec
	for i := range pkts {
		pkts[i].Ts -= origin
	}
	return input{path, pkts, pkts[len(pkts)-1].Ts + 1}, nil
}

// hierarchyOf parses a prefix-lattice name; a bare granularity means IPv4.
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
