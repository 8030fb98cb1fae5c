package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// timingColumns are the wall-clock table columns, the only part of any
// table that differs between two runs with the same flags.
var timingColumns = map[string]bool{"ns/pkt": true, "wall-ms": true, "Mpps": true}

// maskTiming rewrites every table that has a timing column field by
// field, with the timing cells (and their share of the header rule)
// replaced by "~": cell widths follow the values, so the raw lines are
// not comparable. Everything else passes through byte for byte.
func maskTiming(out string) string {
	lines := strings.Split(out, "\n")
	var masked []int // timing column indexes of the table being read
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			masked = nil
			continue
		}
		if masked == nil {
			for j, f := range fields {
				if timingColumns[f] {
					masked = append(masked, j)
				}
			}
			if masked == nil {
				continue
			}
			lines[i] = strings.Join(fields, " ")
			continue
		}
		for _, j := range masked {
			if j < len(fields) {
				fields[j] = "~"
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	return strings.Join(lines, "\n")
}

// hhheval runs the program in-process and returns its exit status and
// output streams.
func hhheval(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestGolden holds every subcommand to the table its stand-alone
// predecessor (cmd/hiddenhhh, windowsense, tdbfcompare, hhhscan, and
// hhheval itself) printed for the same flags before they were folded
// into one binary and internal/core was routed through pipeline.Single:
// the goldens were captured from those binaries. $T is a directory of
// stored traces, written as `tracegen -duration 20s` writes them.
func TestGolden(t *testing.T) {
	cases := []struct{ golden, args string }{
		{"fig2", "fig2 -duration 40s -days 2"},
		{"fig2_steps", "fig2 -steps -duration 40s -days 1"},
		{"fig2_nibble", "fig2 -granularity nibble -duration 40s -days 1"},
		{"fig3", "fig3 -duration 3m"},
		{"fig3_cdf", "fig3 -duration 3m -cdf"},
		{"fig3_tails", "fig3 -duration 3m -tails"},
		{"section3", "section3 -duration 20s"},
		{"section3_seed9", "section3 -duration 45s -seed 9 -window 5s -phi 0.02"},
		{"section3_sweep", "section3 -duration 60s -sweep"},
		{"section3_latency", "section3 -duration 40s -latency"},
		{"scan_exact", "scan -in $T/t.hhht -window 5s -engine exact"},
		{"scan_perlevel", "scan -in $T/t.hhht -window 5s -engine perlevel"},
		{"scan_rhhh", "scan -in $T/t.hhht -window 5s -engine rhhh"},
		{"scan_continuous", "scan -in $T/t.hhht -window 5s -engine continuous"},
		{"scan_pcap", "scan -in $T/t.pcap -window 5s -phi 0.02 -engine perlevel -counters 64 -v"},
		{"scan_v6", "scan -in $T/dual.pcap -window 5s -hierarchy ipv6-hextet"},
		{"accuracy", "-duration 8s -window 2s -shards 2"},
	}

	dir := t.TempDir()
	def := gen.DefaultConfig()
	def.Duration = 20 * time.Second
	v4 := synth(t, def)
	dual := synth(t, gen.DualStackScenario(20*time.Second, 42))
	for _, err := range []error{
		trace.WriteFile(filepath.Join(dir, "t.hhht"), v4),
		pcap.WriteFile(filepath.Join(dir, "t.pcap"), v4),
		pcap.WriteFile(filepath.Join(dir, "dual.pcap"), dual),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, out, errOut := hhheval(strings.Fields(strings.ReplaceAll(c.args, "$T", dir))...)
			if code != 0 {
				t.Fatalf("hhheval %s: exit %d\n%s", c.args, code, errOut)
			}
			path := filepath.Join("testdata", c.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := maskTiming(out), maskTiming(string(want)); got != want {
				t.Errorf("hhheval %s differs from %s outside the timing columns\n--- got\n%s\n--- want\n%s",
					c.args, path, got, want)
			}
		})
	}
}

func synth(t *testing.T, cfg gen.Config) []trace.Packet {
	t.Helper()
	pkts, err := gen.Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestStoredTraceOrigin is the regression test for captures stamped in
// Unix time: fig2, fig3 and section3 used to tile time from zero and walk
// ~10⁹ empty windows up to the first packet of such a trace, never
// finishing. The same packets stamped from zero and from 2018-09-26 must
// give the same tables, promptly.
func TestStoredTraceOrigin(t *testing.T) {
	pkts := synth(t, gen.Tier1Day(0, 30*time.Second))
	shifted := append([]trace.Packet(nil), pkts...)
	for i := range shifted {
		shifted[i].Ts += 1_538_000_000 * int64(time.Second)
	}
	// Equally long paths: fig2 prints the path in a column.
	dir := t.TempDir()
	zero, epoch := filepath.Join(dir, "zero.pcap"), filepath.Join(dir, "unix.pcap")
	if err := pcap.WriteFile(zero, pkts); err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteFile(epoch, shifted); err != nil {
		t.Fatal(err)
	}

	tables := func(path, args string) string {
		done := make(chan string, 1) // holds the one result if the deadline wins
		go func() {
			code, out, errOut := hhheval(append(strings.Fields(args), "-in", path)...)
			if code != 0 {
				out = "exit " + errOut
			}
			done <- strings.ReplaceAll(maskTiming(out), path, "TRACE")
		}()
		select {
		case out := <-done:
			return out
		case <-time.After(time.Minute): // seconds of work, even under -race
			t.Fatalf("hhheval %s -in %s still running after a minute", args, path)
			return ""
		}
	}
	for _, args := range []string{
		"fig2", "fig2 -steps", "fig3", "fig3 -tails",
		"section3", "section3 -sweep", "section3 -latency",
	} {
		want, got := tables(zero, args), tables(epoch, args)
		if strings.HasPrefix(want, "exit ") || got != want {
			t.Errorf("hhheval %s: epoch-stamped capture\n%s\n--- same packets stamped from zero\n%s", args, got, want)
		}
	}
}

// TestUsageErrors: a bad invocation exits 2 with usage on stderr and
// nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, usage string }{
		{"fig9", "want accuracy, fig2, fig3, section3 or scan"},
		{"fig2 -nosuchflag", "Usage of hhheval fig2"},
		{"-nosuchflag", "Usage of hhheval accuracy"},
		{"scan -window 5s", "Usage of hhheval scan"},
	} {
		code, out, errOut := hhheval(strings.Fields(c.args)...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.usage) {
			t.Errorf("hhheval %s: exit %d, stdout %q, stderr %q; want exit 2 and %q on stderr",
				c.args, code, out, errOut, c.usage)
		}
	}
}
