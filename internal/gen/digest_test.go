package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/trace"
)

// traceDigests pins the traffic every benchmark instance, hhheval golden
// and scenario test is built from: the packet count and a SHA-256 over
// every packet's fields, in emission order, of each configuration
// digestConfigs lists. A generator change that moves one RNG draw, one
// float64 bit of a rate or one tie in the event queue changes a row.
// Never regenerate this table to make a change pass: a row that moves is
// a changed trace, and every number measured on it moves too.
var traceDigests = map[string]struct {
	packets int
	sha     string
}{
	"60s/24/zipf-steady":           {300716, "70e72549db04ff1fffc36fc50101bdf868824eb6551bfb719e719d00ce81cf6f"},
	"60s/24/hit-and-run-ddos":      {327642, "55214d3d22118675bc36d26681184a94b50777ed84a244caca930a85c560c1cf"},
	"60s/24/flash-crowd":           {316938, "474611d9c075b61afd735c384dbfc0f5064db3396b0b98ee93c1e56a0cf121ec"},
	"60s/24/port-sweep":            {170535, "775299186a26f72c70a47b0b8e75590353493680ff1849da5aef9728a20c291b"},
	"60s/24/diurnal-tier1":         {320668, "ca61b576c3b656962b635c2a8a579f99ca9d408c28a2b323a0e5e964a4bd81ac"},
	"60s/24/ipv6-hit-and-run-ddos": {299985, "37b6171a1d0842a21b9e5cdf3900043e291fde956bb27f311d92be46c2b777a6"},
	"60s/24/dual-stack-mix":        {309598, "ba7528ad224e7afb3e7afe8c0e2704d0d2d2622880841e20aca171bfe3890208"},
	"20s/1/zipf-steady":            {99957, "77eef5c3f67a994567d602659174e3f6a41853a70eda1ad82ae9ea05227e4f17"},
	"20s/1/hit-and-run-ddos":       {105774, "a42de27c331f5b8c4a7383e36d5523bcdc11e2691afb10e0ef0933d464abad86"},
	"20s/1/flash-crowd":            {102855, "32ced46ec134b9905bf0eb08b5f62465f325f6337398dc447e7efa4e378fb41f"},
	"20s/1/port-sweep":             {62095, "4f29ca837380dfba5e2a3fe8368740a0df698c809f5882c826edc39e49873614"},
	"20s/1/diurnal-tier1":          {90116, "d2e8fddb0477ada379e887bdf194b70683d333ba2bc349bf1db1c82841bc8392"},
	"20s/1/ipv6-hit-and-run-ddos":  {111651, "aa59e66893afe9b2c5c7f64bad361577b148d2fb2cc0bcb2e181986638f0fb0c"},
	"20s/1/dual-stack-mix":         {103926, "8d8649d6c7691212e25311184010a2e4ea6a46dd29f05219375784259c22754b"},
	"tier1-day0/20s":               {97278, "d70b36e0197193c8b26112577f3760d373639be0206ab55d46d21159a6a6ad3e"},
	"tier1-day1/20s":               {97069, "e4c9b24208df3283ce886bf94e10b0e47bda619a1c4c37a6a5c039ae6e291ed6"},
	"tier1-day2/20s":               {99797, "7ea5a211c71d7eca53f3e3e6be077dd585d51e303335e4ca8d0c6f216fb2e9e1"},
	"tier1-day3/20s":               {109015, "4cf08b54c5692ac8638447014d4321e99cb1ab29eda050670a5ea61438f31791"},
	"ddos/20s/3":                   {96968, "f0a2289b9331e9849ba4adb7c139883cd1216d14b332404d722f3828930a3c22"},
}

type digestCase struct {
	name string
	cfg  Config
}

// digestConfigs is what traceDigests covers: the suite at the bench's
// verified instance (60 s, base 24), the suite at 20 s from base 1, the
// four Tier-1 days and the scripted DDoS.
func digestConfigs() []digestCase {
	var out []digestCase
	add := func(name string, cfg Config) { out = append(out, digestCase{name, cfg}) }
	for _, sc := range Scenarios(60*time.Second, 24) {
		add("60s/24/"+sc.Name, sc.Config)
	}
	for _, sc := range Scenarios(20*time.Second, 1) {
		add("20s/1/"+sc.Name, sc.Config)
	}
	for day := 0; day < 4; day++ {
		add(fmt.Sprintf("tier1-day%d/20s", day), Tier1Day(day, 20*time.Second))
	}
	add("ddos/20s/3", DDoSScenario(20*time.Second, 3))
	return out
}

// traceDigest streams cfg's trace and hashes each packet as Ts, Src and
// Dst (high then low word), ports, protocol and size, little-endian.
func traceDigest(t *testing.T, cfg Config) (int, string) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	le := binary.LittleEndian
	buf := make([]byte, 0, 64<<10)
	n := 0
	var p trace.Packet
	for g.Next(&p) == nil {
		buf = le.AppendUint64(buf, uint64(p.Ts))
		buf = le.AppendUint64(buf, p.Src.Hi())
		buf = le.AppendUint64(buf, p.Src.Lo())
		buf = le.AppendUint64(buf, p.Dst.Hi())
		buf = le.AppendUint64(buf, p.Dst.Lo())
		buf = le.AppendUint16(buf, p.SrcPort)
		buf = le.AppendUint16(buf, p.DstPort)
		buf = append(buf, p.Proto)
		buf = le.AppendUint32(buf, p.Size)
		if len(buf) > cap(buf)-64 {
			h.Write(buf)
			buf = buf[:0]
		}
		n++
	}
	h.Write(buf)
	return n, hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigests holds every listed trace to its committed digest.
// TestDeterminism only compares a build with itself; this compares it
// with the traces the committed numbers were measured on. On a mismatch
// the log carries the whole table as computed, for review.
func TestTraceDigests(t *testing.T) {
	var table strings.Builder
	cases := digestConfigs()
	for _, c := range cases {
		n, sum := traceDigest(t, c.cfg)
		fmt.Fprintf(&table, "\t%q: {%d, %q},\n", c.name, n, sum)
		want, ok := traceDigests[c.name]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest", c.name)
		case n != want.packets || sum != want.sha:
			t.Errorf("%s: %d packets, sha256 %s; want %d, %s", c.name, n, sum, want.packets, want.sha)
		}
	}
	if len(traceDigests) != len(cases) {
		t.Errorf("table has %d rows for %d configurations", len(traceDigests), len(cases))
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", table.String())
	}
}
