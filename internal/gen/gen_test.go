package gen

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// timeSorted reports whether pkts is in non-decreasing timestamp order.
func timeSorted(pkts []trace.Packet) bool {
	return slices.IsSortedFunc(pkts, func(a, b trace.Packet) int { return cmp.Compare(a.Ts, b.Ts) })
}

func smallCfg(seed int64) Config {
	c := DefaultConfig()
	c.Duration = 10 * time.Second
	c.Seed = seed
	c.Flows = 400
	c.MeanPacketRate = 2000
	return c
}

func TestValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Flows = 0 },
		func(c *Config) { c.MeanPacketRate = 0 },
		func(c *Config) { c.RateSkew = -1 },
		func(c *Config) { c.BurstOn = 0 }, // off still set
		func(c *Config) { c.BurstOn = -time.Second },
		func(c *Config) { c.PulsesPerMinute = -1 },
		func(c *Config) { c.PulseDurationMin = 0 },
		func(c *Config) { c.PulseDurationMax = time.Millisecond },
		func(c *Config) { c.PulseShareMin = 0 },
		func(c *Config) { c.PulseShareMax = 0.001 },
		func(c *Config) { c.Orgs = 0 },
		func(c *Config) { c.Orgs = 500 },
		func(c *Config) { c.SubnetsPerOrg = 300 },
		func(c *Config) { c.HostsPerNet = 255 },
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.AddrSkew = -0.1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("mutation %d: err = %v, want ErrConfig", i, err)
		}
		if _, err := New(c); !errors.Is(err, ErrConfig) {
			t.Errorf("mutation %d: New err = %v, want ErrConfig", i, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Packets(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Packets(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Packets(smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTimeSortedAndInRange(t *testing.T) {
	pkts, err := Packets(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !timeSorted(pkts) {
		t.Fatal("generator output not time-sorted")
	}
	for i := range pkts {
		if pkts[i].Ts < 0 || pkts[i].Ts >= int64(10*time.Second) {
			t.Fatalf("packet %d timestamp %d outside trace", i, pkts[i].Ts)
		}
		if pkts[i].Size < 40 || pkts[i].Size > 1514 {
			t.Fatalf("packet %d size %d out of range", i, pkts[i].Size)
		}
	}
}

func TestAggregateRate(t *testing.T) {
	cfg := smallCfg(2)
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(pkts)) / cfg.Duration.Seconds()
	want := cfg.MeanPacketRate
	// Pulses add extra load; allow the band to reflect that.
	if got < want*0.7 || got > want*1.8 {
		t.Errorf("aggregate rate %.0f pps, want within [%.0f, %.0f]",
			got, want*0.7, want*1.8)
	}
}

func TestSourceRateSkew(t *testing.T) {
	cfg := smallCfg(3)
	cfg.PulsesPerMinute = 0 // isolate the long-lived population
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bySrc := map[addr.Addr]int{}
	for i := range pkts {
		bySrc[pkts[i].Src]++
	}
	counts := make([]int, 0, len(bySrc))
	for _, c := range bySrc {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if len(counts) < 100 {
		t.Fatalf("only %d distinct sources", len(counts))
	}
	// Heavy tail: top source well above the median.
	median := counts[len(counts)/2]
	if counts[0] < 20*median {
		t.Errorf("top source %d vs median %d: tail not heavy enough", counts[0], median)
	}
	// And the top source should be a meaningful share but not everything.
	share := float64(counts[0]) / float64(len(pkts))
	if share < 0.01 || share > 0.6 {
		t.Errorf("top source share %.3f outside plausible band", share)
	}
}

func TestHierarchicalConcentration(t *testing.T) {
	// Aggregating by /8 must concentrate traffic: the top org should
	// carry several times the uniform share.
	cfg := smallCfg(4)
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byOrg := map[byte]int{}
	for i := range pkts {
		byOrg[pkts[i].Src.As4()[0]]++
	}
	max := 0
	for _, c := range byOrg {
		if c > max {
			max = c
		}
	}
	uniform := len(pkts) / cfg.Orgs
	if max < 3*uniform {
		t.Errorf("top /8 carries %d packets vs uniform %d: no concentration", max, uniform)
	}
}

func TestPulsesCreateTransientSources(t *testing.T) {
	cfg := smallCfg(5)
	cfg.PulsesPerMinute = 30 // ~5 pulses in 10 s
	cfg.PulseShareMin, cfg.PulseShareMax = 0.2, 0.3
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pulse sources use host octets above HostsPerNet.
	pulsePkts := 0
	pulseSrcs := map[addr.Addr]bool{}
	for i := range pkts {
		if int(pkts[i].Src.As4()[3]) > cfg.HostsPerNet {
			pulsePkts++
			pulseSrcs[pkts[i].Src] = true
		}
	}
	if len(pulseSrcs) == 0 {
		t.Fatal("no pulse sources found")
	}
	if pulsePkts < len(pkts)/50 {
		t.Errorf("pulse traffic only %d/%d packets", pulsePkts, len(pkts))
	}
}

func TestNoPulsesWhenDisabled(t *testing.T) {
	cfg := smallCfg(6)
	cfg.PulsesPerMinute = 0
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if int(pkts[i].Src.As4()[3]) > cfg.HostsPerNet {
			t.Fatalf("pulse-range source %v present with pulses disabled", pkts[i].Src)
		}
	}
}

func TestStreamingMatchesCollected(t *testing.T) {
	cfg := smallCfg(9)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d vs batch %d", len(streamed), len(batch))
	}
}

func TestProtocolMix(t *testing.T) {
	pkts, err := Packets(smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	protos := map[uint8]int{}
	for i := range pkts {
		protos[pkts[i].Proto]++
	}
	if protos[trace.ProtoTCP] == 0 || protos[trace.ProtoUDP] == 0 {
		t.Errorf("protocol mix missing TCP or UDP: %v", protos)
	}
	if protos[trace.ProtoTCP] < protos[trace.ProtoUDP] {
		t.Errorf("TCP should dominate: %v", protos)
	}
}

func TestPresetsAreValid(t *testing.T) {
	for day := 0; day < 4; day++ {
		c := Tier1Day(day, 30*time.Second)
		if err := c.Validate(); err != nil {
			t.Errorf("Tier1Day(%d) invalid: %v", day, err)
		}
	}
	ddos := DDoSScenario(time.Minute, 3)
	if err := ddos.Validate(); err != nil {
		t.Errorf("DDoSScenario invalid: %v", err)
	}
	// Days must differ from each other (different seeds at least).
	a, _ := Packets(Tier1Day(0, 2*time.Second))
	b, _ := Packets(Tier1Day(1, 2*time.Second))
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two days produced identical traces")
		}
	}
}

func TestChurnReplacesSources(t *testing.T) {
	cfg := smallCfg(11)
	cfg.MeanFlowLifetime = time.Second // aggressive churn
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstHalf := map[addr.Addr]bool{}
	secondHalf := map[addr.Addr]bool{}
	mid := int64(5 * time.Second)
	for i := range pkts {
		if pkts[i].Ts < mid {
			firstHalf[pkts[i].Src] = true
		} else {
			secondHalf[pkts[i].Src] = true
		}
	}
	fresh := 0
	for s := range secondHalf {
		if !firstHalf[s] {
			fresh++
		}
	}
	if fresh < len(secondHalf)/10 {
		t.Errorf("only %d/%d second-half sources are new; churn ineffective", fresh, len(secondHalf))
	}
}

// TestSlowFlowsStaySlow pins the saturating gap draw: a flow whose mean
// gap is beyond what an int64 of nanoseconds holds (below ~1.1e-10 pps)
// stays silent instead of firing every nanosecond, so a steep rate skew
// or a large population still yields the configured aggregate rate.
func TestSlowFlowsStaySlow(t *testing.T) {
	steep := DefaultConfig()
	steep.Duration = 2 * time.Second
	steep.PulsesPerMinute = 0
	steep.RateSkew = 5
	wide := steep
	wide.Flows = 100000
	wide.RateSkew = 4
	for _, cfg := range []Config{steep, wide} {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Streamed, and cut one packet past the band, so a regression
		// fails fast instead of collecting millions of packets.
		lo := cfg.MeanPacketRate * cfg.Duration.Seconds() * 0.7
		hi := cfg.MeanPacketRate * cfg.Duration.Seconds() * 1.8
		n := 0
		var p trace.Packet
		for float64(n) <= hi && g.Next(&p) == nil {
			if p.Ts < 0 || p.Ts >= int64(cfg.Duration) {
				t.Fatalf("%d flows, skew %v: packet %d at %d outside the trace",
					cfg.Flows, cfg.RateSkew, n, p.Ts)
			}
			n++
		}
		if float64(n) < lo || float64(n) > hi {
			t.Errorf("%d flows, skew %v: %d packets, want within [%.0f, %.0f]",
				cfg.Flows, cfg.RateSkew, n, lo, hi)
		}
	}
}

// TestRateLadder holds the long-lived flows' base rates to the Zipf
// ladder — non-increasing with rank, summing to MeanPacketRate — and New
// to linear set-up: 10⁵ flows must be built within 5 s, timed in a
// goroutine so a quadratic New fails the test instead of hanging the
// package.
func TestRateLadder(t *testing.T) {
	for _, flows := range []int{1500, 100000} {
		cfg := DefaultConfig()
		cfg.Flows = flows
		type built struct {
			g   *Generator
			err error
		}
		ch := make(chan built, 1)
		go func() {
			g, err := New(cfg)
			ch <- built{g, err}
		}()
		var g *Generator
		select {
		case b := <-ch:
			if b.err != nil {
				t.Fatal(b.err)
			}
			g = b.g
		case <-time.After(5 * time.Second):
			t.Fatalf("New with %d flows took over 5 s", flows)
		}
		var rates []float64
		for _, e := range g.flows {
			if !e.f.pulse {
				rates = append(rates, e.f.baseRate)
			}
		}
		if len(rates) != flows {
			t.Fatalf("%d long-lived flows, want %d", len(rates), flows)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
		var norm, sum float64
		for i := 1; i <= flows; i++ {
			norm += 1 / math.Pow(float64(i), cfg.RateSkew)
		}
		prev := math.Inf(1)
		for r, got := range rates {
			want := g.rateOfRank(r, norm)
			if got != want {
				t.Fatalf("%d flows: rank %d rate %v, want %v", flows, r, got, want)
			}
			if want > prev {
				t.Fatalf("%d flows: rank %d rate %v above rank %d's %v", flows, r, want, r-1, prev)
			}
			prev = want
			sum += got
		}
		if rel := math.Abs(sum-cfg.MeanPacketRate) / cfg.MeanPacketRate; rel > 1e-9 {
			t.Errorf("%d flows: rates sum to %v, want %v (relative error %.2g)",
				flows, sum, cfg.MeanPacketRate, rel)
		}
	}
}

// BenchmarkGenerate times New plus a whole 10 s trace at each flow count,
// so the set-up a flow count costs is inside every op; ns/pkt is an op's
// time over the packets it produced.
func BenchmarkGenerate(b *testing.B) {
	for _, flows := range []int{400, 1500, 10000, 100000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			cfg := smallCfg(12)
			cfg.Flows = flows
			var p trace.Packet
			pkts := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for g.Next(&p) == nil {
					pkts++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
		})
	}
}

// TestScenarioSuite pins the accuracy-evaluation scenario presets: every
// scenario validates, generates a non-empty time-ordered trace, and the
// suite members are pairwise distinct traffic shapes (different seeds at
// minimum, so no scenario is a clone of another).
func TestScenarioSuite(t *testing.T) {
	scenarios := Scenarios(2*time.Second, 1)
	if len(scenarios) != 7 {
		t.Fatalf("suite has %d scenarios, want 7", len(scenarios))
	}
	names := map[string]bool{}
	seeds := map[int64]bool{}
	for _, sc := range scenarios {
		if sc.Name == "" || sc.Description == "" {
			t.Fatalf("scenario %+v missing name/description", sc)
		}
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if seeds[sc.Config.Seed] {
			t.Errorf("scenario %q reuses seed %d", sc.Name, sc.Config.Seed)
		}
		seeds[sc.Config.Seed] = true
		if err := sc.Config.Validate(); err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
		pkts, err := Packets(sc.Config)
		if err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
		if len(pkts) == 0 {
			t.Fatalf("scenario %q generated no packets", sc.Name)
		}
		if !timeSorted(pkts) {
			t.Fatalf("scenario %q trace not time-ordered", sc.Name)
		}
		if sc.Hierarchy == (addr.Hierarchy{}) {
			t.Fatalf("scenario %q missing hierarchy", sc.Name)
		}
		// Family mix must match the configured fraction's extremes.
		v4, v6 := 0, 0
		for i := range pkts {
			if pkts[i].Src.Is4() {
				v4++
			} else {
				v6++
			}
		}
		switch sc.Config.V6Fraction {
		case 0:
			if v6 != 0 {
				t.Fatalf("scenario %q: %d v6 packets in a v4-only config", sc.Name, v6)
			}
		case 1:
			if v4 != 0 {
				t.Fatalf("scenario %q: %d v4 packets in a v6-only config", sc.Name, v4)
			}
		default:
			if v4 == 0 || v6 == 0 {
				t.Fatalf("scenario %q: family mix v4=%d v6=%d not mixed", sc.Name, v4, v6)
			}
		}
	}
}

// TestDualStackStructure pins the IPv6 side of the address universe:
// destinations stay family-consistent with sources, v6 sources sit in
// global-unicast space, and aggregating by top hextet concentrates
// traffic just like the v4 /8 tiers.
func TestDualStackStructure(t *testing.T) {
	cfg := smallCfg(13)
	cfg.V6Fraction = 0.5
	pkts, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byOrg6 := map[uint16]int{}
	v6pkts := 0
	for i := range pkts {
		if pkts[i].Src.Is4() != pkts[i].Dst.Is4() {
			t.Fatalf("packet %d mixes families: %v -> %v", i, pkts[i].Src, pkts[i].Dst)
		}
		if pkts[i].Src.Is4() {
			continue
		}
		v6pkts++
		top := uint16(pkts[i].Src.Hi() >> 48)
		if top>>13 != 0b001 {
			t.Fatalf("v6 source %v outside global unicast 2000::/3", pkts[i].Src)
		}
		byOrg6[top]++
	}
	if v6pkts < len(pkts)/10 || v6pkts > len(pkts)*9/10 {
		t.Fatalf("v6 share %d/%d implausible for fraction 0.5", v6pkts, len(pkts))
	}
	max := 0
	for _, c := range byOrg6 {
		if c > max {
			max = c
		}
	}
	if uniform := v6pkts / cfg.Orgs; max < 3*uniform {
		t.Errorf("top v6 /16 carries %d packets vs uniform %d: no concentration", max, uniform)
	}
}
