package hiddenhhh_test

import (
	"fmt"
	"time"

	"hiddenhhh"
)

// ExampleExactHHH computes the exact hierarchical heavy hitters of a tiny
// aggregate: a /24 whose hosts individually stay below the threshold but
// collectively exceed it.
func ExampleExactHHH() {
	counts := map[hiddenhhh.Addr]int64{
		hiddenhhh.MustParseAddr("10.1.2.1"): 30,
		hiddenhhh.MustParseAddr("10.1.2.2"): 30,
		hiddenhhh.MustParseAddr("10.1.2.3"): 30,
		hiddenhhh.MustParseAddr("99.0.0.1"): 9,
	}
	h := hiddenhhh.NewHierarchy(hiddenhhh.Byte)
	set := hiddenhhh.ExactHHH(counts, h, hiddenhhh.Threshold(99, 0.5))
	for _, item := range set.Items() {
		fmt.Printf("%v conditioned=%d\n", item.Prefix, item.Conditioned)
	}
	// Output:
	// 10.1.2.0/24 conditioned=90
}

// ExampleNewWindowedDetector streams packets through a disjoint-window
// detector — the reset-per-window discipline the paper studies.
func ExampleNewWindowedDetector() {
	det, err := hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
		Window: time.Second,
		Phi:    0.5,
		OnWindow: func(start, end int64, set hiddenhhh.Set) {
			fmt.Printf("window closed with %d HHHs\n", set.Len())
		},
	})
	if err != nil {
		panic(err)
	}
	heavy := hiddenhhh.MustParseAddr("192.0.2.1")
	for i := 0; i < 2000; i++ {
		p := hiddenhhh.Packet{
			Ts:   int64(i) * int64(time.Millisecond),
			Src:  heavy,
			Size: 1000,
		}
		det.ObserveBatch([]hiddenhhh.Packet{p})
	}
	set := det.Snapshot(int64(2 * time.Second))
	fmt.Println("last window:", set.Contains(hiddenhhh.MustParsePrefix("192.0.2.1/32")))
	// Output:
	// window closed with 1 HHHs
	// window closed with 1 HHHs
	// last window: true
}

// ExampleNewContinuousDetector shows the paper's proposed windowless
// detection: a steady heavy source enters the active set and is reported
// without any window boundary being involved.
func ExampleNewContinuousDetector() {
	det, err := hiddenhhh.NewContinuousDetector(hiddenhhh.ContinuousConfig{
		Horizon: time.Second,
		Phi:     0.5,
	})
	if err != nil {
		panic(err)
	}
	heavy := hiddenhhh.MustParseAddr("192.0.2.1")
	var now int64
	for i := 0; i < 5000; i++ {
		now = int64(i) * int64(time.Millisecond)
		p := hiddenhhh.Packet{Ts: now, Src: heavy, Size: 1000}
		det.ObserveBatch([]hiddenhhh.Packet{p})
	}
	fmt.Println(det.Snapshot(now).Contains(hiddenhhh.MustParsePrefix("192.0.2.1/32")))
	// Output:
	// true
}

// ExampleNewIPv6Hierarchy shows the hierarchy descriptor that replaced
// the hard-coded IPv4 ladder: the same detectors run over any uniform
// lattice, here IPv6's five-level hextet ladder, with /64 subnets as the
// leaves.
func ExampleNewIPv6Hierarchy() {
	h := hiddenhhh.NewIPv6Hierarchy(hiddenhhh.Hextet)
	fmt.Println(h, "levels:", h.Levels())
	a := hiddenhhh.MustParseAddr("2001:db8:ab:cd::1")
	for l := 0; l < h.Levels(); l++ {
		fmt.Println(" ", h.At(a, l))
	}
	// Output:
	// ipv6/16 levels: 5
	//   2001:db8:ab:cd::/64
	//   2001:db8:ab::/48
	//   2001:db8::/32
	//   2001::/16
	//   ::/0
}

// ExampleExactHHH_dualStack feeds one dual-stack aggregate to each
// family's hierarchy: every detector and exact computation filters by
// its hierarchy's address family, so the two views threshold against
// their own family's bytes only.
func ExampleExactHHH_dualStack() {
	counts := map[hiddenhhh.Addr]int64{
		hiddenhhh.MustParseAddr("10.1.2.1"):        60,
		hiddenhhh.MustParseAddr("2001:db8:7:1::1"): 40,
		hiddenhhh.MustParseAddr("2001:db8:7:2::1"): 40,
	}
	v4 := hiddenhhh.NewIPv4Hierarchy(hiddenhhh.Byte)
	v6 := hiddenhhh.NewIPv6Hierarchy(hiddenhhh.Hextet)
	// Thresholds are per family: 60 of 60 v4 bytes, 80 of 80 v6 bytes.
	fmt.Println("v4:", hiddenhhh.ExactHHH(counts, v4, hiddenhhh.Threshold(60, 0.9)).Prefixes())
	fmt.Println("v6:", hiddenhhh.ExactHHH(counts, v6, hiddenhhh.Threshold(80, 0.9)).Prefixes())
	// Output:
	// v4: [10.1.2.1/32]
	// v6: [2001:db8:7::/48]
}

// ExampleAccounting reads the reference frame behind a detector's
// snapshot: ReportMass is the threshold denominator and CoveredSpan the
// aggregated time span — for a windowed detector, the last closed
// window. The oracle-differential harness pins both against the exact
// reference.
func ExampleAccounting() {
	det, err := hiddenhhh.NewWindowedDetector(hiddenhhh.WindowedConfig{
		Window: time.Second,
		Phi:    0.5,
	})
	if err != nil {
		panic(err)
	}
	src := hiddenhhh.MustParseAddr("192.0.2.1")
	for i := 0; i < 1500; i++ {
		det.ObserveBatch([]hiddenhhh.Packet{{Ts: int64(i) * int64(time.Millisecond), Src: src, Size: 100}})
	}
	now := int64(1500 * time.Millisecond)
	_ = det.Snapshot(now) // the report CoveredSpan/ReportMass describe
	acc := det.(hiddenhhh.Accounting)
	lo, hi := acc.CoveredSpan(now)
	fmt.Printf("span [%v, %v) mass %d B\n",
		time.Duration(lo), time.Duration(hi), acc.ReportMass(now))
	// Output:
	// span [0s, 1s) mass 100000 B
}
