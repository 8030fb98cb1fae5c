package hiddenhhh

import (
	"hiddenhhh/internal/addr"

	"testing"
	"time"
)

func genTestTrace(t testing.TB, seconds int, seed int64) []Packet {
	t.Helper()
	cfg := DefaultTraceConfig()
	cfg.Duration = time.Duration(seconds) * time.Second
	cfg.Seed = seed
	cfg.MeanPacketRate = 2000
	cfg.Flows = 500
	pkts, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestExactHHHFacade(t *testing.T) {
	counts := map[Addr]int64{
		MustParseAddr("10.1.2.1"): 30,
		MustParseAddr("10.1.2.2"): 30,
		MustParseAddr("10.1.2.3"): 30,
	}
	set := ExactHHH(counts, NewHierarchy(Byte), Threshold(90, 0.5))
	if !set.Contains(MustParsePrefix("10.1.2.0/24")) {
		t.Fatalf("facade exact HHH wrong: %v", set)
	}
}

func TestWindowedDetectorEngines(t *testing.T) {
	pkts := genTestTrace(t, 6, 1)
	for _, engine := range []Engine{EngineExact, EnginePerLevel, EngineRHHH} {
		windows := 0
		det, err := NewWindowedDetector(WindowedConfig{
			Window: time.Second,
			Phi:    0.05,
			Engine: engine,
			OnWindow: func(start, end int64, set Set) {
				windows++
				if end-start != int64(time.Second) {
					t.Fatalf("%v: window span [%d,%d)", engine, start, end)
				}
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		for i := range pkts {
			det.Observe(&pkts[i])
		}
		set := det.Snapshot(int64(6 * time.Second))
		if set.Len() == 0 {
			t.Errorf("%v: empty final snapshot", engine)
		}
		if windows < 5 {
			t.Errorf("%v: only %d windows closed", engine, windows)
		}
		if det.SizeBytes() <= 0 {
			t.Errorf("%v: SizeBytes", engine)
		}
	}
}

func TestWindowedDetectorValidation(t *testing.T) {
	if _, err := NewWindowedDetector(WindowedConfig{Window: 0, Phi: 0.1}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewWindowedDetector(WindowedConfig{Window: time.Second, Phi: 0}); err == nil {
		t.Error("zero phi accepted")
	}
	if _, err := NewWindowedDetector(WindowedConfig{Window: time.Second, Phi: 0.1, Engine: Engine(99)}); err == nil {
		t.Error("bad engine accepted")
	}
	if Engine(99).String() == "" || EngineExact.String() != "exact" {
		t.Error("Engine.String")
	}
}

func TestSlidingDetector(t *testing.T) {
	pkts := genTestTrace(t, 6, 2)
	det, err := NewSlidingDetector(SlidingConfig{Window: 2 * time.Second, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	for i := range pkts {
		det.Observe(&pkts[i])
		now = pkts[i].Ts
	}
	if set := det.Snapshot(now); set.Len() == 0 {
		t.Error("empty sliding snapshot")
	}
	if det.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
	if _, err := NewSlidingDetector(SlidingConfig{Window: 0, Phi: 0.1}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSlidingDetector(SlidingConfig{Window: time.Second, Phi: 9}); err == nil {
		t.Error("bad phi accepted")
	}
}

func TestContinuousDetectorFacade(t *testing.T) {
	pkts := genTestTrace(t, 8, 3)
	enters := 0
	det, err := NewContinuousDetector(ContinuousConfig{
		Horizon: time.Second,
		Phi:     0.05,
		OnEnter: func(Prefix, int64) { enters++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	for i := range pkts {
		det.Observe(&pkts[i])
		now = pkts[i].Ts
	}
	set := det.Snapshot(now)
	if set.Len() == 0 && enters == 0 {
		t.Error("continuous detector saw nothing in skewed traffic")
	}
	if det.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
	if _, err := NewContinuousDetector(ContinuousConfig{Horizon: 0, Phi: 0.1}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewContinuousDetector(ContinuousConfig{Horizon: time.Second, Phi: 0}); err == nil {
		t.Error("zero phi accepted")
	}
}

func TestDetectorsAgreeOnStrongHeavyHitter(t *testing.T) {
	// One source sending half of all bytes must be reported by every
	// detector family.
	heavy := MustParseAddr("10.9.9.9")
	var pkts []Packet
	var ts int64
	for i := 0; i < 20000; i++ {
		ts += int64(500 * time.Microsecond)
		src := addr.From4Uint32(uint32(i*2654435761) | 1)
		if i%2 == 0 {
			src = heavy
		}
		pkts = append(pkts, Packet{Ts: ts, Src: src, Size: 1000})
	}
	end := ts + 1

	wd, _ := NewWindowedDetector(WindowedConfig{Window: time.Second, Phi: 0.2})
	sd, _ := NewSlidingDetector(SlidingConfig{Window: time.Second, Phi: 0.2})
	cd, _ := NewContinuousDetector(ContinuousConfig{Horizon: time.Second, Phi: 0.2})
	for i := range pkts {
		wd.Observe(&pkts[i])
		sd.Observe(&pkts[i])
		cd.Observe(&pkts[i])
	}
	for name, det := range map[string]Detector{"windowed": wd, "sliding": sd, "continuous": cd} {
		if !det.Snapshot(end).Contains(MustParsePrefix("10.9.9.9/32")) {
			t.Errorf("%s detector missed the 50%% source: %v", name, det.Snapshot(end))
		}
	}
}

func TestRunExperimentsThroughFacade(t *testing.T) {
	pkts := genTestTrace(t, 20, 4)
	span := int64(20 * time.Second)

	res, err := RunHiddenHHH(pkts, HiddenHHHConfig{
		Windows: []time.Duration{5 * time.Second},
		Phis:    []float64{0.05},
		Span:    span,
	})
	if err != nil || len(res) != 1 {
		t.Fatalf("RunHiddenHHH: %v, %d results", err, len(res))
	}
	if RenderHiddenHHH(res) == "" {
		t.Error("empty render")
	}

	sres, err := RunWindowSensitivity(pkts, SensitivityConfig{
		Baseline: 5 * time.Second,
		Trims:    []time.Duration{50 * time.Millisecond},
		Span:     span,
	})
	if err != nil || len(sres) != 1 {
		t.Fatalf("RunWindowSensitivity: %v", err)
	}
	if RenderSensitivity(sres) == "" {
		t.Error("empty render")
	}

	cres, err := RunComparison(pkts, ComparisonConfig{
		Window: 5 * time.Second,
		Span:   span,
	})
	if err != nil || len(cres.Reports) == 0 {
		t.Fatalf("RunComparison: %v", err)
	}
	if RenderComparison(cres) == "" {
		t.Error("empty render")
	}
}

func TestTraceFileRoundTripThroughFacade(t *testing.T) {
	pkts := genTestTrace(t, 2, 5)
	dir := t.TempDir()
	if err := WriteTraceFile(dir+"/x.hhht", pkts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceFile(dir + "/x.hhht")
	if err != nil || len(back) != len(pkts) {
		t.Fatalf("binary round trip: %v, %d/%d", err, len(back), len(pkts))
	}
	if err := WritePcapFile(dir+"/x.pcap", pkts); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadPcapFile(dir + "/x.pcap")
	if err != nil || len(back2) != len(pkts) {
		t.Fatalf("pcap round trip: %v, %d/%d", err, len(back2), len(pkts))
	}
}

func TestPresetsThroughFacade(t *testing.T) {
	day := Tier1Day(2, 5*time.Second)
	if err := day.Validate(); err != nil {
		t.Fatal(err)
	}
	ddos := DDoSScenario(5*time.Second, 7)
	if err := ddos.Validate(); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(day)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := src.Next(&p); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedEmptyWindowsFastPath pins the empty-window short circuit:
// an idle gap of many windows must report one empty set per window (in
// order, via OnWindow) without running the conditioned query, and the
// data windows on both sides must be unaffected. The gap of 10k windows
// closes in the one Snapshot call; the fast path keeps that loop cheap.
func TestWindowedEmptyWindowsFastPath(t *testing.T) {
	width := int64(time.Second)
	const gap = 10000
	var pkts []Packet
	for i := 0; i < 1000; i++ { // window 0
		pkts = append(pkts, Packet{Ts: int64(i) * width / 1000, Src: addr.From4Uint32(10<<24 | uint32(i%16)), Size: 1000})
	}
	for i := 0; i < 1000; i++ { // window gap+1
		pkts = append(pkts, Packet{Ts: (gap+1)*width + int64(i)*width/1000, Src: addr.From4Uint32(10<<24 | uint32(i%16)), Size: 1000})
	}
	var sets []Set
	det, err := NewWindowedDetector(WindowedConfig{
		Window: time.Second, Phi: 0.05, Engine: EnginePerLevel,
		OnWindow: func(start, end int64, set Set) { sets = append(sets, set) },
	})
	if err != nil {
		t.Fatal(err)
	}
	det.ObserveBatch(pkts)
	last := det.Snapshot(pkts[len(pkts)-1].Ts + width)
	if len(sets) != gap+2 {
		t.Fatalf("closed %d windows, want %d", len(sets), gap+2)
	}
	if sets[0].Len() == 0 {
		t.Error("first data window reported no HHHs")
	}
	for i := 1; i <= gap; i++ {
		if sets[i].Len() != 0 {
			t.Fatalf("idle window %d reported %v", i, sets[i])
		}
	}
	if sets[gap+1].Len() == 0 || last.Len() == 0 {
		t.Error("post-gap data window reported no HHHs")
	}
}
