package hiddenhhh

import (
	"testing"
	"time"
)

// TestRunsOfOneMatchBatches drives every detector kind over the same trace
// in runs of one packet and again in awkward batch sizes, and requires
// identical snapshots: window splitting, frame rotation, RHHH's sampling
// sequence and the continuous admission checks must not depend on where
// the stream is cut.
func TestRunsOfOneMatchBatches(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Duration = 30 * time.Second
	cfg.MeanPacketRate = 4000
	pkts, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := int64(cfg.Duration)

	builders := map[string]func() (Detector, error){
		"windowed-exact": func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{Window: 5 * time.Second, Phi: 0.05})
		},
		"windowed-perlevel": func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{
				Window: 5 * time.Second, Phi: 0.05, Engine: EnginePerLevel, Counters: 64})
		},
		"windowed-rhhh": func() (Detector, error) {
			return NewWindowedDetector(WindowedConfig{
				Window: 5 * time.Second, Phi: 0.05, Engine: EngineRHHH, Counters: 64, Seed: 42})
		},
		"sliding": func() (Detector, error) {
			return NewSlidingDetector(SlidingConfig{
				Window: 5 * time.Second, Phi: 0.05, Counters: 64})
		},
		"continuous": func() (Detector, error) {
			return NewContinuousDetector(ContinuousConfig{
				Horizon: 5 * time.Second, Phi: 0.05, Cells: 1 << 12})
		},
	}

	// Deliberately awkward batch sizes: prime-sized runs that straddle
	// window and frame boundaries, plus single-packet and giant batches.
	batchSizes := []int{1, 7, 97, 1024, len(pkts)}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for i := range pkts {
				ref.ObserveBatch(pkts[i : i+1])
			}
			want := ref.Snapshot(span)
			for _, bs := range batchSizes {
				det, err := build()
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(pkts); off += bs {
					end := off + bs
					if end > len(pkts) {
						end = len(pkts)
					}
					det.ObserveBatch(pkts[off:end])
				}
				got := det.Snapshot(span)
				if !got.Equal(want) {
					t.Fatalf("batchSize %d: snapshot diverged from runs of one:\nbatch: %v\nref:   %v",
						bs, got, want)
				}
			}
		})
	}
}
