package hiddenhhh

import (
	"testing"
	"time"
)

// TestShardedModeSurface exercises the non-windowed sharded lifecycle:
// stats, repeated snapshots (merges must not consume shard state), and
// interleaved ingest.
func TestShardedModeSurface(t *testing.T) {
	for _, mode := range []Mode{ModeSliding, ModeContinuous} {
		pkts := propStream(5, 30000, 5)
		det, err := NewShardedDetector(ShardedConfig{
			Mode: mode, Shards: 3, Window: 2 * time.Second, Phi: 0.02, Counters: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		det.ObserveBatch(pkts)
		last := pkts[len(pkts)-1].Ts
		a := det.Snapshot(last)
		b := det.Snapshot(last) // identical repeat: merge must not consume
		if !a.Equal(b) {
			t.Errorf("%v: repeated snapshot differs: %v vs %v", mode, a, b)
		}
		if a.Len() == 0 {
			t.Errorf("%v: no HHHs on skewed stream", mode)
		}
		st := det.Stats()
		if st.Mode != mode.String() {
			t.Errorf("stats mode %q, want %q", st.Mode, mode)
		}
		if st.Packets != int64(len(pkts)) {
			t.Errorf("%v: stats packets %d != %d", mode, st.Packets, len(pkts))
		}
		if st.Windows < 2 {
			t.Errorf("%v: expected >=2 published merges, got %d", mode, st.Windows)
		}
		if st.LastWindowBytes <= 0 {
			t.Errorf("%v: last mass %d", mode, st.LastWindowBytes)
		}
		if det.SizeBytes() <= 0 {
			t.Errorf("%v: SizeBytes", mode)
		}
		if err := det.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedModeConfigValidation pins the new mode-specific errors.
func TestShardedModeConfigValidation(t *testing.T) {
	if _, err := NewShardedDetector(ShardedConfig{
		Mode: Mode(9), Window: time.Second, Phi: 0.05,
	}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewShardedDetector(ShardedConfig{
		Mode: ModeSliding, Window: time.Second, Phi: 0.05,
		OnWindow: func(start, end int64, set Set) {},
	}); err == nil {
		t.Error("OnWindow accepted outside ModeWindowed")
	}
}
