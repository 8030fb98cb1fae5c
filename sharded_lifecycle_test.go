package hiddenhhh

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestShardedCloseRace hammers Snapshot and Stats from several goroutines
// while Close runs concurrently, for every window model. Run under the
// race detector (the CI race job does) this pins the lifecycle contract:
// no data race, no send-on-closed-ring panic, no deadlock — a Snapshot
// racing Close either completes its merge or returns the last published
// set — and after Close the ingest surface degrades to defined no-ops
// with TryObserveBatch reporting ErrDetectorClosed.
func TestShardedCloseRace(t *testing.T) {
	pkts := propStream(7, 20000, 3)
	last := pkts[len(pkts)-1].Ts
	for _, mode := range []Mode{ModeWindowed, ModeSliding, ModeContinuous} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for round := 0; round < 3; round++ {
				det, err := NewShardedDetector(ShardedConfig{
					Mode: mode, Shards: 4, Window: time.Second,
					Phi: 0.05, Counters: 64, Cells: 1 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				det.ObserveBatch(pkts)

				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < 50; i++ {
							set := det.Snapshot(last)
							if set == nil {
								panic("Snapshot returned nil set")
							}
							st := det.Stats()
							if st.Shards != 4 {
								panic(fmt.Sprintf("Stats.Shards = %d", st.Shards))
							}
						}
					}()
				}
				closed := make(chan error, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					closed <- det.Close()
				}()
				close(start)
				wg.Wait()
				if err := <-closed; err != nil {
					t.Fatal(err)
				}

				// Post-close: defined errors, no panics, stable reports.
				if err := det.TryObserveBatch(pkts[:8]); !errors.Is(err, ErrDetectorClosed) {
					t.Fatalf("TryObserveBatch after Close: got %v, want ErrDetectorClosed", err)
				}
				det.ObserveBatch(pkts[:8]) // Detector-shaped surface: silent drop
				if set := det.Snapshot(last + int64(time.Minute)); set == nil {
					t.Fatal("Snapshot after Close returned nil")
				}
				if err := det.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			}
		})
	}
}

// TestShardedStallFreeQueryRace pins the stall-free publication contract
// of the columnar pipeline: LastWindow, Stats and ReportMass are
// wait-free atomic reads of the last published WindowReport, so they may
// run concurrently with batch ingest (which keeps closing windows and
// publishing merges underneath them) and with Close, without locks and
// without a barrier merge. Under the race detector this proves the
// publication path is a clean atomic handoff; the assertions pin the
// report's internal consistency — a reader must never observe a set from
// one merge with the mass or degradation markers of another.
func TestShardedStallFreeQueryRace(t *testing.T) {
	pkts := propStream(21, 40000, 4)
	for _, mode := range []Mode{ModeWindowed, ModeSliding} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			det, err := NewShardedDetector(ShardedConfig{
				Mode: mode, Shards: 4, Window: 500 * time.Millisecond,
				Phi: 0.05, Counters: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			acc := det.(Accounting)

			var wg sync.WaitGroup
			start := make(chan struct{})
			stop := make(chan struct{})
			// Query-side readers: hammer the wait-free surface while the
			// writer publishes merges.
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for {
						select {
						case <-stop:
							return
						default:
						}
						rep := det.LastWindow()
						if rep.Set == nil {
							panic("LastWindow returned nil set")
						}
						// Internal consistency: the report's set and mass
						// were published together; the set's members were
						// admitted at phi of that mass, so no member may
						// exceed it.
						for _, it := range rep.Set.Items() {
							if rep.Bytes > 0 && it.Count > rep.Bytes {
								panic(fmt.Sprintf("item count %d exceeds window bytes %d", it.Count, rep.Bytes))
							}
						}
						st := det.Stats()
						if st.LastWindowBytes < 0 || st.Shards != 4 {
							panic(fmt.Sprintf("stats torn: %+v", st))
						}
						_ = acc.ReportMass(pkts[len(pkts)-1].Ts)
					}
				}()
			}
			// Writer: the single-goroutine ingest contract, closing many
			// windows while the readers run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for off := 0; off < len(pkts); off += 512 {
					end := off + 512
					if end > len(pkts) {
						end = len(pkts)
					}
					if err := det.TryObserveBatch(pkts[off:end]); err != nil {
						panic(err)
					}
				}
				close(stop)
			}()
			close(start)
			wg.Wait()
			if err := det.Close(); err != nil {
				t.Fatal(err)
			}
			// The final published report survives Close and stays readable.
			if rep := det.LastWindow(); rep.Set == nil {
				t.Fatal("LastWindow after Close returned nil set")
			}
		})
	}
}
