// Package window implements the window models the paper compares:
// fixed-time disjoint (tumbling) windows, sliding windows with a step, and
// the trimmed-tail multi-length evaluation behind the micro-variation
// experiment.
//
// All engines make a single pass over a time-sorted packet source and
// deliver, per window, an exact per-source byte aggregate from which the
// caller computes HHH sets. Windows are defined over an explicit analysis
// span [Origin, End): the experiments know the trace duration, which
// removes end-of-stream ambiguity about partial windows — both window
// models see exactly the same span, the property the hidden-HHH comparison
// relies on.
package window

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// ErrConfig reports an invalid window configuration.
var ErrConfig = errors.New("window: invalid configuration")

// KeyFunc extracts a packet's aggregation key — a hierarchy leaf key
// (see addr.Hierarchy.Key at level 0) — and reports ok=false for packets
// the analysis should skip entirely, e.g. the other address family of a
// dual-stack trace. The paper's experiments aggregate by source address.
type KeyFunc func(*trace.Packet) (key uint64, ok bool)

// BySource keys by the source address generalised to h's leaf level,
// skipping packets outside h's address family. It is the default KeyFunc
// (at the IPv4 byte ladder).
func BySource(h addr.Hierarchy) KeyFunc {
	return func(p *trace.Packet) (uint64, bool) { return h.Key(p.Src, 0), h.Match(p.Src) }
}

// Result is one evaluated window. Leaves maps the KeyFunc's leaf keys to
// accumulated weight — a packet weighs its wire length, the paper's
// thresholds being byte volumes. The Result (including Leaves) is only
// valid during the callback that delivers it; callers must not retain it.
type Result struct {
	Index   int   // window ordinal within the span
	Start   int64 // inclusive, ns
	End     int64 // exclusive, ns
	Packets int
	Bytes   int64 // total weight in the window
	Leaves  *sketch.Exact
}

// Duration is the window length.
func (r *Result) Duration() time.Duration { return time.Duration(r.End - r.Start) }

// Config is the shared window-model configuration.
type Config struct {
	// Width is the window length. Must be positive.
	Width time.Duration
	// Step is the distance between consecutive window starts. Tumbling
	// windows have Step == Width (set automatically when zero). Sliding
	// windows require Step to divide Width.
	Step time.Duration
	// Origin is the timestamp (ns since trace epoch) of the first window
	// start. Usually 0.
	Origin int64
	// End (exclusive, ns) bounds the analysis span: only windows fully
	// contained in [Origin, End) are evaluated, and packets at or past End
	// are ignored. Must satisfy End >= Origin + Width for at least one
	// window.
	End int64
	// Key defaults to BySource at the IPv4 byte ladder.
	Key KeyFunc
}

func (c *Config) setDefaults() {
	if c.Key == nil {
		c.Key = BySource(addr.NewIPv4Hierarchy(addr.Byte))
	}
	if c.Step == 0 {
		c.Step = c.Width
	}
}

func (c *Config) validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("%w: width %v must be positive", ErrConfig, c.Width)
	}
	if c.Step <= 0 {
		return fmt.Errorf("%w: step %v must be positive", ErrConfig, c.Step)
	}
	if c.Step > c.Width {
		return fmt.Errorf("%w: step %v exceeds width %v", ErrConfig, c.Step, c.Width)
	}
	if c.Width%c.Step != 0 {
		return fmt.Errorf("%w: step %v must divide width %v", ErrConfig, c.Step, c.Width)
	}
	if c.End <= c.Origin {
		return fmt.Errorf("%w: empty span [%d,%d)", ErrConfig, c.Origin, c.End)
	}
	if c.End-c.Origin < int64(c.Width) {
		return fmt.Errorf("%w: span shorter than one window", ErrConfig)
	}
	return nil
}

// Count returns the number of windows the configuration evaluates.
func (c Config) Count() int {
	c.setDefaults()
	if c.validate() != nil {
		return 0
	}
	span := c.End - c.Origin
	return int((span-int64(c.Width))/int64(c.Step)) + 1
}

// SpanFor returns [start, end) of window i under the configuration.
func (c Config) SpanFor(i int) (start, end int64) {
	c.setDefaults()
	start = c.Origin + int64(i)*int64(c.Step)
	return start, start + int64(c.Width)
}

// Tumble evaluates disjoint fixed-time windows (Step forced to Width) and
// calls fn for each in order. Empty windows are delivered too: a window
// with no packets is still a window whose HHH set is empty, and the
// experiments count positions, not traffic.
func Tumble(src trace.Source, cfg Config, fn func(*Result) error) error {
	cfg.Step = cfg.Width
	return Slide(src, cfg, fn)
}

// Slide evaluates sliding windows of cfg.Width every cfg.Step and calls fn
// for each position in order. It maintains one aggregate bucket per step
// and a running window counter, so a full pass costs O(packets + windows ×
// buckets) regardless of how much windows overlap.
func Slide(src trace.Source, cfg Config, fn func(*Result) error) error {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	var (
		step      = int64(cfg.Step)
		width     = int64(cfg.Width)
		nbuckets  = int(width / step)
		positions = cfg.Count()
		// ring of per-step buckets; bucket b covers
		// [Origin + b*step, Origin + (b+1)*step)
		ring    = make([]*sketch.Exact, nbuckets)
		ringPk  = make([]int, nbuckets)
		running = sketch.NewExact(1024)
		runPk   = 0
		cur     = 0 // index of the bucket currently being filled
		emitted = 0
		res     Result
	)
	for i := range ring {
		ring[i] = sketch.NewExact(256)
	}
	totalBuckets := int((cfg.End - cfg.Origin) / step) // buckets fully inside the span
	if int64(totalBuckets)*step < cfg.End-cfg.Origin {
		totalBuckets++ // partial trailing bucket still absorbs packets
	}

	// emitReady emits every window position whose final bucket is complete
	// once buckets [0, done) are finished.
	emitReady := func(done int) error {
		for ; emitted < positions && emitted+nbuckets <= done; emitted++ {
			start, end := cfg.SpanFor(emitted)
			res = Result{
				Index:   emitted,
				Start:   start,
				End:     end,
				Packets: runPk,
				Bytes:   running.Total(),
				Leaves:  running,
			}
			if err := fn(&res); err != nil {
				return err
			}
			// Slide: evict the oldest bucket.
			evict := ring[emitted%nbuckets]
			evict.ForEach(func(k uint64, c int64) { running.Remove(k, c) })
			runPk -= ringPk[emitted%nbuckets]
			evict.Reset()
			ringPk[emitted%nbuckets] = 0
		}
		return nil
	}

	// finishBucketsThrough advances the current bucket pointer so that all
	// buckets before `through` are folded into the running counter.
	finishBucketsThrough := func(through int) error {
		for cur < through {
			b := ring[cur%nbuckets]
			// Newly finished bucket joins the running window. (It may be
			// empty; folding is then a no-op.)
			running.AddAll(b)
			runPk += ringPk[cur%nbuckets]
			cur++
			if err := emitReady(cur); err != nil {
				return err
			}
		}
		return nil
	}

	var p trace.Packet
	for {
		err := src.Next(&p)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if p.Ts < cfg.Origin || p.Ts >= cfg.End {
			continue
		}
		b := int((p.Ts - cfg.Origin) / step)
		if b >= totalBuckets {
			continue
		}
		if b > cur {
			if err := finishBucketsThrough(b); err != nil {
				return err
			}
		}
		// Packets are time-sorted, so b == cur here.
		k, ok := cfg.Key(&p)
		if !ok {
			continue
		}
		ring[b%nbuckets].Update(k, int64(p.Size))
		ringPk[b%nbuckets]++
	}
	// Flush: finish every bucket in the span and emit remaining positions.
	return finishBucketsThrough(totalBuckets)
}
