package gen

import (
	"io"
	"math"
	"math/rand"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// Generator streams one synthetic trace in timestamp order. It implements
// trace.Source; construct a fresh Generator (same Config) to replay the
// identical trace.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	space *addrSpace
	flows eventQueue
	durNs int64
	done  bool
}

// New validates cfg and builds a generator positioned at the start of the
// trace.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		durNs: int64(cfg.Duration),
	}
	g.space = newAddrSpace(&cfg, g.rng)
	g.seedFlows()
	g.seedPulses()
	for i := len(g.flows)/2 - 1; i >= 0; i-- {
		g.flows.down(i, len(g.flows))
	}
	return g, nil
}

// Packets generates the whole trace into memory. Prefer the streaming
// interface for long traces.
func Packets(cfg Config) ([]trace.Packet, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	hint := int(cfg.MeanPacketRate * cfg.Duration.Seconds())
	return trace.Collect(g, hint)
}

// flow is one scheduled traffic source (long-lived or pulse). Its next
// event time lives in its queue slot.
type flow struct {
	src        addr.Addr
	baseRate   float64 // long-run average pps (rank share of the aggregate)
	onRate     float64 // pps while on (baseRate corrected for duty cycle)
	onMean     float64 // mean on-period (ns); 0 means always on
	offMean    float64 // mean off-period (ns)
	on         bool
	stateUntil int64 // next on/off toggle (long-lived only)
	death      int64 // respawn (long-lived) or end (pulse) time
	pulse      bool
}

// event is one slot of the event queue: a flow and the time (ns) of its
// next event, kept in the slot so a sift compares without loading the flow.
type event struct {
	next int64
	f    *flow
}

// eventQueue is a binary min-heap on event.next that runs container/heap's
// exact Init (New), Push (seedFlows), Pop and Fix(h, 0) (pop, fixRoot):
// ties between equal times decide which flow draws from the RNG first, so
// that order is part of every trace TestTraceDigests pins. up and down
// hold the moving slot aside instead of swapping at every level: the
// comparisons, and so the places, are the same.
type eventQueue []event

// pop removes the root.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	*q = h[:n]
}

// fixRoot moves the root's event to next and restores the heap order.
func (q eventQueue) fixRoot(next int64) {
	q[0].next = next
	q.down(0, len(q))
}

func (q eventQueue) up(j int) {
	e := q[j]
	for i := (j - 1) / 2; j > 0 && e.next < q[i].next; i = (j - 1) / 2 {
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

func (q eventQueue) down(i, n int) {
	e := q[i]
	for j := 2*i + 1; j < n; j = 2*i + 1 {
		if j+1 < n && q[j+1].next < q[j].next {
			j++
		}
		if q[j].next >= e.next {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = e
}

// after returns t plus an exponential gap with the given mean (ns): at
// least t+1, and math.MaxInt64 — never — when the sum would not fit in an
// int64, a gap of 2⁶³ ns or more (a mean above ~292 years) included. It
// draws once whatever the outcome.
func (g *Generator) after(t int64, mean float64) int64 {
	d := g.rng.ExpFloat64() * mean
	if !(d < float64(math.MaxInt64-t)) {
		return math.MaxInt64
	}
	if d < 1 {
		return t + 1
	}
	return t + int64(d)
}

// rateOfRank gives the long-run average packet rate for popularity rank r
// (0-based): its Zipf weight over norm, the sum of all Flows weights,
// times the configured aggregate rate.
func (g *Generator) rateOfRank(r int, norm float64) float64 {
	w := 1 / math.Pow(float64(r+1), g.cfg.RateSkew) / norm
	return g.cfg.MeanPacketRate * w
}

func (g *Generator) seedFlows() {
	var norm float64
	for i := 1; i <= g.cfg.Flows; i++ {
		norm += 1 / math.Pow(float64(i), g.cfg.RateSkew)
	}
	g.flows = make(eventQueue, 0, g.cfg.Flows+16)
	for i := 0; i < g.cfg.Flows; i++ {
		f := &flow{
			src:      g.space.sampleSource(g.rng),
			baseRate: g.rateOfRank(i, norm),
		}
		g.assignClass(f)
		g.resetLifecycle(f, 0)
		// Random initial phase so the population does not start in sync.
		g.flows = append(g.flows, event{g.after(0, 1e9/f.onRate), f})
		g.flows.up(len(g.flows) - 1)
	}
}

// assignClass draws the flow's burst class: a MicroburstFraction share of
// sources burst at sub-second scale, the rest at the BurstOn/BurstOff
// scale. The on-rate is amplified by the inverse duty cycle so every
// flow's long-run average stays at its rank share of the aggregate.
func (g *Generator) assignClass(f *flow) {
	switch {
	case g.cfg.MicroburstFraction > 0 && g.rng.Float64() < g.cfg.MicroburstFraction:
		f.onMean = float64(g.cfg.MicroOn)
		f.offMean = float64(g.cfg.MicroOff)
	case g.cfg.BurstOn > 0:
		f.onMean = float64(g.cfg.BurstOn)
		f.offMean = float64(g.cfg.BurstOff)
	default:
		f.onMean, f.offMean = 0, 0
	}
	if f.onMean > 0 {
		duty := f.onMean / (f.onMean + f.offMean)
		f.onRate = f.baseRate / duty
	} else {
		f.onRate = f.baseRate
	}
}

// resetLifecycle (re)draws a flow's on/off phase and death time from t.
func (g *Generator) resetLifecycle(f *flow, t int64) {
	if f.onMean > 0 {
		// Start in a random state biased by the duty cycle.
		duty := f.onMean / (f.onMean + f.offMean)
		f.on = g.rng.Float64() < duty
		if f.on {
			f.stateUntil = g.after(t, f.onMean)
		} else {
			f.stateUntil = g.after(t, f.offMean)
		}
	} else {
		f.on = true
		f.stateUntil = math.MaxInt64
	}
	if g.cfg.MeanFlowLifetime > 0 {
		f.death = g.after(t, float64(g.cfg.MeanFlowLifetime))
	} else {
		f.death = math.MaxInt64
	}
}

// seedPulses schedules Poisson pulse arrivals across the trace.
func (g *Generator) seedPulses() {
	if g.cfg.PulsesPerMinute <= 0 {
		return
	}
	meanGapNs := 60e9 / g.cfg.PulsesPerMinute
	for t := g.after(0, meanGapNs); t < g.durNs; t = g.after(t, meanGapNs) {
		durRange := float64(g.cfg.PulseDurationMax - g.cfg.PulseDurationMin)
		dur := int64(g.cfg.PulseDurationMin) + int64(g.rng.Float64()*durRange)
		share := g.cfg.PulseShareMin +
			g.rng.Float64()*(g.cfg.PulseShareMax-g.cfg.PulseShareMin)
		f := &flow{
			src:        g.space.samplePulseSource(g.rng),
			onRate:     share * g.cfg.MeanPacketRate,
			on:         true,
			stateUntil: math.MaxInt64,
			death:      t + dur,
			pulse:      true,
		}
		g.flows = append(g.flows, event{t, f})
	}
}

// Next implements trace.Source.
func (g *Generator) Next(p *trace.Packet) error {
	for !g.done {
		if len(g.flows) == 0 {
			g.done = true
			break
		}
		f, t := g.flows[0].f, g.flows[0].next
		if t >= g.durNs {
			// Heap min is beyond the trace end; everything else is too.
			g.done = true
			break
		}
		switch {
		case t >= f.death:
			if f.pulse {
				g.flows.pop() // pulses end, they do not respawn
				continue
			}
			// Churn: the source dies and a fresh one takes its rank slot.
			f.src = g.space.sampleSource(g.rng)
			g.assignClass(f)
			g.resetLifecycle(f, t)
			g.flows.fixRoot(g.after(t, 1e9/f.onRate))
			continue
		case t >= f.stateUntil:
			if f.on {
				f.on = false
				f.stateUntil = g.after(t, f.offMean)
				// Sleep through the off period.
				g.flows.fixRoot(f.stateUntil)
			} else {
				f.on = true
				f.stateUntil = g.after(t, f.onMean)
				g.flows.fixRoot(g.after(t, 1e9/f.onRate))
			}
			continue
		case !f.on:
			// Scheduled during an off period (initial phase): skip ahead.
			g.flows.fixRoot(f.stateUntil)
			continue
		}
		// Emit a packet for f at t.
		g.fillPacket(p, f, t)
		g.flows.fixRoot(g.after(t, 1e9/f.onRate))
		return nil
	}
	return io.EOF
}

// fillPacket draws the per-packet header fields.
func (g *Generator) fillPacket(p *trace.Packet, f *flow, t int64) {
	p.Ts = t
	p.Src = f.src
	p.Dst = g.space.sampleServer(g.rng, !f.src.Is4())
	p.Size = g.sampleSize(f.pulse)
	switch r := g.rng.Float64(); {
	case f.pulse || r < 0.10:
		p.Proto = trace.ProtoUDP
		p.SrcPort = uint16(1024 + g.rng.Intn(64000))
		p.DstPort = uint16([]int{53, 123, 443, 4789}[g.rng.Intn(4)])
	case r < 0.998:
		p.Proto = trace.ProtoTCP
		p.SrcPort = uint16(1024 + g.rng.Intn(64000))
		p.DstPort = uint16([]int{80, 443, 443, 443, 22, 25}[g.rng.Intn(6)])
	default:
		p.Proto = trace.ProtoICMP
		if !f.src.Is4() {
			p.Proto = trace.ProtoICMPv6
		}
		p.SrcPort, p.DstPort = 0, 0
	}
}

// sampleSize draws from the trimodal Internet packet-size mixture; pulses
// skew small (typical of floods).
func (g *Generator) sampleSize(pulse bool) uint32 {
	r := g.rng.Float64()
	if pulse {
		// Floods: mostly minimum-size packets.
		if r < 0.85 {
			return uint32(40 + g.rng.Intn(24))
		}
		return uint32(1400 + g.rng.Intn(100))
	}
	switch {
	case r < 0.45:
		return uint32(40 + g.rng.Intn(40)) // ACKs, SYNs
	case r < 0.60:
		return uint32(400 + g.rng.Intn(400)) // DNS and mid-size
	default:
		return uint32(1400 + g.rng.Intn(100)) // MTU-limited bulk
	}
}
