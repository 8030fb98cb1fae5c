// Package telemetry is the runtime metrics core behind the pipeline,
// detector and server instrumentation: atomic counters, gauges and
// fixed-bucket histograms, optionally grouped into labeled families, all
// collected in a Registry that writes Prometheus text-format exposition.
//
// The package is zero-dependency by design (the container bakes in no
// metrics client), and the instrumentation contract is "provably cheap on
// the ingest path": counters and gauges are single atomic operations,
// function-backed metrics (CounterFunc, GaugeFunc) cost nothing until a
// scrape reads them — the pipeline exposes its existing atomic counters
// through them without adding a single instruction to ingest — and
// histograms are reserved for event-frequency paths (batch hand-offs,
// barrier merges, snapshots), never per-packet ones.
//
// Concurrency: every metric type is safe for concurrent use. Registering
// metrics is also safe concurrently, but the intended shape is
// registration at construction time and mutation from the hot paths.
//
// Naming follows the Prometheus conventions the repository documents in
// ARCHITECTURE.md: every family is prefixed "hhh_", subsystem second
// (pipeline, detector, attack, http, eval), base units are seconds and
// bytes, and cumulative families end in "_total". Label cardinality is
// bounded by construction: label values are shard indexes, engine/mode
// names, route names and event types — never addresses or prefixes.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing cumulative metric. The zero
// value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; negative n is ignored (counters are
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, tracking
// the observation sum and count alongside. Buckets are set at
// construction and exposed with the Prometheus "le" convention (a +Inf
// bucket is implicit). Observe is a few atomic adds — cheap, but meant
// for event-frequency paths (hand-offs, merges, snapshots), not
// per-packet ones.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bucket ladder for the *_seconds latency
// histograms: 10µs to 10s in roughly 1-2.5-5 steps, covering everything
// from a batch hand-off on an idle ring to a barrier stalled at its
// deadline.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5, 5, 10,
}

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one time series of a family: a concrete metric or a
// function-backed sample read at scrape time.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	cfn     func() int64   // function-backed counter
	gfn     func() float64 // function-backed gauge
	hist    *Histogram
}

// family is one named metric family: type, help, label names, and its
// children keyed by label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// Registry collects metric families and writes them as Prometheus text
// exposition. Use NewRegistry; the zero value is not valid.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first use. Registering
// the same name with a different type, help, label set or bucket ladder
// panics: family shapes are fixed at first registration, and a mismatch
// is a programming error that would corrupt the exposition.
func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabel(l)
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			panic("telemetry: histogram " + name + " needs at least one bucket")
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic("telemetry: histogram " + name + " buckets must be strictly ascending")
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, buckets) {
			panic("telemetry: conflicting registration of metric family " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// child returns the family's child for the label values, creating it via
// mk on first use. A WithFunc registration against an existing child (or
// vice versa) panics: two writers for one time series is a wiring bug.
func (f *family) child(values []string, mk func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		if mk == nil {
			return c
		}
		panic("telemetry: duplicate function-backed series for " + f.name)
	}
	var c *child
	if mk != nil {
		c = mk()
	} else {
		c = &child{}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		default:
			c.hist = &Histogram{
				bounds: f.buckets,
				counts: make([]atomic.Int64, len(f.buckets)+1),
			}
		}
	}
	c.values = append([]string(nil), values...)
	f.children[key] = c
	return c
}

// CounterFunc registers a function-backed counter: fn is read at scrape
// time and must be monotonically non-decreasing (typically an existing
// atomic counter loaded in place, costing the hot path nothing).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.family(name, help, kindCounter, nil, nil).child(nil, func() *child { return &child{cfn: fn} })
}

// GaugeFunc registers a function-backed gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil).child(nil, func() *child { return &child{gfn: fn} })
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, nil, buckets).child(nil, nil).hist
}

// CounterVec is a counter family with labels; With returns the child for
// a label-value tuple.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the label values, creating it on first
// use. Callers on hot paths should cache the returned handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, nil).counter
}

// WithFunc registers a function-backed child for the label values.
func (v *CounterVec) WithFunc(fn func() int64, values ...string) {
	v.f.child(values, func() *child { return &child{cfn: fn} })
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, nil).gauge
}

// WithFunc registers a function-backed child for the label values.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	v.f.child(values, func() *child { return &child{gfn: fn} })
}

// HistogramVec is a histogram family with labels; every child shares the
// family's bucket ladder.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for the label values, creating it on first
// use. Callers should cache the returned handle.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, nil).hist
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, children
// by label values, histograms expanded into cumulative le buckets plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].values, "\x00") < strings.Join(kids[j].values, "\x00")
	})
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')
	for _, c := range kids {
		switch f.kind {
		case kindHistogram:
			f.writeHistogram(b, c)
		case kindCounter:
			v := c.cfn
			if v == nil {
				cc := c.counter
				v = cc.Value
			}
			writeSample(b, f.name, f.labels, c.values, "", "", strconv.FormatInt(v(), 10))
		default:
			var val float64
			if c.gfn != nil {
				val = c.gfn()
			} else {
				val = c.gauge.Value()
			}
			writeSample(b, f.name, f.labels, c.values, "", "", formatFloat(val))
		}
	}
}

// writeHistogram renders one histogram child: cumulative buckets, sum,
// count.
func (f *family) writeHistogram(b *strings.Builder, c *child) {
	var cum int64
	for i, bound := range f.buckets {
		cum += c.hist.counts[i].Load()
		writeSample(b, f.name+"_bucket", f.labels, c.values, "le", formatFloat(bound),
			strconv.FormatInt(cum, 10))
	}
	cum += c.hist.counts[len(f.buckets)].Load()
	writeSample(b, f.name+"_bucket", f.labels, c.values, "le", "+Inf",
		strconv.FormatInt(cum, 10))
	writeSample(b, f.name+"_sum", f.labels, c.values, "", "", formatFloat(c.hist.Sum()))
	writeSample(b, f.name+"_count", f.labels, c.values, "", "", strconv.FormatInt(c.hist.Count(), 10))
}

// writeSample renders one sample line, appending the extra label (le)
// when given.
func writeSample(b *strings.Builder, name string, labels, values []string, extraK, extraV, val string) {
	b.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraK)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(extraV))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(val)
	b.WriteByte('\n')
}

// formatFloat renders a float sample value ("1", "0.05", "+Inf").
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, quotes and newlines in label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// mustValidName panics unless name is a valid Prometheus metric name.
func mustValidName(name string) {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
}

// mustValidLabel panics unless l is a valid Prometheus label name.
func mustValidLabel(l string) {
	if !validLabelName(l) || strings.HasPrefix(l, "__") {
		panic("telemetry: invalid label name " + strconv.Quote(l))
	}
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
