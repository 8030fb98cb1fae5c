package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestCounterGauge pins the scalar metric semantics: counters are
// monotone (negative adds ignored), gauges move both ways.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("hhh_test_total", "test counter", "shard").With("0")
	c.Inc()
	c.Add(4)
	c.Add(-7)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.GaugeVec("hhh_test_gauge", "test gauge", "shard").With("0")
	g.Set(2.5)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	if again := r.CounterVec("hhh_test_total", "test counter", "shard").With("0"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

// TestHistogramBuckets checks observations land in the right cumulative
// buckets and sum/count track exactly.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hhh_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`hhh_test_seconds_bucket{le="0.1"} 1`,
		`hhh_test_seconds_bucket{le="1"} 3`,
		`hhh_test_seconds_bucket{le="10"} 4`,
		`hhh_test_seconds_bucket{le="+Inf"} 5`,
		`hhh_test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestVecChildren checks labeled families: distinct label tuples get
// distinct children, same tuple returns the same child.
func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hhh_test_labeled_total", "labeled", "shard", "kind")
	v.With("0", "a").Add(1)
	v.With("1", "b").Add(2)
	v.With("0", "a").Add(1)
	if got := v.With("0", "a").Value(); got != 2 {
		t.Fatalf("child(0,a) = %d, want 2", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `hhh_test_labeled_total{shard="0",kind="a"} 2`) ||
		!strings.Contains(out, `hhh_test_labeled_total{shard="1",kind="b"} 2`) {
		t.Fatalf("labeled exposition wrong:\n%s", out)
	}
}

// TestFuncBacked checks function-backed metrics read at scrape time.
func TestFuncBacked(t *testing.T) {
	r := NewRegistry()
	n := int64(0)
	r.CounterFunc("hhh_test_fn_total", "fn counter", func() int64 { return n })
	r.GaugeFunc("hhh_test_fn_gauge", "fn gauge", func() float64 { return float64(n) / 2 })
	n = 7
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hhh_test_fn_total 7") || !strings.Contains(out, "hhh_test_fn_gauge 3.5") {
		t.Fatalf("func-backed exposition wrong:\n%s", out)
	}
}

// TestConflictingRegistrationPanics pins the family-shape invariants: a
// second registration with a different type or label set is a wiring bug
// and must panic rather than corrupt the exposition.
func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	one := func() int64 { return 1 }
	r.CounterFunc("hhh_test_total", "help", one)
	for name, fn := range map[string]func(){
		"type":   func() { r.GaugeFunc("hhh_test_total", "help", func() float64 { return 1 }) },
		"help":   func() { r.CounterFunc("hhh_test_total", "other help", one) },
		"labels": func() { r.CounterVec("hhh_test_total", "help", "shard") },
		"name":   func() { r.CounterFunc("bad name", "help", one) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("conflicting %s registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLabelEscaping checks quotes, backslashes and newlines in label
// values round-trip through exposition and the validator.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("hhh_test_esc_total", "escapes", "v").With(`a"b\c` + "\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `v="a\"b\\c\nd"`) {
		t.Fatalf("escaping wrong:\n%s", out)
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatalf("validator rejected escaped exposition: %v\n%s", err, out)
	}
}

// TestValidateExpositionAccepts runs the validator over a registry
// exercising every metric kind.
func TestValidateExpositionAccepts(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hhh_a_total", "a", func() int64 { return 3 })
	r.GaugeFunc("hhh_b", "b", func() float64 { return 1.25 })
	r.Histogram("hhh_c_seconds", "c", LatencyBuckets).Observe(0.002)
	r.CounterVec("hhh_d_total", "d", "shard").With("0").Inc()
	r.HistogramVec("hhh_e_seconds", "e", []float64{1, 2}, "mode").With("sliding").Observe(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("validator rejected registry output: %v\n%s", err, b.String())
	}
	// 1 counter + 1 gauge + (19 buckets + inf + sum + count) + 1 labeled
	// counter + (2 buckets + inf + sum + count) histogram child.
	if want := 1 + 1 + (len(LatencyBuckets) + 3) + 1 + 5; n != want {
		t.Fatalf("validated %d samples, want %d", n, want)
	}
}

// TestValidateExpositionRejects feeds the validator known-bad documents.
func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "hhh_x_total 1\n",
		"no HELP":        "# TYPE hhh_x_total counter\nhhh_x_total 1\n",
		"dup family":     "# HELP hhh_x_total x\n# TYPE hhh_x_total counter\n# TYPE hhh_x_total counter\nhhh_x_total 1\n",
		"dup sample":     "# HELP hhh_x_total x\n# TYPE hhh_x_total counter\nhhh_x_total 1\nhhh_x_total 2\n",
		"bad name":       "# HELP 0bad x\n# TYPE 0bad counter\n0bad 1\n",
		"bad value":      "# HELP hhh_x_total x\n# TYPE hhh_x_total counter\nhhh_x_total one\n",
		"unquoted label": "# HELP hhh_x_total x\n# TYPE hhh_x_total counter\nhhh_x_total{a=b} 1\n",
		"negative counter": "# HELP hhh_x_total x\n# TYPE hhh_x_total counter\n" +
			"hhh_x_total -1\n",
		"hist no inf": "# HELP hhh_h h\n# TYPE hhh_h histogram\n" +
			`hhh_h_bucket{le="1"} 1` + "\nhhh_h_sum 1\nhhh_h_count 1\n",
		"hist not cumulative": "# HELP hhh_h h\n# TYPE hhh_h histogram\n" +
			`hhh_h_bucket{le="1"} 2` + "\n" + `hhh_h_bucket{le="+Inf"} 1` + "\nhhh_h_sum 1\nhhh_h_count 1\n",
		"hist count mismatch": "# HELP hhh_h h\n# TYPE hhh_h histogram\n" +
			`hhh_h_bucket{le="1"} 1` + "\n" + `hhh_h_bucket{le="+Inf"} 2` + "\nhhh_h_sum 1\nhhh_h_count 3\n",
		"hist missing sum": "# HELP hhh_h h\n# TYPE hhh_h histogram\n" +
			`hhh_h_bucket{le="+Inf"} 1` + "\nhhh_h_count 1\n",
	}
	for name, doc := range cases {
		if _, err := ValidateExposition(doc); err == nil {
			t.Errorf("%s: validator accepted:\n%s", name, doc)
		}
	}
}

// TestHistogramVecSharesBuckets checks children of one histogram family
// share the family ladder and expose coherent series per label tuple.
func TestHistogramVecSharesBuckets(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("hhh_test_lat_seconds", "latency", []float64{0.5, 1}, "route")
	v.With("/hhh").Observe(0.2)
	v.With("/stats").Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateExposition(b.String()); err != nil {
		t.Fatalf("validator rejected: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, `hhh_test_lat_seconds_bucket{route="/hhh",le="0.5"} 1`) {
		t.Fatalf("per-route bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `hhh_test_lat_seconds_bucket{route="/stats",le="1"} 0`) {
		t.Fatalf("out-of-range observation leaked into finite bucket:\n%s", out)
	}
}
