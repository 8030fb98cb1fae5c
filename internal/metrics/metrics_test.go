package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistQuantiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if len(d.xs) != 100 {
		t.Fatal("sample count")
	}
	if d.Min() != 1 || d.Max() != 100 {
		t.Errorf("min/max = %v/%v", d.Min(), d.Max())
	}
	if q := d.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Errorf("median = %v", q)
	}
	if m := d.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
	if q := d.Quantile(-1); q != 1 {
		t.Errorf("clamped low quantile = %v", q)
	}
	if q := d.Quantile(2); q != 100 {
		t.Errorf("clamped high quantile = %v", q)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Mean()) || !math.IsNaN(d.CDFAt(1)) {
		t.Error("empty distribution should return NaN")
	}
}

func TestDistCDF(t *testing.T) {
	var d Dist
	for _, x := range []float64{1, 2, 2, 3, 10} {
		d.Observe(x)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.2},
		{2, 0.6},
		{2.5, 0.6},
		{10, 1},
		{11, 1},
	}
	for _, c := range cases {
		if got := d.CDFAt(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDistQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		var d Dist
		for i := 0; i < int(n)+2; i++ {
			d.Observe(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := d.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return sort.Float64sAreSorted(d.xs) && len(d.xs) == int(n)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistObserveAfterQuery(t *testing.T) {
	var d Dist
	d.Observe(5)
	_ = d.Quantile(0.5)
	d.Observe(1) // must re-sort lazily
	if d.Min() != 1 {
		t.Error("Observe after query broke sorting")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value", "pct")
	tb.AddRow("alpha", 12, 3.14159)
	tb.AddRow("b", 12345, 0.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("rule line %q", lines[1])
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Errorf("float formatting: %q", lines[2])
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("trailing whitespace in %q", l)
		}
	}
	// Columns align: "value" cells right-padded to same start.
	if strings.Index(lines[2], "12") == -1 || strings.Index(lines[3], "12345") == -1 {
		t.Error("missing cells")
	}
}

func TestTableNoHeader(t *testing.T) {
	tb := NewTable()
	tb.AddRow("x", 1)
	out := tb.String()
	if strings.Contains(out, "-") {
		t.Errorf("headerless table should have no rule: %q", out)
	}
}
