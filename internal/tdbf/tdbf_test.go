package tdbf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hiddenhhh/internal/hashx"
)

const sec = int64(time.Second)

func TestExponentialDecayLaw(t *testing.T) {
	e := Exponential{Tau: time.Second}
	if got := e.Apply(100, 0); got != 100 {
		t.Errorf("zero dt should not decay: %v", got)
	}
	if got := e.Apply(100, time.Second); math.Abs(got-100/math.E) > 1e-9 {
		t.Errorf("one tau should decay to v/e: %v", got)
	}
	if got := e.Apply(0, time.Hour); got != 0 {
		t.Errorf("zero mass stays zero: %v", got)
	}
	if e.Horizon() != time.Second {
		t.Error("Horizon should be tau")
	}
	if e.String() == "" {
		t.Error("String empty")
	}
}

func TestLeakyLinearDecayLaw(t *testing.T) {
	l := LeakyLinear{Rate: 10}
	if got := l.Apply(100, time.Second); got != 90 {
		t.Errorf("Apply = %v, want 90", got)
	}
	if got := l.Apply(5, time.Second); got != 0 {
		t.Errorf("clamp at zero: %v", got)
	}
	if got := l.Apply(100, 0); got != 100 {
		t.Errorf("zero dt: %v", got)
	}
	if l.Horizon() != 0 {
		t.Error("leaky Horizon should be 0")
	}
	if l.String() == "" {
		t.Error("String empty")
	}
}

func TestDecayComposition(t *testing.T) {
	laws := []Decay{Exponential{Tau: 3 * time.Second}, LeakyLinear{Rate: 7}}
	f := func(v uint32, a, b uint64) bool {
		mass := float64(v%100000) + 1
		d1 := time.Duration(a % uint64(10*time.Second))
		d2 := time.Duration(b % uint64(10*time.Second))
		for _, law := range laws {
			split := law.Apply(law.Apply(mass, d1), d2)
			whole := law.Apply(mass, d1+d2)
			if math.Abs(split-whole) > 1e-6*math.Max(1, whole) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterRequiresDecay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without decay should panic")
		}
	}()
	New(Config{})
}

func TestFilterDefaults(t *testing.T) {
	f := New(Config{Decay: Exponential{Tau: time.Second}})
	if f.Cells() != 1<<16 || f.Hashes() != 4 {
		t.Errorf("defaults: m=%d k=%d", f.Cells(), f.Hashes())
	}
	if f.SizeBytes() != (1<<16)*16 {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
	if f.Decay().Horizon() != time.Second {
		t.Error("Decay accessor")
	}
}

func TestFilterNeverUnderestimates(t *testing.T) {
	// The min-rule can only overestimate: compare against exact decayed
	// mass per key under a collision-heavy configuration.
	law := Exponential{Tau: 2 * time.Second}
	f := New(Config{Cells: 512, Hashes: 4, Decay: law})
	rng := rand.New(rand.NewSource(1))

	type upd struct {
		key uint64
		w   float64
		at  int64
	}
	var updates []upd
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now += rng.Int63n(2e6)
		u := upd{key: uint64(rng.Intn(300)), w: float64(40 + rng.Intn(1460)), at: now}
		updates = append(updates, u)
		f.Add(u.key, u.w, u.at)
	}
	exact := func(key uint64, at int64) float64 {
		var m float64
		for _, u := range updates {
			if u.key == key && u.at <= at {
				m += law.Apply(u.w, time.Duration(at-u.at))
			}
		}
		return m
	}
	for key := uint64(0); key < 300; key += 7 {
		want := exact(key, now)
		got := f.Estimate(key, now)
		if got < want-1e-6 {
			t.Fatalf("key %d: estimate %.3f below true decayed mass %.3f", key, got, want)
		}
	}
}

func TestFilterExactWhenNoCollisions(t *testing.T) {
	// One key in a huge filter: estimates equal the true decayed mass.
	law := Exponential{Tau: time.Second}
	f := New(Config{Cells: 1 << 16, Hashes: 4, Decay: law})
	f.Add(42, 100, 0)
	f.Add(42, 50, sec) // decayed: 100/e + 50
	want := 100/math.E + 50
	if got := f.Estimate(42, sec); math.Abs(got-want) > 1e-9 {
		t.Errorf("estimate %.6f, want %.6f", got, want)
	}
	// Reading further in the future decays further but must not mutate.
	later := f.Estimate(42, 3*sec)
	if math.Abs(later-want*math.Exp(-2)) > 1e-9 {
		t.Errorf("later estimate %.6f", later)
	}
	if again := f.Estimate(42, sec); math.Abs(again-want) > 1e-9 {
		t.Errorf("Estimate mutated state: %.6f vs %.6f", again, want)
	}
}

func TestFilterColdKeyIsZero(t *testing.T) {
	f := New(Config{Cells: 1 << 14, Hashes: 4, Decay: Exponential{Tau: time.Second}})
	f.Add(1, 1000, 0)
	if got := f.Estimate(999999, 0); got != 0 {
		t.Errorf("cold key estimate %v in near-empty filter", got)
	}
}

func TestFilterForgetsOldTraffic(t *testing.T) {
	// A burst at t=0 must be invisible after many horizons — the property
	// that makes the approach windowless.
	f := New(Config{Cells: 1 << 12, Hashes: 4, Decay: Exponential{Tau: time.Second}})
	f.Add(7, 1e9, 0)
	if got := f.Estimate(7, 40*sec); got > 1e-6 {
		t.Errorf("mass %v still visible after 40 tau", got)
	}
}

func TestFilterResetAndAdds(t *testing.T) {
	f := New(Config{Cells: 64, Hashes: 2, Decay: LeakyLinear{Rate: 1}})
	f.Add(1, 10, 0)
	f.Add(2, 10, 0)
	if f.Adds() != 2 {
		t.Error("Adds")
	}
	f.Reset()
	if f.Adds() != 0 || f.Estimate(1, 0) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMassTracker(t *testing.T) {
	m := NewMassTracker(Exponential{Tau: time.Second})
	m.Add(100, 0)
	if got := m.Value(0); got != 100 {
		t.Errorf("Value(0) = %v", got)
	}
	if got := m.Value(sec); math.Abs(got-100/math.E) > 1e-9 {
		t.Errorf("Value(1s) = %v", got)
	}
	m.Add(50, sec)
	want := 100/math.E + 50
	if got := m.Value(sec); math.Abs(got-want) > 1e-9 {
		t.Errorf("after second add: %v want %v", got, want)
	}
	m.Reset()
	if m.Value(2*sec) != 0 {
		t.Error("Reset")
	}
}

func TestMassTrackerRequiresDecay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMassTracker(nil) should panic")
		}
	}()
	NewMassTracker(nil)
}

func TestMassTrackerSteadyState(t *testing.T) {
	// A constant-rate flow converges to rate*tau mass, the equivalence
	// that lets continuous thresholds mirror window thresholds.
	tau := time.Second
	m := NewMassTracker(Exponential{Tau: tau})
	const perSecond = 1000.0
	const stepMs = 10
	for ts := int64(0); ts < 20*sec; ts += stepMs * int64(time.Millisecond) {
		m.Add(perSecond*stepMs/1000, ts)
	}
	got := m.Value(20 * sec)
	want := perSecond * tau.Seconds()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("steady-state mass %.1f, want ~%.1f", got, want)
	}
}

func TestPeriodicAgreesWithOnDemand(t *testing.T) {
	// With updates aligned to tick boundaries the two designs are
	// numerically identical.
	law := Exponential{Tau: 2 * time.Second}
	tick := 100 * time.Millisecond
	onDemand := New(Config{Cells: 1 << 10, Hashes: 4, Decay: law, Seed: 9})
	periodic := NewPeriodic(Config{Cells: 1 << 10, Hashes: 4, Decay: law, Seed: 9}, tick)
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 2000; i++ {
		now += int64(tick) * int64(1+rng.Intn(3))
		key := uint64(rng.Intn(100))
		w := float64(100 + rng.Intn(1000))
		onDemand.Add(key, w, now)
		periodic.Add(key, w, now)
	}
	for key := uint64(0); key < 100; key++ {
		a := onDemand.Estimate(key, now)
		b := periodic.Estimate(key, now)
		if math.Abs(a-b) > 1e-6*math.Max(1, a) {
			t.Fatalf("key %d: on-demand %.6f vs periodic %.6f", key, a, b)
		}
	}
	if periodic.Sweeps() == 0 {
		t.Error("periodic filter should have swept")
	}
}

func TestPeriodicQuantisation(t *testing.T) {
	// Between ticks the periodic filter holds estimates flat; after the
	// tick it catches up.
	law := Exponential{Tau: time.Second}
	tick := time.Second
	p := NewPeriodic(Config{Cells: 1 << 10, Hashes: 4, Decay: law}, tick)
	p.Add(1, 100, 0)
	if got := p.Estimate(1, int64(tick)/2); got != 100 {
		t.Errorf("mid-tick estimate %v, want undecayed 100", got)
	}
	got := p.Estimate(1, int64(tick))
	want := 100 / math.E
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("post-tick estimate %v, want %v", got, want)
	}
}

func TestPeriodicReset(t *testing.T) {
	p := NewPeriodic(Config{Cells: 64, Hashes: 2, Decay: LeakyLinear{Rate: 1}}, time.Second)
	p.Add(1, 10, 0)
	p.Estimate(1, 10*sec)
	p.Reset()
	if p.Sweeps() != 0 || p.Estimate(1, 0) != 0 {
		t.Error("Reset incomplete")
	}
	if p.SizeBytes() != 64*16 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
}

func TestPeriodicPanicsOnBadTick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPeriodic with zero tick should panic")
		}
	}()
	NewPeriodic(Config{Decay: LeakyLinear{Rate: 1}}, 0)
}

func BenchmarkFilterAdd(b *testing.B) {
	f := New(Config{Cells: 1 << 16, Hashes: 4, Decay: Exponential{Tau: time.Second}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i)&1023, 1000, int64(i)*1000)
	}
}

func BenchmarkFilterEstimate(b *testing.B) {
	f := New(Config{Cells: 1 << 16, Hashes: 4, Decay: Exponential{Tau: time.Second}})
	for i := 0; i < 10000; i++ {
		f.Add(uint64(i)&1023, 1000, int64(i)*1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += f.Estimate(uint64(i)&1023, 1e10)
	}
	_ = acc
}

func BenchmarkPeriodicAdd(b *testing.B) {
	p := NewPeriodic(Config{Cells: 1 << 16, Hashes: 4, Decay: Exponential{Tau: time.Second}}, 100*time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Add(uint64(i)&1023, 1000, int64(i)*1000)
	}
}

// TestFilterMergeMatchesUnionStream: merging two filters that each saw a
// substream approximates a single filter fed the interleaved union.
// Per-cell, decay laws compose over time, so the only difference is
// floating-point association of the decay factors — the values must agree
// to relative epsilon.
func TestFilterMergeMatchesUnionStream(t *testing.T) {
	cfg := Config{Cells: 1 << 12, Hashes: 4, Seed: 9, Decay: Exponential{Tau: time.Second}}
	a, b, whole := New(cfg), New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(5))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(rng.Intn(200)) * int64(time.Microsecond)
		key := uint64(rng.Intn(500))
		w := float64(40 + rng.Intn(1460))
		if key%2 == 0 {
			a.Add(key, w, now)
		} else {
			b.Add(key, w, now)
		}
		whole.Add(key, w, now)
	}
	a.Merge(b)
	for key := uint64(0); key < 500; key++ {
		got, want := a.Estimate(key, now), whole.Estimate(key, now)
		if diff := got - want; diff > 1e-6*want+1e-9 || diff < -1e-6*want-1e-9 {
			t.Errorf("key %d: merged %g != union %g", key, got, want)
		}
	}
	if a.Adds() != whole.Adds() {
		t.Errorf("adds %d != %d", a.Adds(), whole.Adds())
	}
}

// TestFilterMergeNeverUnderestimates: the conservative overestimate
// survives merging — every key's true decayed substream mass stays below
// the merged estimate.
func TestFilterMergeNeverUnderestimates(t *testing.T) {
	cfg := Config{Cells: 1 << 8, Hashes: 3, Seed: 2, Decay: Exponential{Tau: 100 * time.Millisecond}}
	a, b := New(cfg), New(cfg)
	type add struct {
		key uint64
		w   float64
		at  int64
	}
	var adds []add
	rng := rand.New(rand.NewSource(6))
	now := int64(0)
	for i := 0; i < 5000; i++ { // small filter: collisions guaranteed
		now += int64(rng.Intn(300)) * int64(time.Microsecond)
		ad := add{key: uint64(rng.Intn(2000)), w: float64(100 + rng.Intn(900)), at: now}
		adds = append(adds, ad)
		if ad.key < 1000 {
			a.Add(ad.key, ad.w, ad.at)
		} else {
			b.Add(ad.key, ad.w, ad.at)
		}
	}
	a.Merge(b)
	truth := map[uint64]float64{}
	law := cfg.Decay
	for _, ad := range adds {
		truth[ad.key] += law.Apply(ad.w, time.Duration(now-ad.at))
	}
	for key, want := range truth {
		if got := a.Estimate(key, now); got < want-1e-6*want {
			t.Errorf("key %d: merged estimate %g underestimates %g", key, got, want)
		}
	}
}

// TestFilterMergeMismatchPanics pins the shape/seed guard.
func TestFilterMergeMismatchPanics(t *testing.T) {
	a := New(Config{Cells: 1 << 8, Seed: 1, Decay: Exponential{Tau: time.Second}})
	b := New(Config{Cells: 1 << 8, Seed: 2, Decay: Exponential{Tau: time.Second}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on seed mismatch")
		}
	}()
	a.Merge(b)
}

// TestMassTrackerMerge: two trackers over substreams merge to the union
// stream's decayed mass.
func TestMassTrackerMerge(t *testing.T) {
	law := Exponential{Tau: time.Second}
	a, b, whole := NewMassTracker(law), NewMassTracker(law), NewMassTracker(law)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 10000; i++ {
		now += int64(rng.Intn(500)) * int64(time.Microsecond)
		w := float64(40 + rng.Intn(1460))
		if i%3 == 0 {
			a.Add(w, now)
		} else {
			b.Add(w, now)
		}
		whole.Add(w, now)
	}
	a.Merge(b)
	got, want := a.Value(now), whole.Value(now)
	if diff := got - want; diff > 1e-6*want || diff < -1e-6*want {
		t.Errorf("merged mass %g != union %g", got, want)
	}
}

// addPerCell is Add as it was before it returned the estimate and shared
// decay factors between cells: every probe reduced with %, every cell
// decayed through the law's Apply.
func addPerCell(f *Filter, key uint64, w float64, now int64) {
	f.adds++
	h1, h2 := hashx.Indices2(key, f.seed)
	m := uint64(len(f.cells))
	for i := 0; i < f.k; i++ {
		c := &f.cells[(h1+uint64(i)*h2)%m]
		if dt := now - c.touch; dt > 0 && c.v > 0 {
			c.v = f.decay.Apply(c.v, time.Duration(dt))
		}
		c.touch = now
		c.v += w
	}
}

// TestAddReturnsEstimateAndKeepsCells: for both decay laws, a
// power-of-two and an odd-factored cell count, and a filter small enough
// that probes of one key collide, (a) the value Add returns is bit for bit
// the Estimate taken right after, and (b) the cells are identical to a
// filter fed the same stream through the old per-cell loop — which is
// what keeps sealed frames byte-identical.
func TestAddReturnsEstimateAndKeepsCells(t *testing.T) {
	laws := []Decay{Exponential{Tau: 300 * time.Millisecond}, LeakyLinear{Rate: 2e5}}
	for _, law := range laws {
		for _, cells := range []int{1 << 10, 1000, 6} {
			t.Run(fmt.Sprintf("%v/%d", law, cells), func(t *testing.T) {
				cfg := Config{Cells: cells, Hashes: 4, Seed: 11, Decay: law}
				got, want := New(cfg), New(cfg)
				rng := rand.New(rand.NewSource(5))
				now := int64(0)
				for i := 0; i < 50000; i++ {
					// Heavy keys (cells sharing a touch time), a long tail
					// (cells last touched by different keys), repeated
					// timestamps and the odd long gap.
					key := uint64(rng.Intn(8))
					if rng.Intn(3) == 0 {
						key = rng.Uint64()
					}
					switch rng.Intn(10) {
					case 0:
					case 1:
						now += int64(rng.Intn(int(time.Second)))
					default:
						now += int64(rng.Intn(int(50 * time.Microsecond)))
					}
					w := float64(40 + rng.Intn(1460))
					ret := got.Add(key, w, now)
					if est := got.Estimate(key, now); math.Float64bits(ret) != math.Float64bits(est) {
						t.Fatalf("add %d: returned %v, Estimate right after %v", i, ret, est)
					}
					addPerCell(want, key, w, now)
				}
				for i := range want.cells {
					if got.cells[i] != want.cells[i] {
						t.Fatalf("cell %d: %+v, per-cell loop %+v", i, got.cells[i], want.cells[i])
					}
				}
				if got.Adds() != want.Adds() {
					t.Fatalf("adds %d != %d", got.Adds(), want.Adds())
				}
			})
		}
	}
}
