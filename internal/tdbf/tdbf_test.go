package tdbf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
	if f.SizeBytes() != (1<<16)/8*4+64 { // a directory entry per line of 8, the zero line
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
	f := New(Config{Cells: 64, Hashes: 2, Decay: Exponential{Tau: time.Second}})
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

// add folds weight w observed at now into the tracker, as a lone writer
// would, and returns the mass after the add: what Value(now) returns next.
func (t *MassTracker) add(w float64, now int64) float64 {
	up, down := t.base.scale(now, true)
	return t.AddScaled(w*up) * down
}

func TestMassTracker(t *testing.T) {
	m := NewBase(Exponential{Tau: time.Second}).NewMassTracker()
	m.add(100, 0)
	if got := m.Value(0); got != 100 {
		t.Errorf("Value(0) = %v", got)
	}
	if got := m.Value(sec); math.Abs(got-100/math.E) > 1e-9 {
		t.Errorf("Value(1s) = %v", got)
	}
	m.add(50, sec)
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
			t.Error("a tracker without a law should panic")
		}
	}()
	NewBase(Exponential{}).NewMassTracker()
}

func TestSatInt64(t *testing.T) {
	for m, want := range map[float64]int64{
		0: 0, 1e18: 1e18, -3.9: -3, math.MaxInt64: math.MaxInt64, 1e30: math.MaxInt64, math.Inf(1): math.MaxInt64,
		math.MinInt64: math.MinInt64, -1e30: math.MinInt64, math.Inf(-1): math.MinInt64, math.NaN(): 0,
	} {
		if got := SatInt64(m); got != want {
			t.Errorf("SatInt64(%v) = %d, want %d", m, got, want)
		}
	}
}

func TestMassTrackerSteadyState(t *testing.T) {
	// A constant-rate flow converges to rate*tau mass, the equivalence
	// that lets continuous thresholds mirror window thresholds.
	tau := time.Second
	m := NewBase(Exponential{Tau: tau}).NewMassTracker()
	const perSecond = 1000.0
	const stepMs = 10
	for ts := int64(0); ts < 20*sec; ts += stepMs * int64(time.Millisecond) {
		m.add(perSecond*stepMs/1000, ts)
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
	periodic := NewPeriodic(Config{Cells: 1 << 10, Hashes: 4, Seed: 9}, law, tick)
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
	p := NewPeriodic(Config{Cells: 1 << 10, Hashes: 4}, law, tick)
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
	p := NewPeriodic(Config{Cells: 64, Hashes: 2}, LeakyLinear{Rate: 1}, time.Second)
	p.Add(1, 10, 0)
	p.Estimate(1, 10*sec)
	p.Reset()
	if p.Sweeps() != 0 || p.Estimate(1, 0) != 0 {
		t.Error("Reset incomplete")
	}
	if p.SizeBytes() != 64*8 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
}

func TestPeriodicPanicsOnBadTick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPeriodic with zero tick should panic")
		}
	}()
	NewPeriodic(Config{}, LeakyLinear{Rate: 1}, 0)
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
	p := NewPeriodic(Config{Cells: 1 << 16, Hashes: 4}, Exponential{Tau: time.Second}, 100*time.Millisecond)
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
	a, b, whole := NewBase(law).NewMassTracker(), NewBase(law).NewMassTracker(), NewBase(law).NewMassTracker()
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 10000; i++ {
		now += int64(rng.Intn(500)) * int64(time.Microsecond)
		w := float64(40 + rng.Intn(1460))
		if i%3 == 0 {
			a.add(w, now)
		} else {
			b.add(w, now)
		}
		whole.add(w, now)
	}
	a.Merge(b)
	got, want := a.Value(now), whole.Value(now)
	if diff := got - want; diff > 1e-6*want || diff < -1e-6*want {
		t.Errorf("merged mass %g != union %g", got, want)
	}
}

// addPerCell is the lazy Add as it was before it returned the estimate
// and shared decay factors between cells: every probe reduced with %, every
// cell decayed through the law's Apply.
func addPerCell(f *lazyFilter, key uint64, w float64, now int64) {
	f.adds++
	h1, h2 := hashx.Probes2(key, hashx.Premix(f.seed))
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

// near reports whether got is ref to 1e-9 relative, give or take what the
// flush floor may have taken.
func near(got, ref float64) bool {
	return math.Abs(got-ref) <= 1e-9*ref+2*flushFloor
}

// TestAddReturnsEstimateAndKeepsCells: for a power-of-two and an
// odd-factored cell count, and a filter small enough that probes of one
// key collide, the value Add returns is bit for bit the Estimate taken
// right after — for the forward-decayed Filter, and under both decay laws
// for the lazy reference, whose cells must also be identical to a filter
// fed the same stream through its old per-cell loop (the reference has to
// be the parent's filter, not something close to it). Where the law is
// exponential the two filters must agree on every estimate.
func TestAddReturnsEstimateAndKeepsCells(t *testing.T) {
	laws := []Decay{Exponential{Tau: 300 * time.Millisecond}, LeakyLinear{Rate: 2e5}}
	for _, law := range laws {
		for _, cells := range []int{1 << 10, 1000, 6} {
			t.Run(fmt.Sprintf("%v/%d", law, cells), func(t *testing.T) {
				cfg := Config{Cells: cells, Hashes: 4, Seed: 11}
				got, want := newLazy(cfg, law), newLazy(cfg, law)
				var fwd *Filter
				if e, ok := law.(Exponential); ok {
					cfg.Decay = e
					fwd = New(cfg)
				}
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
						t.Fatalf("add %d: lazy returned %v, Estimate right after %v", i, ret, est)
					}
					addPerCell(want, key, w, now)
					if fwd == nil {
						continue
					}
					fret := fwd.Add(key, w, now)
					if est := fwd.Estimate(key, now); math.Float64bits(fret) != math.Float64bits(est) {
						t.Fatalf("add %d: returned %v, Estimate right after %v", i, fret, est)
					}
					if !near(fret, ret) {
						t.Fatalf("add %d: forward %v, lazy reference %v", i, fret, ret)
					}
				}
				for i := range want.cells {
					if got.cells[i] != want.cells[i] {
						t.Fatalf("cell %d: %+v, per-cell loop %+v", i, got.cells[i], want.cells[i])
					}
				}
				if got.Adds() != want.Adds() || (fwd != nil && fwd.Adds() != want.Adds()) {
					t.Fatalf("adds %d != %d", got.Adds(), want.Adds())
				}
			})
		}
	}
}

// Adds returns the number of Add calls since construction or Reset.
func (f *lazyFilter) Adds() int64 { return f.adds }

// sane fails unless every cell of f is a storable mass and f's estimates
// of keys are finite at every probe instant.
func sane(t *testing.T, f *Filter, what string, keys []uint64, at []int64) {
	t.Helper()
	for i, v := range f.masses() {
		if !validMass(v) {
			t.Fatalf("%s: cell %d holds %v", what, i, v)
		}
	}
	for _, key := range keys {
		for _, now := range at {
			if e := f.Estimate(key, now); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Fatalf("%s: Estimate(%d, %d) = %v", what, key, now, e)
			}
		}
	}
}

// TestForwardMatchesLazyReference is the differential test of forward
// decay: a million adds over a stream long enough to roll the landmark
// over several times, every returned estimate and a sample of cold reads
// held to the lazy reference — within 1e-9 relative, and never under it by
// more than the flush floor.
func TestForwardMatchesLazyReference(t *testing.T) {
	if testing.Short() {
		t.Skip("million-add differential run")
	}
	law := Exponential{Tau: 100 * time.Millisecond}
	cfg := Config{Cells: 1 << 12, Hashes: 4, Seed: 3, Decay: law}
	f, ref := New(cfg), newLazy(cfg, law)
	rng := rand.New(rand.NewSource(8))
	now := int64(1_700_000_000_000_000_000)
	rolls, land := 0, f.Landmark()
	for i := 0; i < 1_000_000; i++ {
		now += int64(rng.Intn(int(60 * time.Microsecond)))
		if rng.Intn(100_000) == 0 {
			now += int64(10 * law.Tau) // an idle gap
		}
		key := uint64(rng.Intn(64))
		if rng.Intn(2) == 0 {
			key = uint64(rng.Intn(20000))
		}
		w := float64(40 + rng.Intn(1460))
		got, want := f.Add(key, w, now), ref.Add(key, w, now)
		if !near(got, want) || got < want*(1-1e-9)-2*flushFloor {
			t.Fatalf("add %d: forward %v, reference %v", i, got, want)
		}
		if i%64 == 0 {
			cold := uint64(rng.Intn(40000))
			if got, want := f.Estimate(cold, now), ref.Estimate(cold, now); !near(got, want) {
				t.Fatalf("add %d: Estimate(%d) forward %v, reference %v", i, cold, got, want)
			}
		}
		if l := f.Landmark(); l != land {
			if land != NoLandmark {
				rolls++
			}
			land = l
		}
	}
	if rolls < 3 {
		t.Fatalf("stream rolled the landmark over %d times, want at least 3", rolls)
	}
}

// TestForwardDecayOrderIndependent: within one landmark epoch adds
// commute. A stream and a shuffle of it — both opened by the same add,
// which sets the landmark — leave the same cells up to floating-point
// association, which the lazy filter, whose cells remember the order they
// were touched in, never guaranteed.
func TestForwardDecayOrderIndependent(t *testing.T) {
	type add struct {
		key uint64
		w   float64
		at  int64
	}
	law := Exponential{Tau: time.Second}
	rng := rand.New(rand.NewSource(12))
	adds := make([]add, 20000)
	now := int64(5 * time.Second)
	for i := range adds {
		adds[i] = add{uint64(rng.Intn(3000)), float64(40 + rng.Intn(1460)), now}
		now += int64(rng.Intn(int(time.Millisecond))) // 10 s in all: well inside 64 tau
	}
	cfg := Config{Cells: 1 << 10, Hashes: 4, Seed: 4, Decay: law}
	sorted, shuffled := New(cfg), New(cfg)
	for _, a := range adds {
		sorted.Add(a.key, a.w, a.at)
	}
	rest := adds[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, a := range adds {
		shuffled.Add(a.key, a.w, a.at)
	}
	if sorted.Landmark() != shuffled.Landmark() || sorted.Landmark() != adds[0].at {
		t.Fatalf("landmarks %d and %d, first add at %d", sorted.Landmark(), shuffled.Landmark(), adds[0].at)
	}
	for i, v := range sorted.masses() {
		if d := math.Abs(shuffled.masses()[i] - v); d > 1e-12*v {
			t.Fatalf("cell %d: sorted %v, shuffled %v", i, v, shuffled.masses()[i])
		}
	}
}

// TestHostileStamps: no timestamp and no packet size can put a NaN, an
// infinity or a negative mass into a cell, or get one out of Estimate.
func TestHostileStamps(t *testing.T) {
	stamps := []int64{
		math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1,
		1 << 62, -(1 << 62), 1_700_000_000_000_000_000, -1_000_000_000_000,
		int64(time.Hour), int64(time.Hour) - 1, int64(700 * time.Second), int64(time.Second),
	}
	keys := []uint64{0, 1, 2, math.MaxUint64}
	for _, tau := range []time.Duration{1, time.Second, math.MaxInt64} {
		// Every ordered pair of stamps, so each follows every other.
		f := New(Config{Cells: 8, Hashes: 3, Decay: Exponential{Tau: tau}})
		m := NewBase(Exponential{Tau: tau}).NewMassTracker()
		for _, a := range stamps {
			for _, b := range stamps {
				for i, now := range []int64{a, b} {
					got := f.Add(keys[i], math.MaxUint32, now)
					if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
						t.Fatalf("tau %v: Add at %d after %d returned %v", tau, now, a, got)
					}
					if v := m.add(math.MaxUint32, now); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("tau %v: tracker Add at %d returned %v", tau, now, v)
					}
				}
				sane(t, f, fmt.Sprintf("tau %v after %d, %d", tau, a, b), keys, stamps)
			}
		}
		hostileAhead(t, tau, stamps, keys)
	}
}

// hostileAhead: the same stamps, every ordered pair in turn, through the
// ahead-of-time pass — Base.Ahead over runs offered in chunks of 1, 7 and
// all of them, then Enter and the scaled adds — leave a hashed filter, a
// direct-addressed one and a tracker on one Base bit for bit as the
// per-instant Adds leave theirs, landmark, memo and returned estimates
// included: a run is cut where a stamp rolls the landmark over (or finds
// none) and nowhere else, and no factor outlives its landmark.
func hostileAhead(t *testing.T, tau time.Duration, stamps []int64, keys []uint64) {
	t.Helper()
	var seq []int64
	for _, a := range stamps {
		for _, b := range stamps {
			seq = append(seq, a, b)
		}
	}
	type set struct {
		base   *Base
		hashed *Filter
		direct *Filter
		total  *MassTracker
		est    []float64
	}
	mk := func() *set {
		b := NewBase(Exponential{Tau: tau})
		cfg := Config{Cells: 8, Hashes: 3, Seed: 9}
		return &set{base: b, hashed: b.NewFilter(cfg), direct: b.NewLevel(cfg, 62, 2), total: b.NewMassTracker()}
	}
	ref := mk()
	for i, now := range seq {
		key := keys[i%len(keys)]
		ref.est = append(ref.est, ref.total.add(math.MaxUint32, now), ref.hashed.Add(key, math.MaxUint32, now), ref.direct.Add(key, math.MaxUint32, now))
	}
	if !ref.direct.Direct() || ref.direct.Cells() != 4 {
		t.Fatalf("NewLevel(8 cells, 2 bits): direct %v, %d cells", ref.direct.Direct(), ref.direct.Cells())
	}
	for _, chunk := range []int{1, 7, len(seq)} {
		got := mk()
		for i := 0; i < len(seq); {
			ups := got.base.Ahead(seq[i:min(i+chunk, len(seq))])
			if len(ups) == 0 {
				t.Fatalf("tau %v: Ahead resolved nothing at %d", tau, i)
			}
			for _, up := range ups {
				down := got.base.Enter(seq[i], up)
				key, w := keys[i%len(keys)], math.MaxUint32*up
				got.est = append(got.est, got.total.AddScaled(w)*down, got.hashed.AddScaled(key, w)*down, got.direct.AddScaled(key, w)*down)
				if e := got.direct.Estimate(key, seq[i]); e != got.est[len(got.est)-1] {
					t.Fatalf("tau %v, chunk %d: Estimate at the entered instant %v, the add returned %v", tau, chunk, e, got.est[len(got.est)-1])
				}
				i++
			}
		}
		same := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}
		if got.base.land != ref.base.land || got.base.now != ref.base.now || got.base.up != ref.base.up ||
			!same(got.hashed.masses(), ref.hashed.masses()) || !same(got.direct.masses(), ref.direct.masses()) ||
			!same(got.total.v[:], ref.total.v[:]) || !same(got.est, ref.est) || got.hashed.adds != ref.hashed.adds {
			t.Fatalf("tau %v: runs offered in chunks of %d leave another state than per-instant adds", tau, chunk)
		}
		sane(t, got.direct, fmt.Sprintf("tau %v direct", tau), keys, stamps)
	}
}

// TestMergeAcrossIdleGap: a shard that went idle keeps a landmark hundreds
// of time constants behind its peers'. Merging it, in either direction,
// stays finite, leaves the source untouched, and gives the estimates of
// the busy side alone (the idle mass has decayed to nothing).
func TestMergeAcrossIdleGap(t *testing.T) {
	cfg := Config{Cells: 64, Hashes: 3, Seed: 6, Decay: Exponential{Tau: time.Second}}
	mk := func(at int64) *Filter {
		f := New(cfg)
		for key := uint64(0); key < 40; key++ {
			f.Add(key, 1e9, at+int64(key))
		}
		return f
	}
	late := int64(800 * time.Second)
	keys := []uint64{0, 7, 39, 1000}
	for _, tc := range []struct {
		name     string
		dst, src *Filter
	}{
		{"idle-into-busy", mk(late), mk(0)},
		{"busy-into-idle", mk(0), mk(late)},
	} {
		want := mk(late)
		srcCells, srcLand := tc.src.masses(), tc.src.Landmark()
		tc.dst.Merge(tc.src)
		sane(t, tc.dst, tc.name, keys, []int64{0, late, late + int64(time.Hour)})
		if !slices.Equal(tc.src.masses(), srcCells) || tc.src.Landmark() != srcLand {
			t.Fatalf("%s: Merge modified its source", tc.name)
		}
		if tc.dst.Landmark() != want.Landmark() {
			t.Fatalf("%s: landmark %d, want the later one %d", tc.name, tc.dst.Landmark(), want.Landmark())
		}
		for _, key := range keys {
			if got, w := tc.dst.Estimate(key, late+40), want.Estimate(key, late+40); !near(got, w) {
				t.Fatalf("%s: Estimate(%d) = %v, busy side alone %v", tc.name, key, got, w)
			}
		}
	}
}

// TestOccupancyFollowsLiveKeys: a million keys seen once each fill the
// filter; two roll-overs later their cells are exactly zero again and only
// the one key still sending occupies any.
func TestOccupancyFollowsLiveKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("million-add run")
	}
	tau := time.Second
	f := New(Config{Cells: 1 << 16, Hashes: 4, Seed: 1, Decay: Exponential{Tau: tau}})
	now := int64(0)
	for key := uint64(0); key < 1_000_000; key++ {
		now += 1000
		f.Add(key, 1500, now)
	}
	if occ := f.Occupied(); occ < f.Cells()*9/10 {
		t.Fatalf("one-shot keys occupy %d of %d cells: the test needs a full filter", occ, f.Cells())
	}
	rolls, land := 0, f.Landmark()
	for rolls < 2 {
		now += int64(tau)
		f.Add(42, 1500, now)
		if l := f.Landmark(); l != land {
			rolls, land = rolls+1, l
		}
	}
	if now > int64(3*rollAfter*tau) {
		t.Fatalf("two roll-overs took until %v", time.Duration(now))
	}
	if occ := f.Occupied(); occ*100 >= f.Cells() {
		t.Fatalf("%d of %d cells occupied two roll-overs after the one-shot keys stopped", occ, f.Cells())
	}
	if got, want := f.Estimate(42, now), 1500/(1-math.Exp(-1)); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("live key estimate %v, want %v", got, want)
	}
}

// TestSharedBase: filters and a tracker built on one Base decay together —
// one landmark, rolled over for all of them by whichever member is written
// first past the threshold — and each answers as it would alone.
func TestSharedBase(t *testing.T) {
	law := Exponential{Tau: 50 * time.Millisecond}
	base := NewBase(law)
	cfgs := []Config{{Cells: 256, Hashes: 3, Seed: 1, Decay: law}, {Cells: 100, Hashes: 4, Seed: 2, Decay: law}}
	var shared, solo []*Filter
	for _, cfg := range cfgs {
		shared, solo = append(shared, base.NewFilter(cfg)), append(solo, New(cfg))
	}
	total, soloTotal := base.NewMassTracker(), NewBase(law).NewMassTracker()
	rng := rand.New(rand.NewSource(2))
	now := int64(-3 * time.Second)
	for i := 0; i < 40000; i++ {
		now += int64(rng.Intn(int(500 * time.Microsecond))) // 10 s: three roll-overs
		key, w := uint64(rng.Intn(50)), float64(40+rng.Intn(1460))
		if got, want := total.add(w, now), soloTotal.add(w, now); !near(got, want) {
			t.Fatalf("add %d: shared tracker %v, solo %v", i, got, want)
		}
		// The second filter is written for one packet in three only, so its
		// roll-overs are always another member's doing.
		for j := range shared {
			if j == 0 || i%3 == 0 {
				if got, want := shared[j].Add(key, w, now), solo[j].Add(key, w, now); !near(got, want) {
					t.Fatalf("add %d: shared filter %d %v, solo %v", i, j, got, want)
				}
			}
			if shared[j].Landmark() != shared[0].Landmark() || total.State().Touch != shared[0].Landmark() {
				t.Fatalf("add %d: members disagree on the landmark", i)
			}
		}
	}
	if l := shared[0].Landmark(); l <= now-int64(rollAfter*law.Tau) || l == solo[1].Landmark() {
		t.Fatalf("landmark %d at %d: no roll-over, or none the sparse member did not do itself", l, now)
	}
}

// restoreCells restores f to st with cells, pairs of index and mass, through
// the writer Restore returns, closed on declared cells.
func restoreCells(f *Filter, st FilterState, declared int, cells ...any) error {
	w, err := f.Restore(st)
	for ; err == nil && len(cells) > 0; cells = cells[2:] {
		err = w.Set(cells[0].(int), cells[1].(float64))
	}
	if err == nil {
		err = w.Close(declared)
	}
	return err
}

// TestRestore: state read off a filter through its accessors and put back
// through Restore gives identical cells and landmark, and everything a
// hostile frame could declare is refused.
func TestRestore(t *testing.T) {
	cfg := Config{Cells: 128, Hashes: 3, Seed: 5, Decay: Exponential{Tau: time.Second}}
	src := New(cfg)
	for key := uint64(0); key < 30; key++ {
		src.Add(key, float64(100+key), int64(7*time.Second)+int64(key)*1e6)
	}
	state := func() FilterState {
		return FilterState{Seed: src.Seed(), Adds: src.Adds(), Landmark: src.Landmark()}
	}
	dst := New(cfg)
	if err := RestoreMasses(dst, state(), src.masses()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.masses(), src.masses()) || dst.Landmark() != src.Landmark() || dst.Adds() != src.Adds() {
		t.Fatal("restored filter differs from its source")
	}
	// Over a filter holding later state the masses are rescaled, as a
	// Merge into an empty filter at that landmark would.
	dst = New(cfg)
	dst.Add(1, 1, int64(9*time.Second))
	if err := RestoreMasses(dst, state(), src.masses()); err != nil {
		t.Fatal(err)
	}
	if dst.Landmark() != int64(9*time.Second) || !near(dst.Estimate(3, int64(10*time.Second)), src.Estimate(3, int64(10*time.Second))) {
		t.Fatalf("restore under a later landmark: landmark %d, estimate %v vs %v",
			dst.Landmark(), dst.Estimate(3, int64(10*time.Second)), src.Estimate(3, int64(10*time.Second)))
	}

	// Each case writes its cells and declares a count; the first is well
	// formed, so that what refuses the others is what each gets wrong.
	hostile := func(st FilterState, declared int, cells ...any) error {
		return restoreCells(New(cfg), st, declared, cells...)
	}
	if err := hostile(FilterState{Seed: 5}, 2, 4, 1.0, 127, 2.0); err != nil {
		t.Fatalf("a well-formed state: %v", err)
	}
	for name, err := range map[string]error{
		"seed":           hostile(FilterState{Seed: 6}, 0),
		"adds":           hostile(FilterState{Seed: 5, Adds: -1}, 0),
		"landmark":       hostile(FilterState{Seed: 5, Landmark: 1<<62 + 1}, 0),
		"index-range":    hostile(FilterState{Seed: 5}, 1, 128, 1.0),
		"index-negative": hostile(FilterState{Seed: 5}, 1, -1, 1.0),
		"index-order":    hostile(FilterState{Seed: 5}, 2, 4, 1.0, 4, 1.0),
		"nan":            hostile(FilterState{Seed: 5}, 1, 4, math.NaN()),
		"inf":            hostile(FilterState{Seed: 5}, 1, 4, math.Inf(1)),
		"negative":       hostile(FilterState{Seed: 5}, 1, 4, -1.0),
		"zero":           hostile(FilterState{Seed: 5}, 1, 4, 0.0),
		"no-landmark":    hostile(FilterState{Seed: 5, Landmark: NoLandmark}, 1, 4, 1.0),
		"count-short":    hostile(FilterState{Seed: 5}, 2, 4, 1.0),
		"count-over":     hostile(FilterState{Seed: 5}, 0, 4, 1.0),
	} {
		if err == nil {
			t.Errorf("%s: Restore accepted it", name)
		}
	}
	m := NewBase(cfg.Decay).NewMassTracker()
	for name, st := range map[string]MassState{
		"nan": {V: math.NaN()}, "negative": {V: -1}, "negative-zero": {V: math.Copysign(0, -1)},
		"inf": {V: math.Inf(1)}, "no-landmark": {V: 1, Touch: NoLandmark}, "landmark": {V: 1, Touch: -(1 << 62) - 1},
	} {
		if err := m.Restore(st); err == nil {
			t.Errorf("tracker %s: Restore accepted it", name)
		}
	}
	if err := m.Restore(MassState{V: 5, Touch: 3}); err != nil || m.State() != (MassState{V: 5, Touch: 3}) {
		t.Fatalf("tracker restore: %v, state %+v", err, m.State())
	}
}

// TestFilterFootprint: SizeBytes is what the line store's slices hold —
// the directory and the pool's capacity — and nothing else; a fresh filter
// holds no line; Reset keeps the capacity; and a filter with every line
// held, as a spoofed flood leaves it, costs at most 7 % more than a dense
// array of its cells with a bit per line, and the zero line (which only a
// filter of a few lines notices).
func TestFilterFootprint(t *testing.T) {
	law := Exponential{Tau: time.Second}
	for _, f := range []*Filter{
		New(Config{Decay: law}),
		New(Config{Cells: 100, Hashes: 3, Decay: law}),
		NewBase(law).NewLevel(Config{Cells: 1 << 10}, 8, 8),
	} {
		stored := func() int {
			return cap(f.dir)*int(unsafe.Sizeof(f.dir[0])) + cap(f.pool)*int(unsafe.Sizeof(f.pool[0]))
		}
		lines := (f.Cells() + LineCells - 1) / LineCells
		dense := lines*LineCells*8 + (lines+63)/64*8
		if slices.Max(f.dir) != 0 || len(f.pool) != 1 || f.SizeBytes() != stored() {
			t.Fatalf("%d cells fresh: %d pool lines, %d B, the slices hold %d", f.Cells(), len(f.pool), f.SizeBytes(), stored())
		}
		fresh := f.SizeBytes()
		for i := 0; i < f.Cells(); i += LineCells {
			f.add(uint64(i), 1)
		}
		full := f.SizeBytes()
		if len(f.pool) != lines+1 || full != stored() || full*100 > dense*107+LineCells*8*100 {
			t.Fatalf("%d cells, every line held: %d pool lines, %d B, the slices hold %d, dense %d", f.Cells(), len(f.pool), full, stored(), dense)
		}
		f.Reset()
		if f.SizeBytes() != full || len(f.pool) != 1 {
			t.Fatalf("%d cells: Reset left %d B of %d, %d pool lines", f.Cells(), f.SizeBytes(), full, len(f.pool))
		}
		t.Logf("%6d cells: fresh %6d B, every line held %6d B (%.3f of dense %6d B)", f.Cells(), fresh, full, float64(full)/float64(dense), dense)
	}
}
