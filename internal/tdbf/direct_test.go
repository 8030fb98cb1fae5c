package tdbf

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestDirectLevel: a level whose key space fits is one cell per key — the
// estimate of every key is its closed-form decayed mass Σ w·e^(−(now−t)/τ)
// with no collision allowance (near: float rounding and the flush floor),
// across a roll-over and a merge of two halves — and a level one key too
// large is the hashed filter, which never falls below it.
func TestDirectLevel(t *testing.T) {
	law := Exponential{Tau: 50 * time.Millisecond}
	cfg := Config{Cells: 256, Hashes: 3, Seed: 4, Decay: law}
	const shift, fixed = 24, uint64(0xffff) << 32
	mk := func(bits uint) *Filter { return NewBase(law).NewLevel(cfg, shift, bits) }
	if f := mk(9); f.Direct() || f.Cells() != 256 || f.Hashes() != 3 {
		t.Fatalf("512 keys in 256 cells: direct %v, %d cells, %d hashes", f.Direct(), f.Cells(), f.Hashes())
	}
	if f := mk(0); !f.Direct() || f.Cells() != 1 || f.SizeBytes() != 4+8*8 { // a directory entry and the zero line
		t.Fatalf("one key: direct %v, %d cells, %d B", f.Direct(), f.Cells(), f.SizeBytes())
	}
	type add struct {
		key uint64
		w   float64
		at  int64
	}
	rng := rand.New(rand.NewSource(2))
	var adds []add
	now := int64(1_700_000_000_000_000_000)
	for i := 0; i < 4000; i++ {
		now += int64(rng.Intn(int(2 * time.Millisecond)))
		if i == 2000 {
			now += int64(70 * law.Tau) // a pause longer than a landmark epoch
		}
		adds = append(adds, add{fixed | uint64(rng.Intn(256))<<shift, float64(40 + rng.Intn(1460)), now})
	}
	halves := [2]*Filter{mk(8), mk(8)}
	hashed := [2]*Filter{mk(9), mk(9)}
	for i, a := range adds {
		halves[i&1].Add(a.key, a.w, a.at)
		hashed[i&1].Add(a.key, a.w, a.at)
	}
	land := halves[0].Landmark()
	halves[0].Merge(halves[1])
	hashed[0].Merge(hashed[1])
	if !halves[0].Direct() || halves[0].Cells() != 256 || halves[0].Hashes() != 1 || land == adds[0].at {
		t.Fatalf("direct %v, %d cells; landmark %d never rolled over", halves[0].Direct(), halves[0].Cells(), land)
	}
	live := 0
	for k := uint64(0); k < 256; k++ {
		key, want := fixed|k<<shift, 0.0
		for _, a := range adds {
			if a.key == key {
				want += a.w * math.Exp(-float64(now-a.at)/float64(law.Tau))
			}
		}
		if got := halves[0].Estimate(key, now); !near(got, want) {
			t.Fatalf("key %d: direct estimate %v, closed form %v", k, got, want)
		}
		if got := hashed[0].Estimate(key, now); got < want*(1-1e-9)-2*flushFloor {
			t.Fatalf("key %d: hashed estimate %v under the closed form %v", k, got, want)
		}
		if want > 0 {
			live++
		}
	}
	if live < 100 {
		t.Fatalf("%d keys alive at the end: the comparison proves little", live)
	}

	// Shape is part of merge compatibility, and a restore stays inside the
	// level's own cells.
	for name, o := range map[string]*Filter{
		"hashed of as many cells": NewBase(law).NewFilter(Config{Cells: 256, Hashes: 1, Seed: 4}),
		"another shift":           NewBase(law).NewLevel(cfg, shift-8, 8),
		"another key space":       mk(7),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Merge with a %s filter did not panic", name)
				}
			}()
			mk(8).Merge(o)
		}()
	}
	if err := restoreCells(mk(8), FilterState{Seed: 4, Landmark: 5}, 1, 256, 1.0); err == nil {
		t.Error("Restore accepted an index past a direct level's cells")
	}
	if err := restoreCells(mk(0), FilterState{Seed: 4, Landmark: 5}, 1, 1, 1.0); err == nil {
		t.Error("Restore accepted a second cell in a one-key level")
	}
	if err := restoreCells(mk(8), FilterState{Seed: 5, Landmark: 5}, 1, 3, 1.0); err == nil {
		t.Error("Restore accepted another seed")
	}
}

// TestRestoreHashed: a direct level restored from the state of the hashed
// filter that used to stand at its level answers every key of the level —
// absent ones included — exactly as that filter did, under its own
// landmark or a later one; a foreign seed and invalid cells are refused.
func TestRestoreHashed(t *testing.T) {
	law := Exponential{Tau: time.Second}
	cfg := Config{Cells: 64, Hashes: 3, Seed: 8, Decay: law}
	const shift, fixed = 8, uint64(1) << 40
	old := New(cfg)
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 500; i++ {
		now += int64(rng.Intn(int(3 * time.Millisecond)))
		old.Add(fixed|uint64(rng.Intn(24))<<shift, float64(1+rng.Intn(9)), now)
	}
	// hashed is old's state restored, through the cell writer, into a new
	// hashed filter of its shape and the seed given.
	hashed := func(seed uint64) *Filter {
		c := cfg
		c.Seed = seed
		src := New(c)
		if err := RestoreMasses(src, FilterState{Seed: seed, Adds: old.Adds(), Landmark: old.Landmark()}, old.masses()); err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, later := range []bool{false, true} {
		base := NewBase(law)
		f := base.NewLevel(cfg, shift, 5)
		if later {
			f.Add(fixed, 1, now+int64(time.Second)) // the receiver's landmark is the later one
		}
		if err := f.RestoreHashed(hashed(cfg.Seed), fixed); err != nil {
			t.Fatal(err)
		}
		collided := 0
		for k := uint64(0); k < 32; k++ {
			key, at := fixed|k<<shift, now+int64(2*time.Second)
			got, want := f.Estimate(key, at), old.Estimate(key, at)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("later=%v key %d: converted estimate %v, the hashed filter's %v", later, k, got, want)
			}
			if k >= 24 && want > 0 {
				collided++
			}
		}
		if f.Adds() != old.Adds() || !f.Direct() || (later && f.Landmark() == old.Landmark()) {
			t.Fatalf("later=%v: adds %d, landmark %d", later, f.Adds(), f.Landmark())
		}
		if collided == 0 {
			t.Fatal("no absent key collides in all its cells: the minimum goes unexercised")
		}
	}
	f := NewBase(law).NewLevel(cfg, shift, 5)
	if err := f.RestoreHashed(hashed(cfg.Seed+1), fixed); err == nil {
		t.Error("RestoreHashed accepted another seed")
	}
	if err := restoreCells(New(cfg), FilterState{Seed: cfg.Seed, Landmark: old.Landmark()}, 1, 64, 1.0); err == nil {
		t.Error("the hashed filter's restore accepted a cell past its cells")
	}
}

// TestEnter: the pair Enter installs is the pair every member reads and
// writes with at that instant — whatever it is — and at no other.
func TestEnter(t *testing.T) {
	base := NewBase(Exponential{Tau: time.Second})
	f, m := base.NewLevel(Config{Cells: 4}, 0, 2), base.NewMassTracker()
	at := int64(5 * time.Second)
	f.Add(1, 8, at)
	m.add(8, at)
	if down := base.Enter(at+1, 4); down != 0.25 || f.Estimate(1, at+1) != 2 || m.Value(at+1) != 2 {
		t.Fatalf("at the entered instant: down %v, estimate %v, mass %v", down, f.Estimate(1, at+1), m.Value(at+1))
	}
	if got, want := f.Estimate(1, at+2), 8*math.Exp(-2e-9); got != want {
		t.Fatalf("one instant on: estimate %v, want %v", got, want)
	}
}
