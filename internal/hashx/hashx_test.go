package hashx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijection(t *testing.T) {
	// A bijection never collides; spot-check determinism and non-identity.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %x", prev, i, h)
		}
		seen[h] = i
	}
	if Mix64(1) == 1 {
		t.Error("Mix64(1) should not be identity")
	}
	if Mix64(42) != Mix64(42) {
		t.Error("Mix64 must be deterministic")
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 1000
	var totalFlips, totalBits int
	for i := uint64(0); i < trials; i++ {
		x := Mix64(i * 0x2545f4914f6cdd1d) // arbitrary spread of inputs
		for bit := 0; bit < 64; bit += 7 {
			d := Mix64(x) ^ Mix64(x^(1<<bit))
			totalFlips += popcount(d)
			totalBits += 64
		}
	}
	ratio := float64(totalFlips) / float64(totalBits)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("avalanche ratio = %.4f, want ~0.5", ratio)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// seeded hashes x under seed the way the sketches do.
func seeded(x, seed uint64) uint64 { return Mix64(x ^ Premix(seed)) }

func TestSeededIndependence(t *testing.T) {
	// Different seeds must produce different functions even on equal input.
	if seeded(7, 1) == seeded(7, 2) {
		t.Error("different seeds collided on same input")
	}
	// Adjacent seeds should still decorrelate.
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if seeded(x, 0)>>63 == seeded(x, 1)>>63 {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Errorf("adjacent-seed top-bit agreement %d/1000, want ~500", same)
	}
}

func TestIndices2(t *testing.T) {
	h1a, h2a := Probes2(12345, Premix(1))
	h1b, h2b := Probes2(12345, Premix(1))
	if h1a != h1b || h2a != h2b {
		t.Error("Probes2 must be deterministic")
	}
	if h2a%2 == 0 {
		t.Error("h2 must be odd")
	}
	c1, c2 := Probes2(12345, Premix(2))
	if h1a == c1 && h2a == c2 {
		t.Error("different seeds should change Probes2")
	}
}

func TestBucketRange(t *testing.T) {
	f := func(h uint64, m int) bool {
		if m <= 0 {
			m = 1
		}
		m = m%100000 + 1
		b := Bucket(h, m)
		return b >= 0 && b < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMix64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Mix64(uint64(i))
	}
	_ = acc
}
