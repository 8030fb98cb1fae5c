package hhh

import (
	"math/rand"
	"testing"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// BenchmarkPerLevelEngineQuery measures the conditioned bottom-up query
// of a warmed detector-sized per-level engine — the cost paid at every
// window close, and where per-query map and Tracked-slice churn was
// replaced by reusable scratch tables.
func BenchmarkPerLevelEngineQuery(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	eng := NewPerLevel(h, 512)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	kb := trace.NewKeyBatch(300000)
	for i := 0; i < 300000; i++ {
		a := addr.From4Uint32(uint32(z.Uint64()) * 2654435761)
		kb.Append(h.Key(a, 0), uint32(40+rng.Intn(1460)), 0)
	}
	eng.UpdateKeys(kb)
	T := Threshold(eng.Total(), 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := eng.Query(T); s.Len() == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkPerLevelEngineUpdate measures the engine's ingest (a
// Zipf-skewed stream in 256-packet key batches, ns/op = ns/packet)
// against a detector-sized summary.
func BenchmarkPerLevelEngineUpdate(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	eng := NewPerLevel(h, 512)
	rng := rand.New(rand.NewSource(2))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	batches := make([]*trace.KeyBatch, 256)
	for i := range batches {
		batches[i] = trace.NewKeyBatch(256)
		for j := 0; j < 256; j++ {
			a := addr.From4Uint32(uint32(z.Uint64()) * 2654435761)
			batches[i].Append(h.Key(a, 0), uint32(40+rng.Intn(1460)), 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		eng.UpdateKeys(batches[i/256%len(batches)])
	}
}
