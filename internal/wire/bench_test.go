package wire

import (
	"testing"
)

// BenchmarkWireEncodeDecode measures one full seal/restore cycle per
// summary kind — the codec cost an ingest node pays per sealed window
// plus the aggregator's per-frame restore cost. Both run at window (or
// push-cadence) frequency, orders of magnitude below packet rate, so
// these numbers bound cluster overhead rather than hot-path overhead.
func BenchmarkWireEncodeDecode(b *testing.B) {
	b.Run("space-saving", func(b *testing.B) {
		s := testSpaceSaving(1, 300)
		frame := EncodeSpaceSaving(s)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodeSpaceSaving(s)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		h := testHierarchy()
		e := testExact(2, 300)
		frame := EncodeExact(h, e)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodeExact(h, e)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-level", func(b *testing.B) {
		p := testPerLevel(3)
		frame := EncodePerLevel(p)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodePerLevel(p)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rhhh", func(b *testing.B) {
		d := testRHHH(4)
		frame := EncodePerLevel(d)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodePerLevel(d)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sliding", func(b *testing.B) {
		d := testSliding(5)
		frame := EncodeSliding(d)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodeSliding(d)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memento", func(b *testing.B) {
		d := testMemento(6)
		frame := EncodeMemento(d)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodeMemento(d)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tdbf", func(b *testing.B) {
		f := testFilter(7)
		b.SetBytes(int64(len(EncodeFilter(f))))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(EncodeFilter(f)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("continuous", func(b *testing.B) {
		d := testContinuous(b, 8)
		frame := EncodeContinuous(d)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame := EncodeContinuous(d)
			if _, err := Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
