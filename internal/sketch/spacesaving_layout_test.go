package sketch

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// sliceBytes is Σ len × element size over the slice fields of the struct
// p points to: what a SizeBytes must report, found by reflection so that a
// slice added to the struct and left out of its SizeBytes shows.
func sliceBytes(p any) int {
	v, n := reflect.ValueOf(p).Elem(), 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Len() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestSpaceSavingFootprint holds SizeBytes to the storage the table holds
// through its life — fresh, filling, evicting, reset, the result of a
// MergeAll and of a Restore — and pins the layout: 40-byte entries, 8-byte
// index slots, and count buckets that only a rebuild (an eviction)
// allocates. Storage is sized by the entries: a fresh table holds a
// 4-slot index and no entries, entry storage doubles from minEntries as
// entries arrive, up to k, the index stays twice its size, and a Reset
// gives nothing back. The merged and the restored table, like every table
// the merge accumulators and the Aggregator hold, hold storage for their
// entries and no buckets.
func TestSpaceSavingFootprint(t *testing.T) {
	if n, sl := unsafe.Sizeof(ssNode{}), unsafe.Sizeof(ssSlot{}); n != 40 || sl != 8 {
		t.Fatalf("an entry is %d B and an index slot %d B; want 40 and 8", n, sl)
	}
	check := func(stage string, s *SpaceSaving, entries int, ring bool) int {
		t.Helper()
		if got, want := s.SizeBytes(), sliceBytes(s); got != want {
			t.Fatalf("%s: SizeBytes %d, the slices hold %d B", stage, got, want)
		}
		idx := 4
		for idx < 2*entries {
			idx *= 2
		}
		if len(s.nodes) != entries || len(s.tab) != idx {
			t.Fatalf("%s: storage for %d entries and %d index slots, want %d and %d", stage, len(s.nodes), len(s.tab), entries, idx)
		}
		if (s.slots != nil) != ring || (s.words != nil) != ring {
			t.Fatalf("%s: count buckets built %v, want %v", stage, s.slots != nil, ring)
		}
		return s.SizeBytes()
	}
	// step is the entry storage a table of capacity k holds for n entries.
	step := func(n, k int) int {
		size := 0
		if n > 0 {
			size = minEntries
		}
		for size < n {
			size *= 2
		}
		return min(size, k)
	}
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{512, 200} { // a power of two, and a capacity the doubling overshoots
		s := NewSpaceSaving(k)
		fresh := check("fresh", s, 0, false)
		var steps []int
		for i := 0; i < k; i++ {
			s.Update(rng.Uint64(), int64(40+rng.Intn(1460)))
			check("filling", s, step(s.Len(), k), false)
			if len(steps) == 0 || steps[len(steps)-1] != len(s.nodes) {
				steps = append(steps, len(s.nodes))
			}
		}
		filled := s.SizeBytes()
		for i := 0; i < 4*k; i++ {
			s.Update(rng.Uint64(), int64(40+rng.Intn(1460)))
		}
		evicting := check("evicting", s, k, true)
		if ring := int(unsafe.Sizeof(ssRingSlot{}))*ringSlots + ringSlots/8; evicting != filled+ring {
			t.Fatalf("k=%d: an evicting table is %d B; want %d filled + %d of buckets and bitmap", k, evicting, filled, ring)
		}
		s.Reset()
		if reset := check("reset", s, k, true); reset != evicting { // kept for the next window
			t.Fatalf("k=%d: Reset left %d B of %d", k, reset, evicting)
		}
		t.Logf("a %d-counter table: fresh %d B, filled %d B, evicting %d B; entry storage %v",
			k, fresh, filled, evicting, steps)
	}

	const k = 512
	src := NewSpaceSaving(k)
	for i := 0; i < 3*k; i++ {
		src.Update(uint64(rng.Intn(2*k)), int64(40+rng.Intn(1460)))
	}
	merged := NewSpaceSaving(k)
	merged.MergeAll([]*SpaceSaving{src, NewSpaceSaving(k)})
	if merged.Len() != k {
		t.Fatalf("the merge kept %d entries, want %d", merged.Len(), k)
	}
	check("merged", merged, k, false)
	restored := NewSpaceSaving(k)
	if err := restored.Restore(merged.Total(), merged.Len(), merged.Entry); err != nil {
		t.Fatal(err)
	}
	check("restored", restored, k, false)
	few := NewSpaceSaving(k)
	if err := few.Restore(merged.Total(), 100, merged.Entry); err != nil {
		t.Fatal(err)
	}
	check("restored 100", few, step(100, k), false)
	t.Logf("a %d-counter table: merged %d B, restored %d B, 100 entries restored %d B",
		k, merged.SizeBytes(), restored.SizeBytes(), few.SizeBytes())
}

// collidingPair returns two distinct keys with one 32-bit ssHash, found
// by a birthday search over random keys.
func collidingPair(t *testing.T) (a, b uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	seen := make(map[uint32]uint64, 1<<17)
	for i := 0; i < 1<<20; i++ {
		k := rng.Uint64()
		h := ssHash(k)
		if o, ok := seen[h]; ok && o != k {
			return o, k
		}
		seen[h] = k
	}
	t.Fatal("no 32-bit hash collision among 2^20 random keys")
	return 0, 0
}

// TestSpaceSavingFullHashCollision: an index slot holds a key's hash, not
// the key, so keys whose whole 32-bit hash is equal must be told apart by
// their nodes on every path — insert, hit, eviction with its backward
// shift, lookup and MergeAll (Restore: TestRestoreRefusesCollidingDuplicate).
// Updates are diffed against the heap reference, which keys a map by the
// key itself, eviction for eviction.
func TestSpaceSavingFullHashCollision(t *testing.T) {
	a, b := collidingPair(t)
	keys := []uint64{a, b, 1, 2, 3, 4, 5, 6}
	rng := rand.New(rand.NewSource(30))
	ss, or := NewSpaceSaving(4), NewHeapSpaceSaving(4)
	evicted := 0
	for i := 0; i < 20000; i++ {
		key := keys[rng.Intn(len(keys))]
		if _, ok := or.index[key]; !ok && or.Len() == or.k && (or.entries[0].key == a || or.entries[0].key == b) {
			evicted++ // one of the pair leaves; the other, if monitored, must stay findable
		}
		diffUpdate(t, "collision", ss, or, key, int64(1+rng.Intn(64)))
		if i%100 == 99 {
			requireIdentical(t, "collision", ss, or, keys)
		}
	}
	if evicted < 100 {
		t.Fatalf("the pair was evicted %d times: the stream does not exercise the backward shift", evicted)
	}

	// A merge sums each key's bounds apart from the other's.
	ss = NewSpaceSaving(4)
	ss.Update(a, 15)
	ss.Update(b, 20)
	o := NewSpaceSaving(4)
	o.Update(b, 7)
	o.Update(a, 1)
	ss.MergeAll([]*SpaceSaving{o})
	for key, want := range map[uint64]int64{a: 16, b: 27} {
		if c, ok := ss.Lookup(key); !ok || c != want {
			t.Fatalf("merged Lookup(%#x) = %d, %v; want %d", key, c, ok, want)
		}
	}
}
