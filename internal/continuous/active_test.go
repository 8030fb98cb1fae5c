package continuous

import (
	"math/rand"
	"testing"

	"hiddenhhh/internal/addr"
)

// TestActiveSetIndex checks the index against brute force on the 17-level
// nibble lattice, at sizes on both sides of a table growth: after fix
// every member is found and nothing else is, nodes are sorted with the
// earliest activation kept for a duplicate, every parent link is the
// nearest active strict ancestor, and the child lists partition the
// members by parent in ascending order.
func TestActiveSetIndex(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Nibble)
	masks := make([]uint64, h.Levels())
	for l := range masks {
		masks[l] = h.KeyMask(l)
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 5, 16, 17, 200} {
		s := newActiveSet(masks)
		type member struct {
			level int
			key   uint64
		}
		want := map[member]int64{}
		for len(want) < size {
			l := rng.Intn(len(masks))
			// A narrow address range, so that prefixes nest.
			key := h.Key(addr.From4(10, byte(rng.Intn(2)), byte(rng.Intn(4)), byte(rng.Intn(64))), 0) & masks[l]
			at := int64(rng.Intn(1000))
			if old, dup := want[member{l, key}]; !dup || at < old {
				want[member{l, key}] = at
			}
			s.add(l, key, at) // duplicates included
		}
		s.fix()
		if len(s.nodes) != len(want) {
			t.Fatalf("size %d: %d nodes for %d distinct members", size, len(s.nodes), len(want))
		}
		listed := 0
		for i, n := range s.nodes {
			if at, ok := want[member{int(n.level), n.key}]; !ok || at != n.at {
				t.Fatalf("size %d: node %+v, want activation %d (member: %v)", size, n, at, ok)
			}
			if i > 0 {
				if p := s.nodes[i-1]; p.level > n.level || (p.level == n.level && p.key >= n.key) {
					t.Fatalf("size %d: nodes %d, %d out of order", size, i-1, i)
				}
			}
			if got := s.find(int(n.level), n.key); got != int32(i) {
				t.Fatalf("size %d: find(%d, %#x) = %d, want %d", size, n.level, n.key, got, i)
			}
			parent := int32(-1)
			for l := int(n.level) + 1; l < len(masks) && parent < 0; l++ {
				for j, m := range s.nodes {
					if int(m.level) == l && m.key == n.key&masks[l] {
						parent = int32(j)
					}
				}
			}
			if n.parent != parent {
				t.Fatalf("size %d: node %d parent %d, nearest active ancestor %d", size, i, n.parent, parent)
			}
			prev := int32(-1)
			for c := s.head(int32(i)); c >= 0; c = s.nodes[c].sibling {
				if s.nodes[c].parent != int32(i) || c <= prev {
					t.Fatalf("size %d: child list of %d holds %d (parent %d) after %d", size, i, c, s.nodes[c].parent, prev)
				}
				prev = c
				listed++
			}
		}
		for c := s.head(-1); c >= 0; c = s.nodes[c].sibling {
			if s.nodes[c].parent != -1 {
				t.Fatalf("size %d: parentless list holds %d (parent %d)", size, c, s.nodes[c].parent)
			}
			listed++
		}
		if listed != len(s.nodes) {
			t.Fatalf("size %d: child lists hold %d of %d nodes", size, listed, len(s.nodes))
		}
		for i := 0; i < 1000; i++ {
			l := rng.Intn(len(masks))
			key := rng.Uint64() & masks[l]
			if _, ok := want[member{l, key}]; !ok && s.find(l, key) >= 0 {
				t.Fatalf("size %d: find(%d, %#x) hit a non-member", size, l, key)
			}
		}
		s.reset()
		if len(s.nodes) != 0 || s.head(-1) >= 0 || s.find(0, 0) >= 0 {
			t.Fatalf("size %d: reset left members behind", size)
		}
	}
}
