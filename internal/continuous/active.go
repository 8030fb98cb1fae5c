package continuous

import (
	"cmp"
	"slices"
	"unsafe"
)

// node is one active prefix, stored as its level and packed level key
// (leaf key & masks[level]) and linked into the forest that the "nearest
// active strict ancestor" relation makes of the active set.
type node struct {
	key     uint64
	at      int64 // activation timestamp
	level   int32
	parent  int32 // nearest active strict ancestor; -1: none
	child   int32 // first node whose parent is this one; -1: none
	sibling int32 // next node with the same parent; -1: none
}

// activeSet is the detector's set of active prefixes, indexed for the
// two questions the per-packet body asks — "is (level, key) active?" in
// O(1), and "which active prefixes sit directly under this one?" as a
// list walk — without building an addr.Prefix.
//
// nodes is kept sorted by (level, key): a leaf-to-root pass over the
// whole set is then a plain range, and sums over it are taken in one
// canonical order whatever the order members arrived in. Membership
// changes only on an admission, an exit, a Merge or a Restore, all rare
// next to packets, so a change re-sorts and re-links everything (fix)
// instead of patching links in place. fix invalidates node indices.
type activeSet struct {
	nodes []node
	slots []int32 // open addressing on (level, key): index into nodes + 1, 0 = empty
	shift uint8   // 64 - log2(len(slots))
	top   int32   // first node without a parent; -1: none
	masks []uint64
}

func newActiveSet(masks []uint64) activeSet {
	s := activeSet{masks: masks, top: -1}
	s.resize(64)
	return s
}

func (s *activeSet) resize(slots int) {
	s.slots = make([]int32, slots)
	s.shift = 64
	for n := slots; n > 1; n >>= 1 {
		s.shift--
	}
}

// slot is the home slot of (level, key). Level keys of one level differ
// in their high bits only, which a multiplicative hash read from the top
// spreads well.
func (s *activeSet) slot(level int, key uint64) int {
	return int((key + uint64(level)) * 0x9e3779b97f4a7c15 >> s.shift)
}

// find returns the index of the node for (level, key), or -1.
func (s *activeSet) find(level int, key uint64) int32 {
	for i := s.slot(level, key); ; i = (i + 1) & (len(s.slots) - 1) {
		j := s.slots[i] - 1
		if j < 0 {
			return -1
		}
		if n := &s.nodes[j]; n.key == key && int(n.level) == level {
			return j
		}
	}
}

// head returns the first node whose parent is p (the parentless list for
// p < 0); follow sibling from there.
func (s *activeSet) head(p int32) int32 {
	if p < 0 {
		return s.top
	}
	return s.nodes[p].child
}

// add appends a member. The set is not usable again until fix has run.
func (s *activeSet) add(level int, key uint64, at int64) {
	s.nodes = append(s.nodes, node{key: key, at: at, level: int32(level)})
}

// fix restores the invariants after nodes was appended to or compacted:
// sorted by (level, key), one node per prefix (the earliest activation
// wins), every node findable, every link current.
func (s *activeSet) fix() {
	slices.SortFunc(s.nodes, func(a, b node) int {
		return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at))
	})
	s.nodes = slices.CompactFunc(s.nodes, func(a, b node) bool {
		return a.level == b.level && a.key == b.key
	})
	want := len(s.slots)
	for 4*len(s.nodes) > want {
		want *= 2
	}
	if want != len(s.slots) {
		s.resize(want)
	} else {
		clear(s.slots)
	}
	for j := range s.nodes {
		n := &s.nodes[j]
		n.child = -1
		i := s.slot(int(n.level), n.key)
		for s.slots[i] != 0 {
			i = (i + 1) & (len(s.slots) - 1)
		}
		s.slots[i] = int32(j) + 1
	}
	// Root to leaf, each node pushing itself onto the front of its
	// parent's list, leaves every list in ascending (level, key) order.
	s.top = -1
	for j := len(s.nodes) - 1; j >= 0; j-- {
		n := &s.nodes[j]
		n.parent = -1
		for l := int(n.level) + 1; l < len(s.masks) && n.parent < 0; l++ {
			n.parent = s.find(l, n.key&s.masks[l])
		}
		if n.parent < 0 {
			n.sibling, s.top = s.top, int32(j)
		} else {
			p := &s.nodes[n.parent]
			n.sibling, p.child = p.child, int32(j)
		}
	}
}

// reset empties the set, keeping its storage.
func (s *activeSet) reset() {
	s.nodes = s.nodes[:0]
	clear(s.slots)
	s.top = -1
}

// sizeBytes is the footprint of the members and their index.
func (s *activeSet) sizeBytes() int {
	return len(s.nodes)*int(unsafe.Sizeof(node{})) + len(s.slots)*4
}
