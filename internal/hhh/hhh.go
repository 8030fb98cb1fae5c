// Package hhh implements one-dimensional hierarchical heavy hitter (HHH)
// detection over source prefixes of a configurable hierarchy — IPv4 or
// IPv6, any uniform granularity (see internal/addr.Hierarchy). The IPv4
// byte ladder is the setting of the paper's experiments; the IPv6
// lattices are the tall-hierarchy stress case RHHH targets.
//
// Definitions follow the discounted semantics of Cormode et al.: given a
// byte threshold T, a leaf prefix is an HHH when its volume reaches T; an
// interior prefix is an HHH when its *conditioned* volume — total volume of
// its subtree minus the volume already claimed by descendant HHHs — reaches
// T. The package provides:
//
//   - Exact offline computation from a per-leaf byte counter (the ground
//     truth used by the hidden-HHH and window-sensitivity analyses).
//   - A streaming per-level Space-Saving engine (the approach programmable
//     data-plane HHH systems use), and its level-sampled setting, RHHH
//     (Ben Basat et al.), which updates one drawn level per packet.
//   - HHH set algebra (union, difference, Jaccard similarity), the basis of
//     the paper's metrics.
//
// The streaming engines take packed key batches only (UpdateKeys over a
// trace.KeyBatch): the hierarchy's address-family filter (see
// addr.Hierarchy.Match) and the address → leaf key packing run once, where
// packets are staged, so a dual-stack packet stream can be fed to a
// detector per family without pre-splitting.
package hhh

import (
	"fmt"
	"sort"
	"strings"

	"hiddenhhh/internal/addr"
)

// Item is one reported hierarchical heavy hitter.
type Item struct {
	// Prefix is the reported lattice prefix.
	Prefix addr.Prefix
	// Count is the (estimated) total byte volume of the prefix's subtree.
	Count int64
	// Conditioned is the (estimated) volume not claimed by descendant
	// HHHs; the quantity compared against the threshold.
	Conditioned int64
}

// String renders the item for reports.
func (it Item) String() string {
	return fmt.Sprintf("%v total=%d cond=%d", it.Prefix, it.Count, it.Conditioned)
}

// Set is a collection of HHHs keyed by prefix. The zero value is an empty
// set; mutate through Add.
type Set map[addr.Prefix]Item

// NewSet builds a set from items.
func NewSet(items ...Item) Set {
	s := make(Set, len(items))
	for _, it := range items {
		s.Add(it)
	}
	return s
}

// Add inserts or replaces the item for its prefix.
func (s Set) Add(it Item) { s[it.Prefix] = it }

// Contains reports membership of the prefix.
func (s Set) Contains(p addr.Prefix) bool {
	_, ok := s[p]
	return ok
}

// Len returns the set cardinality.
func (s Set) Len() int { return len(s) }

// Prefixes returns the member prefixes sorted by (Bits, Addr).
func (s Set) Prefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Items returns the members sorted by (Bits, Addr).
func (s Set) Items() []Item {
	out := make([]Item, 0, len(s))
	for _, it := range s {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// UnionInPlace adds all members of t to s, keeping existing entries.
func (s Set) UnionInPlace(t Set) {
	for p, it := range t {
		if _, ok := s[p]; !ok {
			s[p] = it
		}
	}
}

// Diff returns the members of s not present in t.
func (s Set) Diff(t Set) Set {
	out := Set{}
	for p, it := range s {
		if !t.Contains(p) {
			out[p] = it
		}
	}
	return out
}

// Intersect returns the members present in both sets (items from s).
func (s Set) Intersect(t Set) Set {
	out := Set{}
	for p, it := range s {
		if t.Contains(p) {
			out[p] = it
		}
	}
	return out
}

// Equal reports whether both sets contain exactly the same prefixes.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for p := range s {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Jaccard returns |s∩t| / |s∪t|, the similarity coefficient Figure 3 of
// the paper reports. Two empty sets are defined as identical (1.0).
func (s Set) Jaccard(t Set) float64 {
	if len(s) == 0 && len(t) == 0 {
		return 1
	}
	inter := 0
	for p := range s {
		if t.Contains(p) {
			inter++
		}
	}
	union := len(s) + len(t) - inter
	return float64(inter) / float64(union)
}

// String renders the sorted prefixes, for diagnostics.
func (s Set) String() string {
	ps := s.Prefixes()
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Threshold computes the byte threshold T = phi * totalBytes, truncated
// toward zero and floored at 1 byte. Every detector and experiment in
// the repository derives its threshold through this function, so the
// rounding convention is uniform: a prefix qualifies when its volume is
// >= T, which admits volumes at exactly phi·N and — when phi·N is
// fractional — the bytes just below it (T = ⌊phi·N⌋). The floor at 1
// keeps zero-volume prefixes out of every report, including at N = 0.
// Note the product is evaluated in float64: a mathematically integral
// phi·N can land just below its integer (e.g. 0.29 × 100 → 28.999…,
// T = 28); the boundary table test pins the exact behaviour. phi must
// be in (0,1].
func Threshold(totalBytes int64, phi float64) int64 {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("hhh: threshold fraction %v out of (0,1]", phi))
	}
	t := int64(phi * float64(totalBytes))
	if t < 1 {
		t = 1
	}
	return t
}
