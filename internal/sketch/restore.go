package sketch

import (
	"fmt"
	"math"
)

// Restore replaces s's contents in place, allocating only to grow s to n
// entries, with serialized state: the summarised stream's total weight and
// n monitored entries, entry(i) yielding the i-th. The entries are
// installed in the canonical post-Merge layout (hot zone, stamps
// descending in entry order), so a restored summary is merge- and
// query-equivalent to the one that was serialized — Estimate, ErrorBound,
// Merge and the query paths behave identically — and Ordered when the
// entries' counts arrive non-increasing. It validates instead of
// panicking: entry counts and error bounds must be non-negative with err
// <= count <= total (true of every honest summary, merged ones included; a
// merge relies on it to keep its sums from wrapping), keys must be unique,
// and at most Capacity entries may be supplied. On error s is left empty.
func (s *SpaceSaving) Restore(total int64, n int, entry func(i int) KV) error {
	s.Reset()
	if n < 0 || n > s.k {
		return fmt.Errorf("sketch: restore: %d entries exceed capacity %d", n, s.k)
	}
	if total < 0 {
		return fmt.Errorf("sketch: restore: negative total %d", total)
	}
	s.grow(n)
	ordered, prev := true, int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		e := entry(i)
		if e.Count < 0 || e.ErrUB < 0 || e.ErrUB > e.Count || e.Count > total {
			s.Reset()
			return fmt.Errorf("sketch: restore: entry %d has invalid bounds (count=%d, err=%d, total=%d)", i, e.Count, e.ErrUB, total)
		}
		if !s.install(i, n, e) {
			s.Reset()
			return fmt.Errorf("sketch: restore: duplicate key %#x", e.Key)
		}
		ordered, prev = ordered && e.Count <= prev, e.Count
	}
	s.total = total
	s.clock = int64(n)
	s.ordered = ordered
	return nil
}
