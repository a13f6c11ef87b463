package sched

// Spare reports the capacity s holds beyond what it stores: ops, buffers
// and dependency-arena slots. All zero after a compile that reserved its
// exact counts with Grow.
func (s *Schedule) Spare() (ops, bufs, deps int) {
	return cap(s.Ops) - len(s.Ops), cap(s.Buffers) - len(s.Buffers), cap(s.deps) - len(s.deps)
}
