package recovery

import (
	"math/rand"
	"sync"
	"testing"
)

func spansEqual(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntervalSetAddMerges(t *testing.T) {
	s := &IntervalSet{}
	s.Add(10, 10) // [10,20)
	s.Add(30, 10) // [30,40)
	if got := s.Spans(); !spansEqual(got, []Interval{{10, 10}, {30, 10}}) {
		t.Fatalf("disjoint spans = %v", got)
	}
	s.Add(20, 10) // bridges exactly: [10,40)
	if got := s.Spans(); !spansEqual(got, []Interval{{10, 30}}) {
		t.Fatalf("bridged spans = %v", got)
	}
	s.Add(5, 100) // swallows everything
	if got := s.Spans(); !spansEqual(got, []Interval{{5, 100}}) {
		t.Fatalf("swallowed spans = %v", got)
	}
	if s.Total() != 100 {
		t.Fatalf("Total = %d, want 100", s.Total())
	}
}

func TestIntervalSetAddOverlaps(t *testing.T) {
	s := &IntervalSet{}
	s.Add(0, 10)
	s.Add(5, 10) // overlap → [0,15)
	if got := s.Spans(); !spansEqual(got, []Interval{{0, 15}}) {
		t.Fatalf("overlap spans = %v", got)
	}
	s.Add(0, 0)   // ignored
	s.Add(20, -5) // ignored
	if got := s.Spans(); !spansEqual(got, []Interval{{0, 15}}) {
		t.Fatalf("degenerate adds changed spans: %v", got)
	}
}

func TestIntervalSetContains(t *testing.T) {
	s := NewSet([]Interval{{10, 10}, {30, 10}})
	cases := []struct {
		off, n int64
		want   bool
	}{
		{10, 10, true},
		{12, 5, true},
		{10, 11, false}, // crosses the gap
		{25, 2, false},
		{30, 10, true},
		{39, 1, true},
		{39, 2, false},
		{0, 0, true}, // empty span always held
	}
	for _, c := range cases {
		if got := s.Contains(c.off, c.n); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestIntervalSetMissing(t *testing.T) {
	s := NewSet([]Interval{{10, 10}, {30, 10}})
	if got := s.Missing(50); !spansEqual(got, []Interval{{0, 10}, {20, 10}, {40, 10}}) {
		t.Fatalf("Missing(50) = %v", got)
	}
	if got := s.Missing(15); !spansEqual(got, []Interval{{0, 10}}) {
		t.Fatalf("Missing(15) = %v", got)
	}
	empty := &IntervalSet{}
	if got := empty.Missing(7); !spansEqual(got, []Interval{{0, 7}}) {
		t.Fatalf("empty Missing(7) = %v", got)
	}
	full := NewSet([]Interval{{0, 7}})
	if got := full.Missing(7); len(got) != 0 {
		t.Fatalf("full Missing(7) = %v", got)
	}
}

// TestIntervalSetRandomized cross-checks the interval set against a plain
// byte bitmap under random adds.
func TestIntervalSetRandomized(t *testing.T) {
	const size = 512
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		s := &IntervalSet{}
		ref := make([]bool, size)
		for i := 0; i < 20; i++ {
			off := rng.Int63n(size)
			n := rng.Int63n(size/4) + 1
			if off+n > size {
				n = size - off
			}
			s.Add(off, n)
			for k := off; k < off+n; k++ {
				ref[k] = true
			}
		}
		var total int64
		for _, b := range ref {
			if b {
				total++
			}
		}
		if s.Total() != total {
			t.Fatalf("trial %d: Total = %d, bitmap says %d (spans %v)", trial, s.Total(), total, s.Spans())
		}
		// Spans must be sorted, disjoint, non-adjacent.
		spans := s.Spans()
		for i := 1; i < len(spans); i++ {
			if spans[i].Off <= spans[i-1].End() {
				t.Fatalf("trial %d: uncoalesced spans %v", trial, spans)
			}
		}
		// Missing + held must tile [0, size).
		for _, iv := range s.Missing(size) {
			for k := iv.Off; k < iv.End(); k++ {
				if ref[k] {
					t.Fatalf("trial %d: offset %d reported missing but held", trial, k)
				}
			}
		}
	}
}

func TestChunkLedger(t *testing.T) {
	l := NewChunkLedger(100)
	if l.Size() != 100 || l.HeldBytes() != 0 {
		t.Fatalf("fresh ledger: size %d held %d", l.Size(), l.HeldBytes())
	}
	l.MarkHeld(0, 25)
	l.MarkHeld(50, 25)
	if !l.Holds(0, 25) || l.Holds(25, 1) || !l.Holds(60, 10) {
		t.Fatalf("Holds wrong over %v", l.Spans())
	}
	if l.HeldBytes() != 50 {
		t.Fatalf("HeldBytes = %d, want 50", l.HeldBytes())
	}
	l.MarkAll()
	if !l.Holds(0, 100) {
		t.Fatalf("MarkAll did not cover payload: %v", l.Spans())
	}
	l.Reset()
	if l.HeldBytes() != 0 {
		t.Fatalf("Reset left %d bytes", l.HeldBytes())
	}
}

// TestChunkLedgerBlockMarks is the allgather's use of the one ledger: whole
// blocks of the receive buffer land in ring order, not offset order, a block
// counts as held only once every byte of it is, and neighbouring blocks
// coalesce without disturbing the per-block answer.
func TestChunkLedgerBlockMarks(t *testing.T) {
	const block, n = 64, 8
	l := NewChunkLedger(n * block)
	for _, o := range []int64{3, 7, 3, 4} {
		l.MarkHeld(o*block, block)
	}
	l.MarkHeld(5*block, block/2) // a pipelined half block
	for o, want := range [n]bool{3: true, 4: true, 7: true} {
		if got := l.Holds(int64(o)*block, block); got != want {
			t.Errorf("Holds(block %d) = %v, want %v (spans %v)", o, got, want, l.Spans())
		}
	}
	if got := l.Spans(); !spansEqual(got, []Interval{{3 * block, 2*block + block/2}, {7 * block, block}}) {
		t.Errorf("spans = %v", got)
	}
	l.MarkHeld(5*block+block/2, block/2)
	if !l.Holds(5*block, block) || !l.Holds(3*block, 3*block) {
		t.Errorf("completed block not held: %v", l.Spans())
	}
}

// TestIntervalSetAllocations: a mark is on the path of every op of a
// resilient collective. Once the set has capacity, adjacent, merging and
// bridging Adds reuse it, and the lookups allocate nothing at all. A ledger
// restarted per call (the member slot's) empties, takes the call's size and
// keeps that capacity: its second fill allocates nothing either.
func TestIntervalSetAllocations(t *testing.T) {
	s := &IntervalSet{}
	for i := int64(0); i < 16; i++ {
		s.Add(i*100, 10) // 16 disjoint intervals: the capacity the runs below reuse
	}
	if got := testing.AllocsPerRun(50, func() {
		s.Clear()
		for i := int64(0); i < 16; i += 2 {
			s.Add(i*100, 10) // disjoint, ascending
		}
		for i := int64(15); i > 0; i -= 2 {
			s.Add(i*100, 10) // disjoint, inserted between
		}
		for i := int64(0); i < 16; i++ {
			s.Add(i*100+10, 10) // adjacent: extends in place
		}
		s.Add(0, 1600) // merges everything
	}); got != 0 {
		t.Errorf("Add on a set with capacity allocates %.0f times per run, want 0", got)
	}
	if !spansEqual(s.Spans(), []Interval{{0, 1600}}) {
		t.Fatalf("spans after the merging run = %v", s.Spans())
	}
	l := NewChunkLedger(1600)
	l.MarkHeld(100, 200)
	if got := testing.AllocsPerRun(50, func() {
		if !s.Contains(40, 1000) || s.Contains(1500, 200) || !l.Holds(150, 100) || l.Holds(0, 150) {
			t.Fatal("wrong containment answer")
		}
		l.MarkHeld(150, 150)
	}); got != 0 {
		t.Errorf("Contains/Holds/merging MarkHeld allocate %.0f times per run, want 0", got)
	}
	var led ChunkLedger // the zero value, as a member slot holds it
	fill := func(size int64) {
		led.Restart(size)
		for i := int64(15); i >= 0; i -= 2 {
			led.MarkHeld(i*size/16, 10) // disjoint, descending: every mark inserts
		}
	}
	fill(800) // the first fill grows the storage
	if led.HeldBytes() != 80 {
		t.Fatalf("first fill holds %d bytes, want 80", led.HeldBytes())
	}
	if got := testing.AllocsPerRun(50, func() { fill(1600) }); got != 0 {
		t.Errorf("a restarted ledger's fill allocates %.0f times per run, want 0", got)
	}
	if led.Size() != 1600 || len(led.Spans()) != 8 {
		t.Errorf("after Restart(1600) and a fill: size %d, spans %v", led.Size(), led.Spans())
	}
	led.Restart(-1)
	if led.Size() != 0 || led.HeldBytes() != 0 {
		t.Errorf("Restart(-1): size %d, %d bytes held; want an empty ledger over 0 bytes", led.Size(), led.HeldBytes())
	}
}

// TestChunkLedgerConcurrent is the ledger half of the satellite race
// test: many goroutines mark chunk completions while readers snapshot
// spans and a resetter simulates recovery-path clears — the exact mix the
// live runtime produces when a failure lands mid-collective. Run under
// -race (CI does) this catches any unsynchronized ledger access.
func TestChunkLedgerConcurrent(t *testing.T) {
	const (
		size    = 1 << 20
		chunk   = 16 << 10
		writers = 8
	)
	l := NewChunkLedger(size)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := int64(w) * chunk; off < size; off += writers * chunk {
				l.MarkHeld(off, chunk)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = l.Spans()
			_ = l.Holds(0, chunk)
			_ = l.HeldBytes()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Reset()
	}()
	wg.Wait()
	l.MarkAll()
	if !l.Holds(0, size) {
		t.Fatalf("ledger unusable after concurrent churn: %v", l.Spans())
	}
}
