package plancache

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
)

func key(i int) Key {
	return Key{Topo: 1, Coll: "bcast", Size: int64(i), Variant: "knemcoll/hier"}
}

func plan() (*sched.Schedule, error) {
	return sched.New(2), nil
}

func TestGetMissThenHit(t *testing.T) {
	c := New(4, nil)
	compiles := 0
	compile := func() (*sched.Schedule, error) { compiles++; return plan() }

	s, hit, err := c.Get(key(1), compile)
	if err != nil || s == nil || hit {
		t.Fatalf("first Get: s=%v hit=%v err=%v", s, hit, err)
	}
	s2, hit, err := c.Get(key(1), compile)
	if err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v", hit, err)
	}
	if s2 != s {
		t.Error("hit returned a different schedule pointer")
	}
	if compiles != 1 {
		t.Errorf("compile ran %d times, want 1", compiles)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4, nil)
	boom := errors.New("boom")
	_, hit, err := c.Get(key(1), func() (*sched.Schedule, error) { return nil, boom })
	if !errors.Is(err, boom) || hit {
		t.Fatalf("Get: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("failed compile left %d resident entries", st.Size)
	}
	// The retry runs compile again and can succeed.
	_, hit, err = c.Get(key(1), plan)
	if err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, nil)
	for i := 1; i <= 2; i++ {
		if _, _, err := c.Get(key(i), plan); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 so key 2 is the LRU victim.
	if _, hit, _ := c.Get(key(1), plan); !hit {
		t.Fatal("expected hit on key 1")
	}
	if _, _, err := c.Get(key(3), plan); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	if _, hit, _ := c.Get(key(1), plan); !hit {
		t.Error("recently-used key 1 was evicted")
	}
	if _, hit, _ := c.Get(key(2), plan); hit {
		t.Error("LRU key 2 survived eviction")
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	c := New(4, nil)
	var compiles atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	slow := func() (*sched.Schedule, error) {
		compiles.Add(1)
		close(started)
		<-gate
		return plan()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, hit, err := c.Get(key(1), slow); hit || err != nil {
			t.Errorf("leader: hit=%v err=%v", hit, err)
		}
	}()
	<-started

	const followers = 8
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, hit, err := c.Get(key(1), func() (*sched.Schedule, error) {
				t.Error("follower ran compile")
				return plan()
			})
			if s == nil || !hit || err != nil {
				t.Errorf("follower: s=%v hit=%v err=%v", s, hit, err)
			}
		}()
	}
	// Followers block on the in-flight entry until the leader finishes.
	// The coalesced counter increments before a follower blocks, so wait
	// for all of them to be parked before releasing the leader.
	for c.Stats().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Errorf("compile ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != followers {
		t.Errorf("stats = %+v, want 1 miss and %d coalesced", st, followers)
	}
}

func TestInvalidateDuringFlight(t *testing.T) {
	c := New(4, nil)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, hit, err := c.Get(key(1), func() (*sched.Schedule, error) {
			close(started)
			<-gate
			return plan()
		})
		// The compiling goroutine still gets its result...
		if s == nil || hit || err != nil {
			t.Errorf("leader: s=%v hit=%v err=%v", s, hit, err)
		}
	}()
	<-started
	if n := c.Invalidate(func(Key) bool { return true }); n != 1 {
		t.Fatalf("Invalidate removed %d entries, want 1 (the in-flight one)", n)
	}
	close(gate)
	<-done
	// ...but the invalidated plan must not have entered the cache.
	if _, hit, _ := c.Get(key(1), plan); hit {
		t.Error("plan invalidated mid-compile was cached anyway")
	}
}

func TestInvalidateTopo(t *testing.T) {
	c := New(8, nil)
	for _, topo := range []uint64{1, 2} {
		for i := 0; i < 3; i++ {
			k := key(i)
			k.Topo = topo
			if _, _, err := c.Get(k, plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := c.InvalidateTopo(1); n != 3 {
		t.Fatalf("InvalidateTopo(1) removed %d, want 3", n)
	}
	st := c.Stats()
	if st.Invalidations != 3 || st.Size != 3 {
		t.Errorf("stats = %+v", st)
	}
	k := key(0)
	k.Topo = 2
	if _, hit, _ := c.Get(k, plan); !hit {
		t.Error("other topology's plans were dropped too")
	}
}

func TestMetricsMirrored(t *testing.T) {
	reg := trace.NewMetrics()
	c := New(1, reg)
	c.Get(key(1), plan)
	c.Get(key(1), plan)
	c.Get(key(2), plan) // evicts key 1
	c.InvalidateTopo(1)
	snap := reg.Counters()
	want := map[string]int64{
		"plancache.hits":          1,
		"plancache.misses":        2,
		"plancache.evictions":     1,
		"plancache.invalidations": 1,
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %d, want %d", name, snap[name], v)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New(0, nil).Capacity(); got != DefaultCapacity {
		t.Errorf("New(0).Capacity() = %d", got)
	}
	if got := New(-5, nil).Capacity(); got != DefaultCapacity {
		t.Errorf("New(-5).Capacity() = %d", got)
	}
	if got := New(7, nil).Capacity(); got != 7 {
		t.Errorf("New(7).Capacity() = %d", got)
	}
}

func TestTopoHash(t *testing.T) {
	topo, err := hwtopo.ByName("ig")
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumCores()
	cont := make([]int, 8)
	spread := make([]int, 8)
	for i := range cont {
		cont[i] = i
		spread[i] = i * n / 8
	}
	if TopoHash(distance.NewMatrix(topo, cont)) != TopoHash(distance.NewMatrix(topo, cont)) {
		t.Error("identical matrices hash differently")
	}
	// A different placement of the same count must (overwhelmingly) differ.
	if TopoHash(distance.NewMatrix(topo, cont)) == TopoHash(distance.NewMatrix(topo, spread)) {
		t.Error("distinct matrices collide")
	}
	if TopoHash(distance.NewMatrix(topo, cont)) == TopoHash(distance.NewMatrix(topo, cont[:4])) {
		t.Error("different sizes collide")
	}
}

// TestTopoHashClustered: the communicator-side hash is a function of the
// distance relation — equal for congruent placements on other cores,
// machines or switches, different as soon as one pair's distance or the
// size differs — without enumerating cross-machine pairs.
func TestTopoHashClustered(t *testing.T) {
	topo := hwtopo.NewIGRack() // 2 racks × 2 switches × 2 nodes × (2 sockets × 6 cores)
	hash := func(cores ...int) uint64 {
		t.Helper()
		cv, err := distance.NewClustered(topo, cores)
		if err != nil {
			t.Fatal(err)
		}
		return TopoHashClustered(cv)
	}
	same := [][2][]int{
		{{0, 1, 6, 7}, {12, 13, 18, 19}},                  // another machine
		{{0, 1, 6, 7}, {4, 2, 10, 11}},                    // other cores of the same sockets
		{{0, 1, 12, 13}, {24, 25, 36, 37}},                // two machines under another switch
		{{0, 12, 24, 48}, {49, 61, 73, 1}},                // one rank per tier, mirrored across racks
		{{0, 1, 12, 24, 25, 48}, {72, 73, 84, 48, 49, 0}}, // every tier at once
	}
	for _, pair := range same {
		if hash(pair[0]...) != hash(pair[1]...) {
			t.Errorf("congruent placements %v and %v hash differently", pair[0], pair[1])
		}
	}
	differ := [][2][]int{
		{{0, 1, 6, 7}, {0, 1, 2, 7}},         // one rank moved across sockets
		{{0, 1, 12, 13}, {0, 1, 24, 25}},     // same switch vs across switches
		{{0, 12, 24}, {0, 12, 48}},           // across switches vs across racks
		{{0, 1, 12, 13}, {0, 12, 1, 13}},     // same cores, other rank order
		{{0, 1, 6, 7}, {0, 1, 6}},            // size
		{{0, 1, 12, 13}, {0, 1, 12, 13, 14}}, // size across machines
	}
	for _, pair := range differ {
		if hash(pair[0]...) == hash(pair[1]...) {
			t.Errorf("placements %v and %v with different distance relations collide", pair[0], pair[1])
		}
	}
	// Agreement with the dense reference on what "same relation" means.
	r := rand.New(rand.NewSource(9))
	seen := map[uint64]uint64{}
	for i := 0; i < 300; i++ {
		cores := r.Perm(topo.NumCores())[:2+r.Intn(10)]
		dense := TopoHash(distance.NewMatrix(topo, cores))
		sparse := hash(cores...)
		if prev, ok := seen[dense]; ok && prev != sparse {
			t.Fatalf("cores %v: matrix-equal placements hash differently", cores)
		}
		seen[dense] = sparse
	}
}

// TestConcurrentMixedUse exercises the cache under the race detector:
// concurrent gets on overlapping keys, invalidations, and stats reads.
func TestConcurrentMixedUse(t *testing.T) {
	c := New(8, trace.NewMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 12)
				k.Topo = uint64(g % 2)
				if _, _, err := c.Get(k, plan); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%50 == 0 {
					c.InvalidateTopo(uint64(g % 2))
				}
				_ = c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > c.Capacity() {
		t.Errorf("size %d exceeds capacity %d", st.Size, c.Capacity())
	}
}
