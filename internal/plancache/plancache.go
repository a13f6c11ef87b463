// Package plancache caches compiled collective schedules. A schedule
// compiled by internal/core or internal/baseline bakes exact byte sizes
// and buffer offsets into every operation, so repeated collectives with
// identical shapes — the common case of an iterative application calling
// MPI_Bcast on the same communicator with the same count every step — can
// reuse the compiled DAG instead of re-running topology construction and
// compilation on the hot path.
//
// The cache is concurrency-safe and size-bounded: entries evict in LRU
// order, and concurrent misses on one key coalesce into a single compile
// (singleflight) so a 48-rank communicator entering a collective together
// compiles its plan once, not 48 times. Compiled *sched.Schedule values
// are immutable by construction (the runtime binds buffers per call but
// never mutates the schedule), which is what makes sharing one schedule
// across calls and goroutines sound.
//
// For the multi-tenant service layer (DESIGN.md §12) the cache is
// SHARDED: keys hash onto independent shards, each with its own mutex
// and LRU list, so tenants hammering the cache concurrently contend on
// different locks instead of serializing on one. Keys carry a tenant id,
// entries count against a per-tenant quota (one tenant's plan churn
// evicts its own oldest plans, never a neighbor's), and invalidation can
// be scoped to a (topology, tenant) pair or a whole tenant — a shrink
// storm in one tenant never drops another tenant's compiled plans.
//
// Invalidation is explicit: the mpi runtime drops a topology's entries
// when the communicator shrinks after a rank failure, when a communicator
// is freed, and when the fault layer forces a rebuild. Counters
// (hits/misses/coalesced/evictions/invalidations, plus per-tenant
// hits/misses) feed the internal/trace metrics registry under the
// "plancache." prefix. Every counter is an atomic: Stats() and the
// per-tenant snapshots are safe against concurrent Get/Invalidate
// traffic (regression-tested under -race).
package plancache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"distcoll/internal/distance"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
)

// Key identifies one compiled plan. Size is the exact byte size the
// schedule was compiled for (schedules bake offsets, so there is no
// rounding to classes), and Variant discriminates the algorithm
// configuration (component + tree shape + chunk, e.g. a
// tune.Decision.CacheKey()).
type Key struct {
	// Topo is the topology fingerprint: a hash of the communicator's
	// distance relation (TopoHashClustered), so communicators whose members
	// are placed congruently share plans and a shrink invalidates exactly
	// its topology.
	Topo uint64
	// Tenant scopes the entry to one tenant of a shared (serve-layer)
	// cache: tenants never share entries even on identical placements, so
	// one tenant's invalidation or eviction churn cannot touch another's
	// plans. Zero is the single-tenant default.
	Tenant uint64
	// Coll is the collective name ("bcast", "allgather", ...).
	Coll string
	// Root is the rooted collective's root (0 for unrooted).
	Root int
	// Size is the compiled byte size (message for bcast/reduce, per-rank
	// block for allgather).
	Size int64
	// Align is the reduction element size (0 when not a reduction).
	Align int64
	// Variant is the algorithm configuration discriminator.
	Variant string
}

// hash spreads a key over the shards: FNV-1a over every field. The shard
// count is a power of two, so the low bits select the shard.
func (k Key) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put64(k.Topo)
	put64(k.Tenant)
	put64(uint64(k.Root))
	put64(uint64(k.Size))
	put64(uint64(k.Align))
	h.Write([]byte(k.Coll))
	h.Write([]byte{0})
	h.Write([]byte(k.Variant))
	return h.Sum64()
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 // Get returned a cached schedule
	Misses        int64 // Get ran the compile function
	Coalesced     int64 // Get waited on another goroutine's compile
	Evictions     int64 // entries dropped by the LRU bound
	QuotaEvicts   int64 // entries dropped by a per-tenant quota
	Invalidations int64 // entries dropped by Invalidate* calls
	Size          int   // resident entries (including in-flight compiles)
}

// TenantStats is the per-tenant slice of the counters.
type TenantStats struct {
	Hits     int64
	Misses   int64
	Resident int // completed entries currently cached for the tenant
}

// entry is one cache slot. ready closes when the compile finishes;
// waiters then read s/err. elem is nil until the entry is inserted into
// the LRU list (in-flight compiles are not evictable).
type entry struct {
	ready chan struct{}
	s     *sched.Schedule
	err   error
	key   Key
	elem  *list.Element
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry
	lru      *list.List // front = most recent; values are *entry
	byTenant map[uint64]int
}

// tenantCounters accumulates one tenant's hit/miss counts, with mirrors
// in the trace registry.
type tenantCounters struct {
	hits, misses   atomic.Int64
	mHits, mMisses *trace.Counter
}

// Cache is a size-bounded, sharded LRU of compiled schedules with
// singleflight compiles. The zero value is not usable; use New or
// NewSharded.
type Cache struct {
	shards      []*shard
	mask        uint64
	capacity    int
	tenantQuota int

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	evictions     atomic.Int64
	quotaEvicts   atomic.Int64
	invalidations atomic.Int64

	// Mirrored trace counters (nil-safe).
	metrics                                                *trace.Metrics
	mHits, mMisses, mCoalesced, mEvictions, mInvalidations *trace.Counter
	tmu                                                    sync.Mutex
	tenants                                                map[uint64]*tenantCounters
}

// DefaultCapacity bounds a cache built with New(0, ...): an iterative
// application touches a handful of (collective, size) shapes per
// communicator, so 128 plans cover many communicators before recompiles.
const DefaultCapacity = 128

// DefaultShards is the shard count NewSharded(_, 0, ...) selects: enough
// to keep a machine's worth of tenant goroutines off each other's locks
// without fragmenting small capacities.
const DefaultShards = 8

// New creates a single-shard cache holding at most capacity completed
// plans (DefaultCapacity if ≤ 0) — the exact-LRU configuration a
// single-tenant world uses. metrics may be nil; otherwise the cache
// registers plancache.* counters in it.
func New(capacity int, metrics *trace.Metrics) *Cache {
	return NewSharded(capacity, 1, metrics)
}

// NewSharded creates a cache of `shards` independently locked shards
// (rounded up to a power of two; ≤ 0 selects DefaultShards) holding at
// most capacity completed plans in total (DefaultCapacity if ≤ 0). The
// capacity is split evenly across shards, so the global bound holds
// exactly while eviction order is only per-shard LRU. Shard counts are
// clamped so every shard holds at least one entry.
func NewSharded(capacity, shards int, metrics *trace.Metrics) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > 1 && n > capacity {
		n >>= 1
	}
	c := &Cache{
		shards:         make([]*shard, n),
		mask:           uint64(n - 1),
		capacity:       capacity,
		metrics:        metrics,
		mHits:          metrics.Counter("plancache.hits"),
		mMisses:        metrics.Counter("plancache.misses"),
		mCoalesced:     metrics.Counter("plancache.coalesced"),
		mEvictions:     metrics.Counter("plancache.evictions"),
		mInvalidations: metrics.Counter("plancache.invalidations"),
		tenants:        make(map[uint64]*tenantCounters),
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		c.shards[i] = &shard{
			capacity: cap,
			entries:  make(map[Key]*entry),
			lru:      list.New(),
			byTenant: make(map[uint64]int),
		}
	}
	return c
}

// SetTenantQuota bounds the completed entries any single tenant may hold
// (≤ 0 means unlimited, the default). A tenant exceeding its quota evicts
// its OWN least-recently-used entry — quota pressure never touches a
// neighbor's plans. Call before serving traffic.
func (c *Cache) SetTenantQuota(n int) { c.tenantQuota = n }

// TenantQuota returns the per-tenant entry bound (0 = unlimited).
func (c *Cache) TenantQuota() int { return c.tenantQuota }

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

func (c *Cache) shardFor(k Key) *shard { return c.shards[k.hash()&c.mask] }

// tenant returns the per-tenant counter block, creating it on first use.
func (c *Cache) tenant(id uint64) *tenantCounters {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	tc, ok := c.tenants[id]
	if !ok {
		tc = &tenantCounters{}
		if c.metrics != nil {
			tc.mHits = c.metrics.Counter(fmt.Sprintf("plancache.tenant.%d.hits", id))
			tc.mMisses = c.metrics.Counter(fmt.Sprintf("plancache.tenant.%d.misses", id))
		}
		c.tenants[id] = tc
	}
	return tc
}

// Get returns the schedule for k, compiling it with compile on a miss.
// hit reports whether the schedule came from the cache without running
// compile in this call (including coalescing onto another goroutine's
// in-flight compile). Errors are not cached: a failed compile's entry is
// removed so the next Get retries.
func (c *Cache) Get(k Key, compile func() (*sched.Schedule, error)) (s *sched.Schedule, hit bool, err error) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		if e.elem != nil {
			sh.lru.MoveToFront(e.elem)
		}
		sh.mu.Unlock()
		select {
		case <-e.ready:
			// Completed entry: a plain hit.
			c.hits.Add(1)
			c.mHits.Add(1)
			if k.Tenant != 0 {
				tc := c.tenant(k.Tenant)
				tc.hits.Add(1)
				tc.mHits.Add(1)
			}
		default:
			// In-flight compile: wait for it.
			c.coalesced.Add(1)
			c.mCoalesced.Add(1)
			<-e.ready
		}
		return e.s, true, e.err
	}
	e := &entry{ready: make(chan struct{}), key: k}
	sh.entries[k] = e
	sh.mu.Unlock()

	c.misses.Add(1)
	c.mMisses.Add(1)
	if k.Tenant != 0 {
		tc := c.tenant(k.Tenant)
		tc.misses.Add(1)
		tc.mMisses.Add(1)
	}
	e.s, e.err = compile()
	close(e.ready)

	sh.mu.Lock()
	// The entry may have been invalidated while compiling; in that case —
	// or on error — it must not enter the LRU. Waiters already holding the
	// entry still get its result.
	if cur, ok := sh.entries[k]; ok && cur == e {
		if e.err != nil {
			delete(sh.entries, k)
		} else {
			e.elem = sh.lru.PushFront(e)
			sh.byTenant[k.Tenant]++
			c.enforceQuotaLocked(sh, k.Tenant)
			c.evictLocked(sh)
		}
	}
	sh.mu.Unlock()
	return e.s, false, e.err
}

// evictLocked drops least-recently-used completed entries until the
// shard's bound holds. In-flight compiles are not in the LRU and never
// evict.
func (c *Cache) evictLocked(sh *shard) {
	for sh.lru.Len() > sh.capacity {
		back := sh.lru.Back()
		if back == nil {
			return
		}
		c.removeLocked(sh, back.Value.(*entry))
		c.evictions.Add(1)
		c.mEvictions.Add(1)
	}
}

// enforceQuotaLocked drops the tenant's own least-recently-used entries
// in this shard while the tenant exceeds its quota. The quota is global
// but enforced per shard at capacity/shards granularity — with keys
// hashed uniformly, a tenant stays within ~quota entries overall while
// eviction pressure remains strictly tenant-local.
func (c *Cache) enforceQuotaLocked(sh *shard, tenant uint64) {
	if c.tenantQuota <= 0 || tenant == 0 {
		return
	}
	perShard := c.tenantQuota / len(c.shards)
	if perShard < 1 {
		perShard = 1
	}
	for sh.byTenant[tenant] > perShard {
		// Oldest entry of this tenant, scanning from the LRU tail.
		var victim *entry
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.key.Tenant == tenant {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(sh, victim)
		c.quotaEvicts.Add(1)
		c.mEvictions.Add(1)
	}
}

// removeLocked unlinks one completed entry from its shard.
func (c *Cache) removeLocked(sh *shard, e *entry) {
	if e.elem != nil {
		sh.lru.Remove(e.elem)
		e.elem = nil
		if n := sh.byTenant[e.key.Tenant]; n <= 1 {
			delete(sh.byTenant, e.key.Tenant)
		} else {
			sh.byTenant[e.key.Tenant] = n - 1
		}
	}
	delete(sh.entries, e.key)
}

// Invalidate removes every entry whose key matches pred (in-flight
// entries too: their compile result is handed to current waiters but not
// cached). It returns the number removed.
func (c *Cache) Invalidate(pred func(Key) bool) int {
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, e := range sh.entries {
			if !pred(k) {
				continue
			}
			if e.elem != nil {
				c.removeLocked(sh, e)
			} else {
				delete(sh.entries, k)
			}
			removed++
		}
		sh.mu.Unlock()
	}
	c.invalidations.Add(int64(removed))
	c.mInvalidations.Add(int64(removed))
	return removed
}

// InvalidateTopo removes every plan compiled for the given topology
// fingerprint, across all tenants — the single-tenant Shrink/free/
// fault-rebuild hook.
func (c *Cache) InvalidateTopo(topo uint64) int {
	return c.Invalidate(func(k Key) bool { return k.Topo == topo })
}

// InvalidateTopoOf removes the plans compiled for the given topology
// fingerprint by ONE tenant. This is the shrink/free hook on a shared
// cache: two tenants bound to the same cores produce identical topology
// fingerprints, and one tenant breaking its communicator must not drop
// its neighbor's still-valid plans.
func (c *Cache) InvalidateTopoOf(topo, tenant uint64) int {
	return c.Invalidate(func(k Key) bool { return k.Topo == topo && k.Tenant == tenant })
}

// InvalidateTenant removes every plan a tenant holds — the tenant-free
// hook; a freed tenant leaves nothing resident. The tenant's counter
// block and its mirrored plancache.tenant.<id>.* trace counters go
// with it: tenant ids only grow, so keeping them would leak the maps
// without bound under churn in a long-running daemon.
func (c *Cache) InvalidateTenant(tenant uint64) int {
	n := c.Invalidate(func(k Key) bool { return k.Tenant == tenant })
	c.tmu.Lock()
	delete(c.tenants, tenant)
	c.tmu.Unlock()
	if c.metrics != nil {
		c.metrics.RemovePrefix(fmt.Sprintf("plancache.tenant.%d.", tenant))
	}
	return n
}

// Stats returns a snapshot of the counters. All counters are atomics and
// the per-shard sizes are read under their shard locks, so concurrent
// Get/Invalidate traffic never races this read.
func (c *Cache) Stats() Stats {
	size := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		size += len(sh.entries)
		sh.mu.Unlock()
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		QuotaEvicts:   c.quotaEvicts.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          size,
	}
}

// TenantStats returns one tenant's hit/miss counts and resident entries.
func (c *Cache) TenantStats(tenant uint64) TenantStats {
	var ts TenantStats
	c.tmu.Lock()
	if tc, ok := c.tenants[tenant]; ok {
		ts.Hits = tc.hits.Load()
		ts.Misses = tc.misses.Load()
	}
	c.tmu.Unlock()
	for _, sh := range c.shards {
		sh.mu.Lock()
		ts.Resident += sh.byTenant[tenant]
		sh.mu.Unlock()
	}
	return ts
}

// Capacity returns the cache's completed-entry bound.
func (c *Cache) Capacity() int { return c.capacity }

// TopoHash fingerprints a distance matrix for Key.Topo: FNV-1a over the
// size and the upper triangle. Distances are small ints, so one byte per
// pair is exact.
func TopoHash(m distance.Matrix) uint64 {
	h := fnv.New64a()
	n := m.Size()
	var buf [4]byte
	buf[0] = byte(n)
	buf[1] = byte(n >> 8)
	buf[2] = byte(n >> 16)
	buf[3] = byte(n >> 24)
	h.Write(buf[:])
	row := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := i + 1; j < n; j++ {
			row = append(row, byte(m.At(i, j)))
		}
		h.Write(row)
	}
	return h.Sum64()
}

// TopoHashClustered fingerprints a communicator's distance view for
// Key.Topo in O(n + Σ k²) over per-machine group sizes k, never touching
// a cross-machine pair: FNV-1a over each rank's rack, switch and machine,
// relabelled by first occurrence in rank order, then the upper triangle
// of every machine's own pairs. Like TopoHash it is a function of the
// distance relation alone, not of which cores realise it, so
// placement-congruent communicators share plans; the two hash different
// byte streams, so a key space must use one of them throughout
// (internal/mpi uses this one).
func TopoHashClustered(cv *distance.Clustered) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	enc := func(v int) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	n := cv.Size()
	enc(n)
	labels := make(map[[2]int]int) // (tier, index) → first-occurrence label
	label := func(tier, index int) int {
		k := [2]int{tier, index}
		l, ok := labels[k]
		if !ok {
			l = len(labels)
			labels[k] = l
		}
		return l
	}
	for r := 0; r < n; r++ {
		enc(label(0, cv.RackIndex(r)))
		enc(label(1, cv.SwitchIndex(r)))
		enc(label(2, cv.MachineIndex(r)))
	}
	var row []byte
	for _, mach := range cv.Machines() {
		for i, a := range mach {
			row = row[:0]
			for _, b := range mach[i+1:] {
				row = append(row, byte(cv.At(a, b)))
			}
			h.Write(row)
		}
	}
	return h.Sum64()
}
