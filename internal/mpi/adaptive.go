package mpi

import (
	"fmt"

	"distcoll/internal/core"
	"distcoll/internal/health"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// This file is the Adaptive component (DESIGN.md §8): the glue between the
// runtime's communicators, the tune decision engine, and the compiled-plan
// cache. Per collective call, the last-arriving member (the one running
// the coordinate build function, so exactly once per collective) asks the
// world's selector for the best {component, tree shape, chunk} at this
// (topology, message size), then fetches the compiled schedule from the
// world's plan cache — compiling through tune.CompileFor only on a miss.

// adecision carries the selector's choice out of adaptiveSchedule to the
// plan builder: the plan_cache trace event is emitted only once the plan
// id exists (after newPlan), so a later op_end with the same plan id
// carries the measured cost of exactly this decision — the correlation
// the online autotuner feeds on.
type adecision struct {
	coll  tune.Collective
	bytes int64
	dec   tune.Decision
	hit   bool
}

// adaptiveSchedule resolves one collective call through the selector and
// plan cache. bytes is the full message (bcast/reduce/allreduce) or the
// per-rank block (allgather); align the reduction element size.
func (c *Comm) adaptiveSchedule(coll tune.Collective, root int, bytes, align int64) (*sched.Schedule, *adecision, error) {
	st := c.state
	w := st.world

	st.mu.Lock()
	v := st.viewLocked()
	topo := st.topoHashLocked()
	st.mu.Unlock()

	dec := w.selector.Select(coll, v, bytes)
	key := plancache.Key{
		Topo:    topo,
		Tenant:  w.tenant,
		Coll:    string(coll),
		Root:    root,
		Size:    bytes,
		Align:   align,
		Variant: dec.CacheKey(),
	}
	s, hit, err := w.plans.Get(key, func() (*sched.Schedule, error) {
		return tune.CompileFor(coll, dec, v, root, bytes, align)
	})
	if err != nil {
		return nil, nil, err
	}
	return s, &adecision{coll: coll, bytes: bytes, dec: dec, hit: hit}, nil
}

// fixedVariants are the plan-cache Variant strings of the fixed components.
// Within one of them the algorithm is a pure function of the rest of the
// key (communicator size via Topo, byte size, root), so the component name
// is the whole discriminator; the prefix keeps them apart from every
// tune.Decision.CacheKey.
var fixedVariants = [...]string{KNEMColl: "fixed/knemcoll", Tuned: "fixed/tuned", MPICH2: "fixed/mpich2"}

// fixedSchedule fetches a fixed component's schedule through the world's
// plan cache: the same key space and the same invalidation (break, Shrink,
// Free, health revision, partition epoch) as the Adaptive component's
// plans, compiling only on a miss. It emits no plan_cache trace event —
// that event records a selector decision, and a fixed component makes
// none.
func (c *Comm) fixedSchedule(coll string, comp Component, root int, bytes, align int64, compile func() (*sched.Schedule, error)) (*sched.Schedule, error) {
	if comp < 0 || int(comp) >= len(fixedVariants) {
		return nil, fmt.Errorf("mpi: unknown component %v", comp)
	}
	st := c.state
	st.mu.Lock()
	topo := st.topoHashLocked()
	st.mu.Unlock()
	s, _, err := st.world.plans.Get(plancache.Key{
		Topo:    topo,
		Tenant:  st.world.tenant,
		Coll:    coll,
		Root:    root,
		Size:    bytes,
		Align:   align,
		Variant: fixedVariants[comp],
	}, compile)
	return s, err
}

// topoHashLocked returns the cached fingerprint of the communicator's
// distance topology, computing it on first use. Clustered communicators
// hash the (topology name, per-rank core) placement in O(n) — the cores
// fully determine every pairwise distance — so cluster-scale plan-cache
// keys never need the dense matrix. When a demotion snapshot touches
// this communicator, its hash is folded in, so every health revision
// maps to a distinct plan-cache key space and a stale plan can never be
// served for a re-routed topology. Callers hold st.mu.
func (st *commState) topoHashLocked() uint64 {
	snap := st.healthLocked() // a new revision clears topoHashed
	epoch := st.epochLocked() // so does an advanced partition epoch
	if !st.topoHashed {
		if cv := st.clusteredLocked(); cv != nil {
			st.topoHash = plancache.TopoHashCores(cv.Topology().Name, cv.Cores())
		} else {
			st.topoHash = plancache.TopoHash(st.matrixLocked())
		}
		if snap != nil && !snap.Empty() {
			// Only when the overlay actually wraps this comm's view:
			// snapshots touching no member leave the hash (and the
			// cached plans) alone.
			if _, wrapped := st.viewLocked().(*health.View); wrapped {
				st.topoHash = st.topoHash*1099511628211 ^ snap.Hash()
			}
		}
		if epoch > 0 {
			// Fold the partition epoch in so every quorum decision maps
			// to a distinct plan-cache key space: a plan compiled before
			// the split can never be served to the successor membership.
			st.topoHash = st.topoHash*1099511628211 ^ uint64(epoch)
		}
		st.topoHashed = true
	}
	return st.topoHash
}

// invalidatePlans drops every cached plan compiled for this
// communicator's topology. Called when the topology can no longer be
// trusted or is going away: a member failure broke the communicator (the
// fault-triggered rebuild path — survivors will Shrink to a different
// matrix), Shrink itself, and Free. Safe to call whether or not the
// matrix was ever built; a no-op if no plan was ever cached for it.
func (st *commState) invalidatePlans() {
	st.mu.Lock()
	hashed := st.topoHashed
	topo := st.topoHash
	st.mu.Unlock()
	if hashed {
		st.world.plans.InvalidateTopoOf(topo, st.world.tenant)
	}
}

// Free releases the communicator's cached resources: the distance
// topologies held by the communicator state and every compiled plan in
// the world's cache keyed by its topology. Collectives on other
// communicators with a *different* member placement are unaffected (their
// plans hash to different topologies). Using the handle after Free simply
// rebuilds state on demand; Free is an optimization hook, not a
// correctness requirement — call it when a communicator built by Split or
// Shrink goes out of scope in a long-running job.
func (c *Comm) Free() {
	st := c.state
	st.invalidatePlans()
	st.mu.Lock()
	st.matrix = nil
	st.clustered = nil
	st.clusterKnown = false
	st.topoHashed = false
	st.trees = make(map[int]*core.Tree)
	st.ring = nil
	st.healthSnap = nil
	st.mu.Unlock()
}
