package mpi

import (
	"fmt"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/health"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// This file is the schedule-selection half of the one call path (DESIGN.md
// §8): the glue between the runtime's communicators, the tune decision
// engine, and the compiled-plan cache. Per collective call, the
// last-arriving member (the one running Comm.buildPlan, so exactly once
// per collective) resolves the component to a schedule — for Adaptive by
// asking the world's selector for the best {component, tree shape, chunk}
// at this (topology, message size) — and fetches it from the world's plan
// cache, compiling only on a miss.

// adecision carries the selector's choice out of schedule to the plan
// builder: the plan_cache trace event is emitted only once the plan id
// exists (after newPlan), so a later op_end with the same plan id carries
// the measured cost of exactly this decision — the correlation the online
// autotuner feeds on.
type adecision struct {
	coll  tune.Collective
	bytes int64
	dec   tune.Decision
	hit   bool
}

// fixedVariants are the plan-cache Variant strings of the fixed components.
// Within one of them the algorithm is a pure function of the rest of the
// key (communicator size via Topo, byte size, root), so the component name
// is the whole discriminator; the prefix keeps them apart from every
// tune.Decision.CacheKey.
var fixedVariants = [...]string{KNEMColl: "fixed/knemcoll", Tuned: "fixed/tuned", MPICH2: "fixed/mpich2"}

// schedule resolves one collective call to its compiled schedule through
// the world's plan cache — one key space and one invalidation (break,
// Shrink, Free, health revision, partition epoch) for every component.
// unit is the full message or the per-rank block, as the descriptor
// defines it; align the reduction element size. The *adecision is non-nil
// only when the selector decided (Adaptive on a collective it knows): a
// fixed component makes no decision and emits no plan_cache event.
func (c *Comm) schedule(d *collective, comp Component, root int, unit, align int64) (*sched.Schedule, *adecision, error) {
	adaptive := comp == Adaptive && d.tuned != ""
	if !adaptive && (comp < 0 || int(comp) >= len(fixedVariants)) {
		return nil, nil, fmt.Errorf("mpi: unknown component %v", comp)
	}
	st := c.state
	w := st.world
	st.mu.Lock()
	topo := st.topoHashLocked()
	var v distance.View // fetched where it is read: by the selector, else on a cache miss only
	if adaptive {
		v = st.viewLocked()
	}
	st.mu.Unlock()

	// dec is what tune.CompileFor compiles: the selector's choice, or a
	// fixed Tuned/MPICH2 on a collective tune knows. Left zero, the
	// descriptor's own compiler runs (fixed KNEMColl over the communicator's
	// cached tree or ring; every component of an untuned collective).
	var dec tune.Decision
	key := plancache.Key{Topo: topo, Tenant: w.tenant, Coll: d.name, Root: root, Size: unit, Align: align}
	if adaptive {
		dec = w.selector.Select(d.tuned, v, unit)
		key.Variant = dec.CacheKey()
	} else {
		key.Variant = fixedVariants[comp]
		if d.tuned != "" && comp != KNEMColl {
			dec.Component = comp.String()
		}
	}
	s, hit, err := w.plans.Get(key, func() (*sched.Schedule, error) {
		if dec.Component == "" {
			return d.compile(c, comp, root, unit, align)
		}
		if v == nil {
			st.mu.Lock()
			v = st.viewLocked()
			st.mu.Unlock()
		}
		return tune.CompileFor(d.tuned, dec, v, root, unit, align)
	})
	if err != nil || !adaptive {
		return s, nil, err
	}
	return s, &adecision{coll: d.tuned, bytes: unit, dec: dec, hit: hit}, nil
}

// topoHashLocked returns the cached fingerprint of the communicator's
// distance topology, computing it on first use in O(n + Σ k²) over
// per-machine group sizes k (plancache.TopoHashClustered: a function of
// the distance relation, so placement-congruent communicators share
// plans). When a demotion snapshot touches this communicator, its hash is
// folded in, so every health revision maps to a distinct plan-cache key
// space and a stale plan can never be served for a re-routed topology.
// Callers hold st.mu.
func (st *commState) topoHashLocked() uint64 {
	snap := st.healthLocked() // a new revision clears topoHashed
	epoch := st.epochLocked() // so does an advanced partition epoch
	if !st.topoHashed {
		st.topoHash = plancache.TopoHashClustered(st.baseViewLocked())
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
// placement), Shrink itself, and Free. Safe to call whether or not the
// view was ever built; a no-op if no plan was ever cached for it.
func (st *commState) invalidatePlans() {
	st.mu.Lock()
	hashed := st.topoHashed
	topo := st.topoHash
	st.mu.Unlock()
	if hashed {
		st.world.plans.InvalidateTopoOf(topo, st.world.tenant)
	}
}

// Free releases the communicator's cached resources: the distance view
// and topologies held by the communicator state and every compiled plan in
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
	st.view = nil
	st.topoHashed = false
	st.trees = make(map[int]*core.Tree)
	st.ring = nil
	st.healthSnap = nil
	st.mu.Unlock()
}
