package mpi

import (
	"fmt"

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

// schedule resolves one collective call to its compiled schedule through
// the world's plan cache — one key space and one invalidation (break,
// Shrink, Free, health revision, partition epoch) for every component, and
// one compiler behind it. A fixed component is the decision that names
// only that component; Adaptive on a collective the selector decides is
// the selector's answer; either way the decision's cache key is the plan's
// variant, so a fixed call and an Adaptive call that name the same
// schedule share one entry. unit is the full message or the per-rank
// block, as the descriptor defines it; align the reduction element size.
// The adecision is the zero value (no coll) unless the selector decided: a
// fixed component emits no plan_cache event.
func (c *Comm) schedule(d *collective, comp Component, root int, unit, align int64) (*sched.Schedule, adecision, error) {
	adaptive := comp == Adaptive && d.decided
	if !adaptive && (comp < KNEMColl || comp > MPICH2) {
		return nil, adecision{}, fmt.Errorf("mpi: unknown component %v", comp)
	}
	st := c.state
	w := st.world
	st.mu.Lock()
	topo := st.topoHashLocked()
	var fp tune.Fingerprint
	if adaptive {
		fp = st.fingerprintLocked()
	}
	st.mu.Unlock()

	dec := tune.Decision{Component: comp.String()}
	if adaptive {
		dec = w.selector.SelectFP(d.coll, fp, unit)
	}
	key := plancache.Key{Topo: topo, Tenant: w.tenant, Coll: d.name, Root: root, Size: unit, Align: align, Variant: dec.CacheKey()}
	s, hit, err := w.plans.Get(key, func() (*sched.Schedule, error) {
		st.mu.Lock()
		v := st.viewLocked() // read on a miss only: a warm call needs no view
		st.mu.Unlock()
		return tune.CompileFor(d.coll, dec, v, root, unit, align)
	})
	if err != nil || !adaptive {
		return s, adecision{}, err
	}
	return s, adecision{coll: d.coll, bytes: unit, dec: dec, hit: hit}, nil
}

// topoHashLocked returns the cached fingerprint of the communicator's
// distance topology, computing it on first use in O(n + Σ k²) over
// per-machine group sizes k (plancache.TopoHashClustered: a function of
// the distance relation, so placement-congruent communicators share
// plans). When a demotion snapshot touches this communicator, the hash of
// the demoted pairs in the communicator's own rank space is folded in
// (health.View.Hash), so every change of what the members see maps to a
// distinct plan-cache key space: a stale plan can never be served for a
// re-routed topology, nor one communicator's routing to a congruent one
// demoted on a different edge. Callers hold st.mu.
func (st *commState) topoHashLocked() uint64 {
	st.healthLocked()         // a new revision clears topoHashed
	epoch := st.epochLocked() // so does an advanced partition epoch
	if !st.topoHashed {
		st.topoHash = plancache.TopoHashClustered(st.baseViewLocked())
		// Only when the overlay actually wraps this comm's view: snapshots
		// touching no member leave the hash (and the cached plans) alone.
		if hv, wrapped := st.viewLocked().(*health.View); wrapped {
			st.topoHash = st.topoHash*1099511628211 ^ hv.Hash()
		}
		if epoch > 0 {
			// Fold the partition epoch in so every quorum decision maps
			// to a distinct plan-cache key space: a plan compiled before
			// the split can never be served to the successor membership.
			st.topoHash = st.topoHash*1099511628211 ^ uint64(epoch)
		}
		st.topoHashed = true
		st.fingerprint = tune.Fingerprint{} // one invalidation for both identities of the view
	}
	return st.topoHash
}

// fingerprintLocked returns the selector's identity of the communicator's
// view (tune.FingerprintOf: the O(n²) pair histogram), computed once per
// topology hash: whatever drops the hash — a health revision, a partition
// epoch, Free — drops the fingerprint with it. Callers hold st.mu and have
// just called topoHashLocked.
func (st *commState) fingerprintLocked() tune.Fingerprint {
	if st.fingerprint.Procs == 0 {
		st.fingerprint = tune.FingerprintOf(st.viewLocked())
	}
	return st.fingerprint
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

// Free releases the communicator's cached resources: the distance view,
// topologies, auxiliary slab and spare plan held by the communicator state,
// and every compiled plan in the world's cache keyed by its topology.
// Collectives on other communicators with a *different* member placement
// are unaffected (their plans hash to different topologies). Using the
// handle after Free simply rebuilds state on demand; Free is an optimization
// hook, not a correctness requirement — call it when a communicator built by
// Split or Shrink goes out of scope in a long-running job.
func (c *Comm) Free() {
	st := c.state
	st.invalidatePlans()
	st.mu.Lock()
	st.view = nil
	st.topoHashed = false
	st.healthSnap = nil
	st.slab, st.spare = nil, nil
	st.mu.Unlock()
}
