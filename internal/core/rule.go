package core

import "distcoll/internal/distance"

// This file is the one rule from a distance view to the paper's two
// topologies. Every production caller — the schedule compiler
// (tune.CompileFor) and chaos leader targeting — goes through TreeFor and
// RingFor, so what a calibrated table describes, what a fixed component
// runs and what a fault scenario aims at are the same construction:
//
//	view                        tree                        ring
//	*distance.Clustered         cluster walk (structural)   hierarchical if > 1 machine, else Algorithm 2
//	overlay of a Clustered      cluster walk (pairwise) if  hierarchical if > 1 machine, else Algorithm 2
//	                            > 1 machine, else Algorithm 1
//	anything else (Matrix)      Algorithm 1                 Algorithm 2
//
// A Clustered view is ultrametric by construction, where the cluster walk
// yields the tree of Algorithm 1 parent for parent and child for child at
// o(n²) cost, on one machine as on many. An overlay (anything exposing
// Base, i.e. health.View) raises single edges and so breaks
// ultrametricity: the literal greedy is what routes around those edges on
// one machine; across machines the pairwise cluster walk keeps
// construction affordable. The hierarchical ring has the level structure
// of Algorithm 2's but not its cyclic order, so single-machine rings stay
// on the literal algorithm. The hierarchical alltoall groups ranks by the
// machine they sit on, so it reads the physical view under an overlay: a
// demoted edge is slower, not on another node.

// physical returns the placement's own view: what v overlays (anything
// exposing Base, i.e. health.View), else v itself.
func physical(v distance.View) (base distance.View, overlay bool) {
	if o, ok := v.(interface{ Base() distance.View }); ok {
		return o.Base(), true
	}
	return v, false
}

// clusteredBase returns the Clustered view v is, or overlays; nil for any
// other view.
func clusteredBase(v distance.View) (cv *distance.Clustered, overlay bool) {
	v, overlay = physical(v)
	cv, _ = v.(*distance.Clustered)
	return cv, overlay
}

// TreeFor builds the distance-aware broadcast tree of v rooted at root.
func TreeFor(v distance.View, root int) (*Tree, error) {
	if cv, overlay := clusteredBase(v); cv != nil && (!overlay || cv.MultiMachine()) {
		return BuildBroadcastTreeHier(v, root, TreeOptions{})
	}
	return BuildBroadcastTree(v, root, TreeOptions{})
}

// RingFor builds the distance-aware allgather ring of v.
func RingFor(v distance.View) (*Ring, error) {
	if cv, _ := clusteredBase(v); cv != nil && cv.MultiMachine() {
		return BuildAllgatherRingHier(v, RingOptions{})
	}
	return BuildAllgatherRing(v, RingOptions{})
}
