package chaos

// Leader-crash cells: kill the elected inter-node leader of the
// hierarchical broadcast tree mid-operation on a cluster topology and
// check that the survivors re-elect, recover (incrementally for late
// crashes), and never leak bytes across machine subtrees.

import (
	"testing"

	"distcoll/internal/core"
	"distcoll/internal/distance"
)

// TestLeaderPoolTargetsLeaders: the leader-crash victim pool is exactly
// the elected inter-node leaders minus the root, and every derived crash
// plan kills only members of that pool.
func TestLeaderPoolTargetsLeaders(t *testing.T) {
	sc := Scenario{Seed: 7, Ranks: 16, Topology: "igcluster", Collective: "bcast",
		Size: 256 << 10, Cell: Cell{Name: "leader-crash", Crashes: 1, LeaderCrash: true}}
	pool := LeaderPool(sc)
	if len(pool) == 0 {
		t.Fatal("igcluster scenario has no leader pool")
	}
	topo, b, err := buildBinding(sc)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := distance.NewClustered(topo, b.Cores())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildBroadcastTreeHier(cv, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leaders := make(map[int]bool)
	for _, l := range core.TreeLeaders(tree, cv) {
		leaders[l] = true
	}
	for _, v := range pool {
		if !leaders[v] {
			t.Errorf("pool member %d is not an elected leader", v)
		}
		if v == 0 {
			t.Error("pool contains the root")
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		sc.Seed = seed
		plan := PlanFor(sc)
		if len(plan.CrashAtOp) != 1 {
			t.Fatalf("seed %d: plan kills %d ranks, want 1", seed, len(plan.CrashAtOp))
		}
		for v := range plan.CrashAtOp {
			if !leaders[v] {
				t.Errorf("seed %d: victim %d is not a leader", seed, v)
			}
		}
	}
	// Single-machine topologies have no leaders; the pool must be empty
	// and the plan must fall back to the ordinary victim draw.
	single := sc
	single.Topology = "contiguous"
	if p := LeaderPool(single); len(p) != 0 {
		t.Errorf("single-machine leader pool = %v, want empty", p)
	}
	if plan := PlanFor(single); len(plan.CrashAtOp) != 1 {
		t.Errorf("fallback plan kills %d ranks, want 1", len(plan.CrashAtOp))
	}
}

// TestLeaderReelectionAfterShrink: restricting the placement to the
// survivors of a leader crash and rebuilding elects a new same-machine
// leader, so the victim's subtree stays bridged.
func TestLeaderReelectionAfterShrink(t *testing.T) {
	sc := Scenario{Seed: 7, Ranks: 16, Topology: "igcluster"}
	topo, b, err := buildBinding(sc)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := distance.NewClustered(topo, b.Cores())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildBroadcastTreeHier(cv, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := LeaderPool(sc)
	if len(pool) == 0 {
		t.Fatal("no crash-eligible leaders")
	}
	victim := pool[0]
	victimMachine := cv.MachineIndex(victim)

	var survivors, survivorCores []int
	for r := 0; r < sc.Ranks; r++ {
		if r != victim {
			survivors = append(survivors, r)
			survivorCores = append(survivorCores, b.Cores()[r])
		}
	}
	sub, err := distance.NewClustered(topo, survivorCores) // the shrunken communicator's view
	if err != nil {
		t.Fatal(err)
	}
	newTree, err := core.BuildBroadcastTreeHier(sub, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reelected := false
	for _, l := range core.TreeLeaders(newTree, sub) {
		if sub.MachineIndex(l) == victimMachine {
			reelected = true
			if old := survivors[l]; old == victim {
				t.Fatalf("dead leader %d re-elected", victim)
			}
		}
	}
	if !reelected {
		t.Fatalf("machine %d has no leader after losing %d; subtree unbridged\nold tree %v\nnew tree %v",
			victimMachine, victim, tree.Parent, newTree.Parent)
	}
}

// TestLeaderCrashRecovery: end-to-end leader-crash runs on the cluster
// topology — early and late — must pass every harness property: oracle
// (no cross-subtree corruption on any survivor), membership agreement
// (one shrunken group), and for late crashes the incremental-recovery
// payoff (recovery.bytes_saved > 0, enforced by checkRecovery).
func TestLeaderCrashRecovery(t *testing.T) {
	crashes := int64(0)
	for _, cell := range []Cell{
		{Name: "leader-crash", Crashes: 1, LeaderCrash: true},
		{Name: "leader-crash-late", Crashes: 1, LeaderCrash: true, CrashOpFrac: 0.8},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 16, Topology: "igcluster", Collective: "bcast",
				Size: 256 << 10, Cell: cell, Integrity: true,
			})
			mustPass(t, res)
			if res.Completed == 0 {
				t.Errorf("%s seed %d: no rank completed", cell.Name, seed)
			}
			for v := range res.Plan.CrashAtOp {
				for _, wr := range res.Group {
					if wr == v {
						t.Errorf("%s seed %d: dead leader %d in final group %v", cell.Name, seed, v, res.Group)
					}
				}
			}
			crashes += res.Fault.Crashes
		}
	}
	if crashes == 0 {
		t.Fatal("no leader crash ever fired; the cells proved nothing")
	}
}
