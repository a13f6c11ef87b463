package main

import (
	"context"
	"fmt"
	"time"

	"distcoll/internal/autotune"
	"distcoll/internal/health"
	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/partition"
	"distcoll/internal/serve"
	"distcoll/internal/trace"
)

// World probes: the rows of the price list that need a live World. They
// run on fresh worlds of their own (IG-48, cross-socket, like every live
// workload), so they read the same whichever workload the traced run is
// for, and never disturb that workload's counters.

const (
	microRounds = 100 // rounds of the barrier/split/first-op/free probe
	priceRounds = 20  // rounds per world of the option price list
	priceWarm   = 3
	serveOps    = 60
)

// priceCells is the cell list every optional layer is priced on: the
// guarded-mix round, plus the plain KNEMColl broadcast that the
// resilient one wraps so the ledger's cost is a ratio of like to like.
func priceCells() []cellSpec {
	cells := append([]cellSpec(nil), workloadByName("guarded-mix").slots[0].cells...)
	return append(cells, kn(kindBcast, 64*kib))
}

// runProbe builds a world, runs one cold and warm rounds, then rounds
// measured rounds, and returns their latencies and, when spans is set,
// the per-call spans.
func runProbe(slots []slotSpec, seed uint64, opts []mpi.Option, warm, rounds int, spans *spanLog) ([]float64, error) {
	bind, err := igCrossSocket()
	if err != nil {
		return nil, err
	}
	in, err := buildLive(bind, slots, seed, opts, nil)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if err := in.run(&phase{maxRounds: 1 + warm, blockRounds: 1 + warm}); err != nil {
		return nil, err
	}
	ph := &phase{maxRounds: rounds, blockRounds: rounds, spans: spans}
	if err := in.run(ph); err != nil {
		return nil, err
	}
	if _, failed := in.counts(); failed > 0 {
		return nil, fmt.Errorf("%d ops failed verification", failed)
	}
	return ph.rounds(), nil
}

// spanMedians returns the median duration of each child span name.
func spanMedians(l *spanLog) map[string]float64 {
	byName, _, _ := l.childDurations()
	out := make(map[string]float64, len(byName))
	for name, durs := range byName {
		out[name] = median(durs)
	}
	return out
}

// probeWorld fills the runtime-level metrics.
func probeWorld(seed uint64, res *result) error {
	// One rendezvous, a resilient small broadcast (what serve submits),
	// and the life of a communicator: Split, its first collective, Free.
	micro := newSpanLog()
	_, err := runProbe([]slotSpec{
		{cells: []cellSpec{{Kind: kindBarrier}, ad(kindBcastResilient, 4*kib)}},
		{colors: 1, cells: []cellSpec{ad(kindBcast, 64*kib)}},
	}, seed, nil, 2, microRounds, micro)
	if err != nil {
		return fmt.Errorf("micro probe: %w", err)
	}
	m := spanMedians(micro)
	res.set("mpi.barrier_us", m["barrier"])
	res.set("mpi.split_us", m["reorder.split"])
	res.set("mpi.first_op_us", m["reorder.bcast_64K"])
	res.set("mpi.free_us", m["reorder.free"])
	direct := m["bcastres_4K"]

	// The option price list: the same rounds on a bare world and on worlds
	// with exactly one optional layer armed.
	price := func(spans *spanLog, opts ...mpi.Option) (float64, error) {
		lat, err := runProbe([]slotSpec{{cells: priceCells()}}, seed, opts, priceWarm, priceRounds, spans)
		return median(lat), err
	}
	bareSpans := newSpanLog()
	bare, err := price(bareSpans)
	if err != nil {
		return fmt.Errorf("price list, bare world: %w", err)
	}
	cells := spanMedians(bareSpans)
	res.set("recovery.ledger_overhead_frac", cells["bcastres_64K"]/cells["bcast_64K.knemcoll"]-1)
	for _, row := range []struct {
		metric string
		opt    mpi.Option
	}{
		{"integrity.overhead_frac", mpi.WithIntegrity(integrity.Config{})},
		{"trace.overhead_frac", mpi.WithTracer(trace.New(trace.NewRing(ringCapacity)))},
		{"health.overhead_frac", mpi.WithHealth(health.Config{})},
		{"autotune.overhead_frac", mpi.WithAutotune(autotune.Config{})},
		{"partition.overhead_frac", mpi.WithPartitionDetector(partition.Config{})},
	} {
		with, err := price(nil, row.opt)
		if err != nil {
			return fmt.Errorf("price list, %s: %w", row.metric, err)
		}
		res.set(row.metric, with/bare-1)
	}
	// The bare world again: how far the host moved while the list ran.
	again, err := price(nil)
	if err != nil {
		return fmt.Errorf("price list, bare world again: %w", err)
	}
	res.notef("price list: bare round %.0f us before, %.0f us after (guarded-mix cells + bcast 64K knemcoll)", bare, again)

	// Admission: a tenant's Submit against the same collective called
	// directly.
	srv := serve.NewServer(serve.Config{})
	tenant, err := srv.CreateTenant(serve.TenantConfig{Name: "bench", Ranks: 48})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var submit []float64
	for i := 0; i < serveOps; i++ {
		t0 := time.Now()
		if _, err := tenant.Submit(context.Background(), serve.Request{Kind: "bcast", Size: 4 * kib, Seed: int64(seed)}); err != nil {
			return fmt.Errorf("serve: submit: %w", err)
		}
		submit = append(submit, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := tenant.Free(); err != nil {
		return fmt.Errorf("serve: free: %w", err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	res.set("serve.submit_overhead_us", median(submit[serveOps/4:])-direct)
	return nil
}
