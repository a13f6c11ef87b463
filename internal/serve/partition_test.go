package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/partition"
)

// TestTenantSurvivesMajorityPartition: a 6/2 split inside one tenant's
// world. The majority completes the op (minority ranks report
// exclusion, not failure), the partition counters account for the
// fenced ranks, and the breaker stays closed — a partition is not
// tenant ill-health.
func TestTenantSurvivesMajorityPartition(t *testing.T) {
	s := NewServer(Config{OpDeadline: 2 * time.Second})
	defer s.Close()
	tn, err := s.CreateTenant(TenantConfig{
		Name: "split", Ranks: 8,
		Fault:     &fault.Plan{},
		Partition: &partition.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.World().Injector().SeverGroups([]int{0, 1, 2, 3, 4, 5}, []int{6, 7})

	res, err := tn.Submit(context.Background(), Request{Kind: "bcast", Size: 4096, Seed: 7})
	if err != nil {
		t.Fatalf("Submit = %v", err)
	}
	if res.Completed != 6 || res.Excluded != 2 {
		t.Fatalf("completed/excluded = %d/%d, want 6/2", res.Completed, res.Excluded)
	}
	if len(res.Group) != 6 {
		t.Fatalf("final group = %v, want the 6-rank majority", res.Group)
	}

	// Later ops keep running on the surviving membership.
	res, err = tn.Submit(context.Background(), Request{Kind: "allgather", Size: 512, Seed: 8})
	if err != nil {
		t.Fatalf("post-partition Submit = %v", err)
	}
	if res.Completed != 6 {
		t.Fatalf("post-partition completed = %d, want 6", res.Completed)
	}

	id := tn.ID()
	if got := s.Metrics().Counter(fmt.Sprintf("serve.tenant.%d.partition.errors", id)).Load(); got == 0 {
		t.Error("partition.errors counter never incremented")
	}
	if got := s.Metrics().Gauge(fmt.Sprintf("serve.tenant.%d.partition.epoch", id)).Load(); got < 1 {
		t.Errorf("partition.epoch gauge = %v, want >= 1", got)
	}
	st := s.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("tenant count = %d", len(st.Tenants))
	}
	snap := st.Tenants[0]
	if len(snap.Fenced) != 2 || snap.Fenced[0] != 6 || snap.Fenced[1] != 7 {
		t.Errorf("snapshot fenced = %v, want [6 7]", snap.Fenced)
	}
	if snap.PartitionEpoch < 1 || snap.PartitionErrors == 0 {
		t.Errorf("snapshot partition epoch/errors = %d/%d", snap.PartitionEpoch, snap.PartitionErrors)
	}
	if snap.Breaker != "closed" {
		t.Errorf("breaker = %q after a partition, want closed", snap.Breaker)
	}
	if tn.Partitioned() {
		t.Error("majority tenant wrongly marked quorum-lost")
	}
	if reaped := s.ReapPartitioned(); len(reaped) != 0 {
		t.Errorf("ReapPartitioned reaped %v, want none", reaped)
	}
}

// TestReapPartitionedFreesQuorumLossTenant: a three-way split leaves no
// component with quorum — every rank is a minority, no op can ever
// complete, and ReapPartitioned tears the tenant down with full
// quota/metric cleanup while a healthy neighbor is untouched.
func TestReapPartitionedFreesQuorumLossTenant(t *testing.T) {
	s := NewServer(Config{OpDeadline: 2 * time.Second})
	defer s.Close()
	doomed, err := s.CreateTenant(TenantConfig{
		Name: "threeway", Ranks: 6,
		Fault:     &fault.Plan{},
		Partition: &partition.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := s.CreateTenant(TenantConfig{Name: "bystander", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	doomed.World().Injector().SeverGroups([]int{0, 1}, []int{2, 3}, []int{4, 5})

	// A small adaptive broadcast moves its bytes over no severed link, so
	// only the probe cadence (a sweep every 3 collectives) can see the cut:
	// the decision must land within the 5-collective detection bound, and
	// from then on every rank is outside the (empty) winner and nothing runs.
	ops := 0
	for err = nil; err == nil && ops < 5; ops++ {
		_, err = doomed.Submit(context.Background(), Request{Kind: "bcast", Size: 1024, Seed: int64(3 + ops)})
	}
	if err == nil {
		t.Fatalf("quorum-loss tenant still completing ops after %d collectives", ops)
	}
	v := doomed.World().PartitionVerdict()
	if v == nil || v.Winner != nil {
		t.Fatalf("verdict = %v, want total quorum loss", v)
	}
	if !doomed.Partitioned() {
		t.Fatal("quorum-loss tenant not marked partitioned")
	}

	prefix := fmt.Sprintf("serve.tenant.%d.", doomed.ID())
	reaped := s.ReapPartitioned()
	if len(reaped) != 1 || reaped[0] != "threeway" {
		t.Fatalf("ReapPartitioned = %v, want [threeway]", reaped)
	}
	if s.TenantCount() != 1 {
		t.Fatalf("tenant count after reap = %d, want 1", s.TenantCount())
	}
	for name := range s.Metrics().Counters() {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			t.Fatalf("reaped tenant counter %q survived", name)
		}
	}
	for name := range s.Metrics().Gauges() {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			t.Fatalf("reaped tenant gauge %q survived", name)
		}
	}

	// The bystander is untouched.
	res, err := healthy.Submit(context.Background(), Request{Kind: "barrier"})
	if err != nil || res.Completed != 4 {
		t.Fatalf("bystander barrier = %v (completed %d)", err, res.Completed)
	}
}
