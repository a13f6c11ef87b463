package serve

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/health"
)

// tenantHealthCfg is the fast scorer configuration used by the tenant
// tests: tiny windows, a demote margin scheduler noise under parallel
// test load cannot cross, and probation long enough that a demotion
// stays put for the duration of a test.
func tenantHealthCfg() health.Config {
	return health.Config{
		Window:       8,
		MinSamples:   4,
		DemoteRatio:  5,
		Strikes:      2,
		ProbationOps: 1 << 20,
	}
}

// TestTenantHealthDemotesSlowLink drives real serve traffic — not
// fabricated scorer events — through a tenant whose fault plan stalls
// the cross-quad relay link, and asserts the scorer demotes that link
// from the traced copies alone, that the demotion surfaces in the
// SERVER registry under the tenant prefix, and that Free removes the
// whole health block with the tenant's other metrics.
func TestTenantHealthDemotesSlowLink(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	cfg := tenantHealthCfg()
	tn, err := srv.CreateTenant(TenantConfig{
		Name: "degraded", Ranks: 16, Topology: "zoot",
		Fault:  &fault.Plan{SlowLinks: map[[2]int]time.Duration{{0, 4}: 3 * time.Millisecond}},
		Health: &cfg,
	})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if tn.World().Health() == nil {
		t.Fatal("tenant world has no scorer despite TenantConfig.Health")
	}
	prefix := fmt.Sprintf("serve.tenant.%d.health.", tn.ID())
	hs := tn.World().Health()
	// Wait for the STALLED pair to be demoted, not for any demotion:
	// under parallel-suite CPU load a scheduler hiccup can legitimately
	// demote some other µs-scale edge first, and that does not
	// invalidate what this test pins down (detection from real serve
	// traffic, the metrics surface, cleanup on Free). Snapshot.Demoted
	// also covers the edge being absorbed into a rank demotion.
	stalledDown := func() bool { return hs.Snapshot().Demoted(0, 4) }
	ctx := context.Background()
	ops := 0
	for ; ops < 40 && !stalledDown(); ops++ {
		if _, err := tn.Submit(ctx, Request{Kind: "bcast", Size: 4096, Seed: int64(ops + 1)}); err != nil {
			t.Fatalf("Submit %d: %v", ops, err)
		}
	}
	if !stalledDown() {
		t.Fatalf("stalled link not demoted after %d collectives (edges %v)", ops, hs.DemotedEdges())
	}
	t.Logf("demoted after %d collectives; edges=%v ranks=%v", ops, hs.DemotedEdges(), hs.DemotedRanks())
	if got := srv.Metrics().Counter(prefix + "demoted").Load(); got < 1 {
		t.Errorf("%sdemoted counter = %d, want >= 1", prefix, got)
	}
	eg := srv.Metrics().Gauge(prefix + "demoted_edges").Load()
	rg := srv.Metrics().Gauge(prefix + "demoted_ranks").Load()
	if eg < 1 && rg < 1 {
		t.Errorf("%sdemoted_edges = %v and %sdemoted_ranks = %v, want a live demotion in the registry",
			prefix, eg, prefix, rg)
	}

	if err := tn.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	for name := range srv.Metrics().Counters() {
		if strings.HasPrefix(name, prefix) {
			t.Fatalf("counter %s survived Free", name)
		}
	}
	for name := range srv.Metrics().Gauges() {
		if strings.HasPrefix(name, prefix) {
			t.Fatalf("gauge %s survived Free", name)
		}
	}
}

// TestTenantHealthIsolation: a tenant degrading and self-healing (slow
// link, scorer demoting it, plans recompiling) must not perturb a clean
// bystander tenant's p99. The bystander is measured alone (control),
// then again while the degraded tenant churns through detection,
// demotion and replanning next to it; the soak budget (1.5× + 5ms)
// bounds the interference.
func TestTenantHealthIsolation(t *testing.T) {
	const measured = 50
	srv := NewServer(Config{})
	defer srv.Close()
	by, err := srv.CreateTenant(TenantConfig{Name: "bystander", Ranks: 16, Topology: "zoot"})
	if err != nil {
		t.Fatalf("CreateTenant bystander: %v", err)
	}
	ctx := context.Background()
	measure := func() []time.Duration {
		out := make([]time.Duration, 0, measured)
		for i := 0; i < measured; i++ {
			start := time.Now()
			if _, err := by.Submit(ctx, Request{Kind: "bcast", Size: 4096, Seed: int64(i + 1)}); err != nil {
				t.Fatalf("bystander Submit: %v", err)
			}
			out = append(out, time.Since(start))
		}
		return out
	}
	controlP99 := quantile(measure(), 0.99)

	cfg := tenantHealthCfg()
	deg, err := srv.CreateTenant(TenantConfig{
		Name: "degraded", Ranks: 16, Topology: "zoot",
		Fault:  &fault.Plan{SlowLinks: map[[2]int]time.Duration{{0, 4}: 3 * time.Millisecond}},
		Health: &cfg,
	})
	if err != nil {
		t.Fatalf("CreateTenant degraded: %v", err)
	}
	var stop atomic.Bool
	degDone := make(chan int)
	go func() {
		n := 0
		for ; !stop.Load(); n++ {
			if _, err := deg.Submit(ctx, Request{Kind: "bcast", Size: 4096, Seed: int64(n + 1)}); err != nil {
				break
			}
		}
		degDone <- n
	}()
	faultedP99 := quantile(measure(), 0.99)
	// The p99 window above overlapped the degradation; now let the
	// degraded tenant keep churning until its scorer demotes the
	// stalled pair (detection needs a handful of collectives of
	// evidence).
	hs := deg.World().Health()
	stalledDown := func() bool { return hs.Snapshot().Demoted(0, 4) }
	for i := 0; i < 400 && !stalledDown(); i++ {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	degOps := <-degDone

	if !stalledDown() {
		t.Errorf("degraded tenant ran %d collectives without demoting the stalled link — the cell never degraded", degOps)
	}
	budget := time.Duration(1.5*float64(controlP99)) + 5*time.Millisecond
	t.Logf("bystander p99: control %v, alongside degradation %v (budget %v); degraded tenant ran %d ops",
		controlP99, faultedP99, budget, degOps)
	if faultedP99 > budget {
		t.Errorf("bystander p99 %v exceeds budget %v while a neighbor degrades and self-heals", faultedP99, budget)
	}
	if err := deg.Free(); err != nil {
		t.Fatalf("Free degraded: %v", err)
	}
	if err := by.Free(); err != nil {
		t.Fatalf("Free bystander: %v", err)
	}
}
