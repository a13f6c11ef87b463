package autotune

import (
	"fmt"

	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// Pricer prices candidate decisions against a fitted model: it compiles
// the decision's schedule through the calibrator's own compile path
// (tune.CompileFor) and flow-simulates it with per-edge costs taken from
// the model instead of the offline machine constants. Two decisions are
// thus compared on exactly the schedules the runtime would execute, but
// with costs the runtime itself measured.
type Pricer struct {
	model *Model
	view  distance.View
	plat  *des.Platform // engine r is resource r; shared by every pricing
}

// NewPricer builds a pricer for one topology.
func NewPricer(m *Model, v distance.View) *Pricer {
	plat := des.NewPlatform()
	for r := 0; r < v.Size(); r++ {
		// Capacity 1 "work-second per second": a demand of β seconds/byte
		// then makes b bytes take β·b seconds, serialized per rank.
		plat.AddIndexed("engine", r, 1.0)
	}
	return &Pricer{model: m, view: v, plat: plat}
}

// Price returns the simulated makespan in seconds of running coll with
// decision d over the pricer's topology at the given size.
func (p *Pricer) Price(coll tune.Collective, d tune.Decision, root int, bytes, align int64) (float64, error) {
	if p.model == nil || len(p.model.Classes) == 0 {
		return 0, fmt.Errorf("autotune: pricing with an empty model")
	}
	s, err := tune.CompileFor(coll, d, p.view, root, bytes, align)
	if err != nil {
		return 0, err
	}
	if s.NumRanks != p.view.Size() {
		return 0, fmt.Errorf("autotune: schedule has %d ranks, view %d", s.NumRanks, p.view.Size())
	}
	res, err := des.Simulate(s, &fitCost{model: p.model, view: p.view, plat: p.plat, s: s, uses: make([]des.Use, len(s.Ops))})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// fitCost is the des.CostModel backed by fitted Hockney parameters: one
// engine resource per rank (so a rank's copies serialize, as they do in
// the executor), per-op demand β_d seconds per byte of the op's edge
// class, and start latency α_d. Notification latency is zero — the
// measured per-copy durations the α fit is based on already include the
// runtime's dependency-wait overheads, so charging them again would
// double-count.
type fitCost struct {
	model *Model
	view  distance.View
	plat  *des.Platform
	s     *sched.Schedule
	// uses[id] is op id's use set: a slot per op, not per rank, because a
	// rank's send and receive chains can have flows running at once.
	uses []des.Use
}

// edgeClass is the distance class of the op's transfer edge: the ranks
// owning the source and destination buffers.
func (c *fitCost) edgeClass(op *sched.Op) int {
	src := c.s.Buffers[op.Src].Rank
	dst := c.s.Buffers[op.Dst].Rank
	if src < 0 || dst < 0 || src >= c.view.Size() || dst >= c.view.Size() {
		return 0
	}
	return c.view.At(src, dst)
}

func (c *fitCost) Platform() *des.Platform { return c.plat }

func (c *fitCost) StartLatency(op *sched.Op) float64 {
	if op.Bytes <= 0 {
		return 0
	}
	f, _ := c.model.Fit(c.edgeClass(op))
	return f.Alpha
}

func (c *fitCost) NotifyLatency(from, to int) float64 { return 0 }

func (c *fitCost) Uses(op *sched.Op) []des.Use {
	if op.Bytes <= 0 {
		return nil
	}
	f, _ := c.model.Fit(c.edgeClass(op))
	if f.SecPerByte <= 0 {
		return nil
	}
	c.uses[op.ID] = des.Use{Resource: des.ResourceID(op.Rank), Demand: f.SecPerByte}
	return c.uses[op.ID : op.ID+1 : op.ID+1]
}

func (c *fitCost) Observe(op *sched.Op) {}
