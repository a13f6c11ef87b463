// Package des is a flow-level discrete-event simulator for communication
// schedules. Each copy operation becomes, after its dependencies resolve
// and its fixed start latency elapses, a *flow* that streams bytes through
// a set of hardware resources (memory controllers, front-side buses,
// HyperTransport uplinks, board bridges, core copy engines, shared
// caches). Concurrent flows share every resource max–min fairly, so
// contention effects — the memory-controller hot-spots and slow-link
// crossings the paper's distance-aware topologies avoid — emerge from the
// schedule structure rather than from closed-form formulas.
//
// All simulator state is flat and int-indexed (ops and resources by id),
// allocated once per Simulate call. Every loop over flows runs in ascending
// op id and bottleneck ties go to the lowest resource id: the floating-point
// sums of the fair-share computation therefore happen in one fixed order,
// and a simulation is bit-identical run to run (DESIGN.md §2).
package des

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"distcoll/internal/sched"
)

// ResourceID names a resource registered with a Platform.
type ResourceID int

// Use is one resource demand of a flow: the flow consumes Demand bytes of
// the resource's capacity per byte transferred (e.g. a local copy loads
// its memory controller with demand 2: one read + one write).
type Use struct {
	Resource ResourceID
	Demand   float64
}

type resource struct {
	kind  string
	index int     // -1: kind is the whole name
	cap   float64 // bytes/second
}

// Platform is the set of shared resources flows compete for.
type Platform struct {
	res []resource
}

// NewPlatform returns an empty platform.
func NewPlatform() *Platform { return &Platform{} }

// AddResource registers a resource with the given capacity in bytes/second
// and returns its id.
func (p *Platform) AddResource(name string, bytesPerSec float64) ResourceID {
	return p.AddIndexed(name, -1, bytesPerSec)
}

// AddIndexed registers the index-th resource of a kind ("uplink", 3 is
// named "uplink3"); the name is only formatted when Name asks for it.
func (p *Platform) AddIndexed(kind string, index int, bytesPerSec float64) ResourceID {
	p.res = append(p.res, resource{kind, index, bytesPerSec})
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("des: resource %q capacity %g", p.Name(ResourceID(len(p.res)-1)), bytesPerSec))
	}
	return ResourceID(len(p.res) - 1)
}

// NumResources returns the number of registered resources.
func (p *Platform) NumResources() int { return len(p.res) }

// Name returns a resource's name.
func (p *Platform) Name(id ResourceID) string {
	r := p.res[id]
	if r.index < 0 {
		return r.kind
	}
	return r.kind + strconv.Itoa(r.index)
}

// Capacity returns a resource's capacity.
func (p *Platform) Capacity(id ResourceID) float64 { return p.res[id].cap }

// CostModel maps schedule operations onto platform costs. Implementations
// may be stateful (cache tracking): Uses is called exactly once per op at
// flow start time, Observe exactly once at completion, both in simulated
// time order.
type CostModel interface {
	// Platform returns the resource set flows run on.
	Platform() *Platform
	// StartLatency is the fixed cost paid before an op's data phase
	// (kernel traps, cookie creation, handshakes).
	StartLatency(op *sched.Op) float64
	// NotifyLatency is the out-of-band notification delay charged when an
	// op depends on an op executed by another rank.
	NotifyLatency(from, to int) float64
	// Uses returns the resource demands of the op's data phase. Ops with
	// zero bytes or an empty use set complete right after StartLatency.
	// The slice must stay untouched until the op's Observe.
	Uses(op *sched.Op) []Use
	// Observe is invoked when the op completes (cache bookkeeping).
	Observe(op *sched.Op)
}

// Result summarizes one simulated schedule execution.
type Result struct {
	// Makespan is the completion time of the last operation, in seconds.
	Makespan float64
	// OpStart holds each op's start time (dependencies and notifications
	// resolved, before the fixed start latency).
	OpStart []float64
	// OpFinish holds each op's completion time.
	OpFinish []float64
	// Utilization holds, by ResourceID, the fraction of capacity·makespan
	// the resource carried (diagnostic; nil when the makespan is zero).
	// Platform names the resources.
	Utilization []float64
	Platform    *Platform
	// BusiestResource and BusiestUtilization report the resource with the
	// highest utilization.
	BusiestResource    string
	BusiestUtilization float64
}

type eventKind uint8

const (
	evReady eventKind = iota // op's deps + notify done → start latency
	evLatencyDone
	evFlowCheck // re-examine flow completion (version-guarded)
)

type event struct {
	time    float64
	op      int32
	version int32
	kind    eventKind
}

func (e event) before(o event) bool {
	return e.time < o.time || (e.time == o.time && e.op < o.op)
}

// eventHeap is a binary min-heap of event values ordered by (time, op).
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0 && s[i].before(s[(i-1)/2]); i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if c >= n || !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s[:n]
	return s[n]
}

// flowState is the data phase of one op; uses is non-nil while it runs.
type flowState struct {
	remaining float64
	rate      float64
	uses      []Use
	frozenAt  int32 // the reallocation that last fixed rate
}

func (f *flowState) loads(r ResourceID) bool {
	for _, u := range f.uses {
		if u.Resource == r {
			return true
		}
	}
	return false
}

// sim is the state of one Simulate call: everything is indexed by op id or
// resource id, allocated once, and dies with the call.
type sim struct {
	s     *sched.Schedule
	model CostModel
	plat  *Platform
	res   *Result

	now       float64
	events    eventHeap
	version   int32 // reallocations so far; a completion check posted by an earlier one is stale
	completed int

	// Dependents in CSR form: completing op i releases
	// deps[depStart[i]:depStart[i+1]], ascending.
	indeg, depStart, deps []int32
	readyTime             []float64

	flows  []flowState // by op id
	active []int32     // ops whose flow is running, ascending

	// Progressive-filling scratch by resource id, reset at each
	// reallocation for the resources in touched (those inUse) only.
	capLeft, demand []float64
	inUse           []bool
	touched         []ResourceID
	carried         []float64 // bytes·demand carried, by resource id
}

// Simulate runs the schedule against the cost model and returns timing.
func Simulate(s *sched.Schedule, model CostModel) (*Result, error) {
	if _, err := s.Index(); err != nil { // validity, memoised on the schedule
		return nil, err
	}
	plat := model.Platform()
	n, nres := len(s.Ops), plat.NumResources()
	res := &Result{OpStart: make([]float64, n), OpFinish: make([]float64, n), Platform: plat}
	if n == 0 {
		return res, nil
	}
	m := sim{
		s: s, model: model, plat: plat, res: res,
		events:    make(eventHeap, 0, 2*n),
		indeg:     make([]int32, n),
		readyTime: make([]float64, n),
		flows:     make([]flowState, n),
		active:    make([]int32, 0, s.NumRanks),
		capLeft:   make([]float64, nres),
		demand:    make([]float64, nres),
		inUse:     make([]bool, nres),
		carried:   make([]float64, nres),
		touched:   make([]ResourceID, 0, nres),
	}
	// Count op d's dependents two slots up, so that after the prefix sum
	// depStart[d+1] is where d's run starts; filling advances it to where
	// the run ends, which is where d+1's starts.
	start := make([]int32, n+2)
	edges := 0
	for i := range s.Ops {
		m.indeg[i] = int32(len(s.Ops[i].Deps))
		edges += len(s.Ops[i].Deps)
		for _, d := range s.Ops[i].Deps {
			start[d+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	m.deps = make([]int32, edges)
	for i := range s.Ops {
		for _, d := range s.Ops[i].Deps {
			m.deps[start[d+1]] = int32(i)
			start[d+1]++
		}
	}
	m.depStart = start[:n+1]

	for i := range s.Ops {
		if m.indeg[i] == 0 {
			m.events.push(event{kind: evReady, op: int32(i)})
		}
	}
	for len(m.events) > 0 {
		e := m.events.pop()
		if e.time < m.now {
			return nil, fmt.Errorf("des: time went backwards (%g < %g)", e.time, m.now)
		}
		if e.time > m.now { // drain the elapsed time's progress
			for _, id := range m.active {
				f := &m.flows[id]
				f.remaining = max(0, f.remaining-f.rate*(e.time-m.now))
			}
			m.now = e.time
		}
		switch e.kind {
		case evReady:
			res.OpStart[e.op] = m.now
			m.events.push(event{time: m.now + model.StartLatency(&s.Ops[e.op]), kind: evLatencyDone, op: e.op})
		case evLatencyDone:
			op := &s.Ops[e.op]
			uses := model.Uses(op)
			if op.Bytes <= 0 || len(uses) == 0 {
				m.complete(e.op)
				continue
			}
			m.flows[e.op] = flowState{remaining: float64(op.Bytes), uses: uses}
			at, _ := slices.BinarySearch(m.active, e.op)
			m.active = slices.Insert(m.active, at, e.op)
			for _, u := range uses {
				m.carried[u.Resource] += float64(op.Bytes) * u.Demand
			}
			m.reallocate()
		case evFlowCheck:
			f := &m.flows[e.op]
			if e.version != m.version || f.uses == nil {
				continue // stale
			}
			if f.remaining > 1e-6 {
				// Floating-point residue: repost at the projected finish.
				if f.rate > 0 {
					m.events.push(event{time: m.now + f.remaining/f.rate, kind: evFlowCheck, op: e.op, version: m.version})
				}
				continue
			}
			f.uses = nil
			at, _ := slices.BinarySearch(m.active, e.op)
			m.active = slices.Delete(m.active, at, at+1)
			m.complete(e.op)
			m.reallocate()
		}
	}
	if m.completed != n {
		return nil, fmt.Errorf("des: %d of %d ops completed (stuck flows?)", m.completed, n)
	}
	// Per-resource utilization: bytes·demand normalized by
	// capacity·makespan.
	if res.Makespan > 0 {
		res.Utilization = m.carried
		busiest := 0
		for i, b := range m.carried {
			u := b / (plat.res[i].cap * res.Makespan)
			m.carried[i] = u
			if u > m.carried[busiest] {
				busiest = i
			}
		}
		if len(m.carried) > 0 {
			res.BusiestResource, res.BusiestUtilization = plat.Name(ResourceID(busiest)), m.carried[busiest]
		}
	}
	return res, nil
}

// complete records op i's finish and releases its dependents.
func (m *sim) complete(i int32) {
	op := &m.s.Ops[i]
	m.res.OpFinish[i] = m.now
	if m.now > m.res.Makespan {
		m.res.Makespan = m.now
	}
	m.completed++
	m.model.Observe(op)
	for _, j := range m.deps[m.depStart[i]:m.depStart[i+1]] {
		t := m.now
		if to := m.s.Ops[j].Rank; to != op.Rank {
			t += m.model.NotifyLatency(op.Rank, to)
		}
		if t > m.readyTime[j] {
			m.readyTime[j] = t
		}
		if m.indeg[j]--; m.indeg[j] == 0 {
			m.events.push(event{time: m.readyTime[j], kind: evReady, op: j})
		}
	}
}

// reallocate recomputes the weighted max–min fair rates (progressive
// filling: all unfrozen flows share one rate; the tightest resource, the
// lowest id among equals, freezes its flows) and reposts one completion
// check per running flow.
func (m *sim) reallocate() {
	m.version++
	if len(m.active) == 0 {
		return
	}
	for _, r := range m.touched {
		m.inUse[r] = false
	}
	m.touched = m.touched[:0]
	for _, id := range m.active {
		for _, u := range m.flows[id].uses {
			r := u.Resource
			if !m.inUse[r] {
				m.inUse[r] = true
				m.touched = append(m.touched, r)
				m.capLeft[r], m.demand[r] = m.plat.res[r].cap, 0
			}
			m.demand[r] += u.Demand
		}
	}
	for unfrozen := len(m.active); unfrozen > 0; {
		minRate := math.Inf(1)
		var bottleneck ResourceID = -1
		for _, r := range m.touched {
			if m.demand[r] <= 0 {
				continue
			}
			if rate := m.capLeft[r] / m.demand[r]; rate < minRate || (rate == minRate && r < bottleneck) {
				minRate, bottleneck = rate, r
			}
		}
		if bottleneck == -1 {
			// No constraining resource (shouldn't happen: every flow has
			// at least one use). Give the rest infinite rate.
			for _, id := range m.active {
				if f := &m.flows[id]; f.frozenAt != m.version {
					f.rate = math.Inf(1)
				}
			}
			break
		}
		m.demand[bottleneck] = 0
		for _, id := range m.active {
			f := &m.flows[id]
			if f.frozenAt == m.version || !f.loads(bottleneck) {
				continue
			}
			f.rate, f.frozenAt = minRate, m.version
			unfrozen--
			// Release this flow's demand from other resources and charge
			// its bandwidth there.
			for _, u := range f.uses {
				if r := u.Resource; r != bottleneck {
					m.demand[r] -= u.Demand
					m.capLeft[r] -= u.Demand * minRate
					if m.capLeft[r] < 0 {
						m.capLeft[r] = 0
					}
				}
			}
		}
	}
	for _, id := range m.active {
		f := &m.flows[id]
		finish := m.now
		if f.rate > 0 && !math.IsInf(f.rate, 1) {
			finish = m.now + f.remaining/f.rate
		}
		m.events.push(event{time: finish, kind: evFlowCheck, op: id, version: m.version})
	}
}
