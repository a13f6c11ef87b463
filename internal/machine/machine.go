// Package machine turns a hardware topology plus a process binding into a
// des.CostModel: the performance model under every figure reproduction.
//
// Resources derived from the topology:
//
//   - one memory controller per NUMA node (IG) or a single northbridge
//     controller (Zoot), with combined read+write capacity;
//   - one uplink per socket: the front-side bus on Zoot, the
//     HyperTransport port on IG — all traffic entering or leaving the
//     socket's cores (UMA) or memory (NUMA) crosses it;
//   - one bridge between boards (IG's inter-board interlink);
//   - one copy engine per bound core (a rank copies at most at its core's
//     memcpy rate);
//   - one resource per shared cache, used when the cache-reuse model is
//     enabled and a read hits a segment recently touched by a core sharing
//     that cache (IMB without -off_cache, Fig. 2).
//
// First-touch placement: a rank's buffers live on its core's NUMA node.
// A copy by rank R from a buffer on node A to a buffer on node B loads the
// read path (MC(A) + links from R's socket to A), the write path (MC(B) +
// links to B) and R's engine; concurrent copies share all of it max–min
// fairly in the simulator.
package machine

import (
	"fmt"

	"distcoll/internal/binding"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// Params are the calibrated performance constants of a machine. Bandwidths
// are bytes/second, latencies seconds.
type Params struct {
	MCBandwidth     float64 // per memory controller, combined read+write
	UplinkBandwidth float64 // per-socket FSB / HyperTransport port
	BridgeBandwidth float64 // inter-board interlink (0 on single-board)
	CoreCopyBW      float64 // single-core memcpy throughput
	CacheBandwidth  float64 // shared-cache transfer rate

	LocalLatency    float64 // plain memcpy start
	ShmLatency      float64 // shared-memory fragment handshake
	KnemSetupLat    float64 // region declaration / cookie (0-byte knem op)
	KnemCopyLatency float64 // kernel trap for one knem copy

	NotifyBase        float64 // out-of-band notification, same socket
	NotifyPerDistance float64 // added per unit of process distance

	// Network resources for multi-node cluster topologies (the §VI
	// extension). Zero values are fine for single-node machines; a
	// cluster topology requires NICBandwidth and SwitchBandwidth (and
	// TrunkBandwidth with more than one switch, SpineBandwidth with more
	// than one rack).
	NICBandwidth     float64 // per node network adapter
	SwitchBandwidth  float64 // per switch backplane
	TrunkBandwidth   float64 // per-rack inter-switch trunk
	SpineBandwidth   float64 // cluster spine between racks
	NetworkOpLatency float64 // added start latency for inter-node ops

	// CacheModel enables cache-residency tracking for reads: a segment
	// recently written or read by a core is served from the innermost
	// fitting cache shared with the reader instead of memory. All buffers
	// start cold, which matches IMB's -off_cache semantics for collective
	// *sources*; hits arise only from forwarding inside one collective,
	// which is physical on any machine. Disable for the write-through
	// memory-only ablation.
	CacheModel bool
}

// ZootParams returns constants for the 16-core Tigerton SMP node,
// calibrated so aggregate bandwidths land in the paper's ranges
// (2.5 GB/s MPICH broadcast, ~4.5 GB/s KNEM linear broadcast).
func ZootParams() Params {
	return Params{
		MCBandwidth:       12.8e9,
		UplinkBandwidth:   3.6e9,
		BridgeBandwidth:   0,
		CoreCopyBW:        3.2e9,
		CacheBandwidth:    12e9,
		LocalLatency:      0.1e-6,
		ShmLatency:        0.3e-6,
		KnemSetupLat:      3e-6,
		KnemCopyLatency:   7e-6,
		NotifyBase:        0.2e-6,
		NotifyPerDistance: 0.15e-6,
		CacheModel:        true,
	}
}

// IGParams returns constants for the 48-core dual-board Istanbul node
// (paper ranges: ~25 GB/s tuned broadcast contiguous, ~30 GB/s allgather).
func IGParams() Params {
	return Params{
		MCBandwidth:       8.0e9,
		UplinkBandwidth:   2.0e9,
		BridgeBandwidth:   4.0e9,
		CoreCopyBW:        2.8e9,
		CacheBandwidth:    12e9,
		LocalLatency:      0.1e-6,
		ShmLatency:        0.3e-6,
		KnemSetupLat:      3e-6,
		KnemCopyLatency:   7e-6,
		NotifyBase:        0.2e-6,
		NotifyPerDistance: 0.15e-6,
		CacheModel:        true,
	}
}

// ClusterParams extends a node parameter set with network constants for
// a multi-node cluster: ~10GbE-class adapters, a non-blocking switch
// backplane and a thinner inter-switch trunk.
func ClusterParams(node Params) Params {
	node.NICBandwidth = 1.2e9
	node.SwitchBandwidth = 16e9
	node.TrunkBandwidth = 4e9
	node.NetworkOpLatency = 15e-6
	return node
}

// RackParams extends cluster parameters with the rack tier: per-rack
// trunks as before, plus a cluster spine between racks that is thinner
// per flow than the rack-local interconnect — the resource the two-phase
// leader trees exist to keep quiet.
func RackParams(node Params) Params {
	p := ClusterParams(node)
	p.SpineBandwidth = 6e9
	return p
}

// ParamsFor returns the calibrated parameter set for a known machine name.
func ParamsFor(name string) (Params, error) {
	switch name {
	case "zoot":
		return ZootParams(), nil
	case "ig":
		return IGParams(), nil
	case "igcluster":
		return ClusterParams(IGParams()), nil
	case "igrack":
		return RackParams(IGParams()), nil
	default:
		return Params{}, fmt.Errorf("machine: no calibrated parameters for %q", name)
	}
}

type segKey struct {
	buf sched.BufID
	off int64
	len int64
}

// place is where one rank sits: its core, the machine and board above it,
// and the resources its traffic loads (-1 where the topology has none).
type place struct {
	core           *hwtopo.Object
	machine, board int
	uma            bool           // the controller is a machine-level northbridge
	engine         des.ResourceID // the core's copy engine
	mc             des.ResourceID // memory controller of the rank's first-touch domain
	uplink, bridge des.ResourceID // socket FSB / HT port; inter-board interlink
	nic, sw, trunk des.ResourceID // network adapter, switch, rack trunk
}

// Model is the part of the cost model that depends only on (binding,
// params): the platform and every rank's placement. It is immutable once
// built, so one Model serves any number of concurrent Sessions — a
// calibration sweep builds it once.
type Model struct {
	params    Params
	bind      *binding.Binding
	plat      *des.Platform
	ranks     []place
	spine     des.ResourceID // -1 if at most one rack
	cacheBase des.ResourceID // resource of cache #0, the rest follow by Index; -1 without the cache model
	network   bool           // multi-node: inter-node ops pay NetworkOpLatency
}

// cacheKinds are the resource-name prefixes of the shared caches by level.
var cacheKinds = [...]string{"L0#", "L1#", "L2#", "L3#", "L4#"}

// NewModel builds the cost model of bind's topology with ranks placed by
// bind.
func NewModel(bind *binding.Binding, params Params) (*Model, error) {
	topo := bind.Topology()
	plat := des.NewPlatform()
	m := &Model{params: params, bind: bind, plat: plat, spine: -1, cacheBase: -1}

	machines := topo.ObjectsOfKind(hwtopo.KindMachine)
	switches := topo.ObjectsOfKind(hwtopo.KindSwitch)
	// Resources of one kind get consecutive ids, so the first id locates
	// the rest by object index.
	addAll := func(kind string, n int, bw float64) des.ResourceID {
		for i := 0; i < n; i++ {
			plat.AddIndexed(kind, i, bw)
		}
		return des.ResourceID(plat.NumResources() - n)
	}
	uplink0 := addAll("uplink", len(topo.ObjectsOfKind(hwtopo.KindSocket)), params.UplinkBandwidth)
	// One inter-board bridge per machine that has multiple boards.
	bridges := make([]des.ResourceID, len(machines))
	for i, mo := range machines {
		bridges[i] = -1
		nBoards := 0
		for _, c := range mo.Children {
			if c.Kind == hwtopo.KindBoard {
				nBoards++
			}
		}
		if nBoards > 1 {
			if params.BridgeBandwidth <= 0 {
				return nil, fmt.Errorf("machine: multi-board topology %q needs BridgeBandwidth", topo.Name)
			}
			bridges[i] = plat.AddIndexed("bridge", i, params.BridgeBandwidth)
		}
	}
	// Network resources for clusters.
	nic0, switch0, trunk0 := des.ResourceID(-1), des.ResourceID(-1), des.ResourceID(-1)
	if len(machines) > 1 {
		if params.NICBandwidth <= 0 || params.SwitchBandwidth <= 0 {
			return nil, fmt.Errorf("machine: cluster topology %q needs NICBandwidth and SwitchBandwidth", topo.Name)
		}
		if len(switches) == 0 {
			return nil, fmt.Errorf("machine: cluster topology %q has no switch", topo.Name)
		}
		m.network = true
		nic0 = addAll("nic", len(machines), params.NICBandwidth)
		switch0 = addAll("switch", len(switches), params.SwitchBandwidth)
		if len(switches) > 1 {
			if params.TrunkBandwidth <= 0 {
				return nil, fmt.Errorf("machine: multi-switch topology %q needs TrunkBandwidth", topo.Name)
			}
			// One trunk per rack; topologies without rack objects are a
			// single implicit rack sharing one trunk (the pre-rack model).
			nRacks := max(1, len(topo.ObjectsOfKind(hwtopo.KindRack)))
			trunk0 = addAll("trunk", nRacks, params.TrunkBandwidth)
			if nRacks > 1 {
				if params.SpineBandwidth <= 0 {
					return nil, fmt.Errorf("machine: multi-rack topology %q needs SpineBandwidth", topo.Name)
				}
				m.spine = plat.AddResource("spine", params.SpineBandwidth)
			}
		}
	}

	// Memory domains: one per memory-controller owner (NUMA nodes on IG,
	// one machine-level northbridge per Zoot node), numbered as ranks
	// first reach them.
	domains := make(map[*hwtopo.Object]des.ResourceID)
	m.ranks = make([]place, bind.NumRanks())
	for r := range m.ranks {
		core := bind.CoreObject(r)
		owner := hwtopo.MemoryControllerOf(core)
		if owner == nil {
			return nil, fmt.Errorf("machine: core %v has no memory controller", core)
		}
		mc, ok := domains[owner]
		if !ok {
			mc = plat.AddIndexed("mc", len(domains), params.MCBandwidth)
			domains[owner] = mc
		}
		p := place{core: core, uma: owner.Kind != hwtopo.KindNUMANode, mc: mc,
			uplink: uplink0 + des.ResourceID(core.AncestorOfKind(hwtopo.KindSocket).Index),
			bridge: -1, nic: -1, sw: -1, trunk: -1}
		if b := core.AncestorOfKind(hwtopo.KindBoard); b != nil {
			p.board = b.Index
		}
		if mo := hwtopo.MachineOf(core); mo != nil {
			p.machine = mo.Index
			p.bridge = bridges[mo.Index]
		}
		if nic0 >= 0 {
			p.nic = nic0 + des.ResourceID(p.machine)
			p.sw = switch0
			if sw := hwtopo.SwitchOf(core); sw != nil {
				p.sw += des.ResourceID(sw.Index)
			}
		}
		if trunk0 >= 0 {
			p.trunk = trunk0
			if rk := hwtopo.RackOf(core); rk != nil {
				p.trunk += des.ResourceID(rk.Index)
			}
		}
		p.engine = plat.AddIndexed("core", core.Index, params.CoreCopyBW)
		m.ranks[r] = p
	}
	if params.CacheModel {
		m.cacheBase = des.ResourceID(plat.NumResources())
		for _, c := range topo.ObjectsOfKind(hwtopo.KindCache) {
			if c.CacheLevel >= 0 && c.CacheLevel < len(cacheKinds) {
				plat.AddIndexed(cacheKinds[c.CacheLevel], c.Index, params.CacheBandwidth)
			} else {
				plat.AddIndexed(fmt.Sprintf("L%d#", c.CacheLevel), c.Index, params.CacheBandwidth)
			}
		}
	}
	return m, nil
}

// Binding returns the placement the model was built for.
func (m *Model) Binding() *binding.Binding { return m.bind }

// NewSession returns the cost model of one execution of s on m.
func (m *Model) NewSession(s *sched.Schedule) (*Session, error) {
	if s.NumRanks != len(m.ranks) {
		return nil, fmt.Errorf("machine: schedule has %d ranks, binding %d", s.NumRanks, len(m.ranks))
	}
	return &Session{model: m, s: s, demand: make([]float64, m.plat.NumResources()), ids: make([]des.ResourceID, 0, 16)}, nil
}

// Simulate runs s on the modelled machine.
func (m *Model) Simulate(s *sched.Schedule) (*des.Result, error) {
	sess, err := m.NewSession(s)
	if err != nil {
		return nil, err
	}
	return des.Simulate(s, sess)
}

// Session implements des.CostModel for one schedule execution on a Model.
// Sessions are single-use: cache-residency state accumulates over a run,
// and the use sets handed to the simulator live in the session's arena.
type Session struct {
	model *Model
	s     *sched.Schedule

	// Uses scratch: the demand of the op being priced by resource id (all
	// zero between calls) and the resources it loads, ascending.
	demand []float64
	ids    []des.ResourceID
	arena  []des.Use // unused tail of the current chunk

	// Cache residency: segment → cores that recently touched it.
	touched map[segKey]touchers
}

const maxTouchers = 4

type touchers struct {
	n     int
	cores [maxTouchers]*hwtopo.Object // oldest first
}

// NewSession builds the cost model for executing s with ranks placed by
// bind on bind's topology.
func NewSession(bind *binding.Binding, params Params, s *sched.Schedule) (*Session, error) {
	m, err := NewModel(bind, params)
	if err != nil {
		return nil, err
	}
	return m.NewSession(s)
}

// Platform implements des.CostModel.
func (ss *Session) Platform() *des.Platform { return ss.model.plat }

// StartLatency implements des.CostModel.
func (ss *Session) StartLatency(op *sched.Op) float64 {
	m := ss.model
	var base float64
	switch op.Mode {
	case sched.ModeLocal:
		base = m.params.LocalLatency
	case sched.ModeShm:
		base = m.params.ShmLatency
	case sched.ModeKnem:
		if op.Bytes == 0 {
			base = m.params.KnemSetupLat
		} else {
			base = m.params.KnemCopyLatency
		}
	default:
		base = m.params.LocalLatency
	}
	if m.network && op.Bytes > 0 {
		exec := m.ranks[op.Rank].machine
		if m.ranks[ss.s.Buffers[op.Src].Rank].machine != exec || m.ranks[ss.s.Buffers[op.Dst].Rank].machine != exec {
			base += m.params.NetworkOpLatency
		}
	}
	return base
}

// NotifyLatency implements des.CostModel.
func (ss *Session) NotifyLatency(from, to int) float64 {
	m := ss.model
	d := distance.BetweenCores(m.ranks[from].core, m.ranks[to].core)
	return m.params.NotifyBase + m.params.NotifyPerDistance*float64(d)
}

// Uses implements des.CostModel: the resource demands of one copy, in
// ascending resource id.
func (ss *Session) Uses(op *sched.Op) []des.Use {
	if op.Bytes <= 0 {
		return nil
	}
	m := ss.model
	exec := &m.ranks[op.Rank]
	src := &m.ranks[ss.s.Buffers[op.Src].Rank]
	dst := &m.ranks[ss.s.Buffers[op.Dst].Rank]

	ss.add(exec.engine, 1)
	// Read leg: from the source buffer's memory (or a cache on a hit)
	// into the executing core.
	if cache, ok := ss.cacheHit(op, exec); ok {
		ss.add(cache, 1)
	} else {
		ss.add(src.mc, 1)
		ss.addPath(exec, src, 1)
	}
	// Write leg: from the executing core into the destination memory.
	// A cached write still costs two memory transactions per byte
	// (read-for-ownership plus eventual writeback) — the classic 3-beat
	// memcpy traffic, and the reason the paper's Zoot broadcast saturates
	// its single controller with writes whatever the read side does.
	// A reduce additionally reads the destination before combining.
	writeWeight := 2.0
	if op.Kind == sched.OpReduce {
		writeWeight = 3.0
	}
	ss.add(dst.mc, writeWeight)
	ss.addPath(exec, dst, writeWeight)

	if len(ss.arena) < len(ss.ids) {
		ss.arena = make([]des.Use, max(len(ss.ids), min(4*len(ss.s.Ops), 2048)))
	}
	uses := ss.arena[:len(ss.ids):len(ss.ids)]
	ss.arena = ss.arena[len(ss.ids):]
	for i, r := range ss.ids {
		uses[i] = des.Use{Resource: r, Demand: ss.demand[r]}
		ss.demand[r] = 0
	}
	ss.ids = ss.ids[:0]
	return uses
}

// add charges weight to resource r for the op being priced.
func (ss *Session) add(r des.ResourceID, weight float64) {
	if ss.demand[r] == 0 {
		i := len(ss.ids)
		ss.ids = append(ss.ids, r)
		for ; i > 0 && ss.ids[i-1] > r; i-- {
			ss.ids[i] = ss.ids[i-1]
		}
		ss.ids[i] = r
	}
	ss.demand[r] += weight
}

// addPath charges the links between the executing rank's core and the
// memory domain of the buffer owner mem, weighted by the leg's per-byte
// transaction count.
func (ss *Session) addPath(exec, mem *place, weight float64) {
	if exec.machine != mem.machine {
		// Inter-node: the transfer crosses both network adapters and the
		// switching fabric (NIC bandwidth dominates the on-node links).
		ss.add(exec.nic, weight)
		ss.add(mem.nic, weight)
		ss.add(exec.sw, weight)
		if exec.sw != mem.sw {
			ss.add(mem.sw, weight)
			ss.add(exec.trunk, weight)
			if exec.trunk != mem.trunk {
				// Cross-rack: up one rack's trunk, across the spine, down
				// the other rack's trunk.
				ss.add(mem.trunk, weight)
				ss.add(ss.model.spine, weight)
			}
		}
		return
	}
	if exec.uma {
		// UMA northbridge: every access flows over the executing socket's
		// FSB.
		ss.add(exec.uplink, weight)
		return
	}
	if exec.mc == mem.mc {
		return // local access, on-die controller
	}
	ss.add(exec.uplink, weight)
	ss.add(mem.uplink, weight)
	if exec.bridge >= 0 && exec.board != mem.board {
		ss.add(exec.bridge, weight)
	}
}

// cacheHit reports whether the op's source segment is resident in a cache
// reachable by the executing core: some recent toucher shares a cache with
// it, and walking outward from the innermost shared level finds a cache
// large enough to have kept the segment (a core re-reading its own 128 KB
// chunk hits its socket L3 even though its private L1/L2 are too small).
//
// KNEM operations never hit: the kernel copies through its own mappings
// with streaming accesses, neither consuming nor producing user-visible
// cache residency. This is what annihilates the read-side benefit of the
// hierarchical tree in the paper's Fig. 8 discussion while leaving the
// user-space copy-in/copy-out path (Fig. 2) fully cache-sensitive.
func (ss *Session) cacheHit(op *sched.Op, exec *place) (des.ResourceID, bool) {
	if ss.model.cacheBase < 0 || op.Mode == sched.ModeKnem {
		return 0, false
	}
	t := ss.touched[segKey{buf: op.Src, off: op.SrcOff, len: op.Bytes}]
	for _, toucher := range t.cores[:t.n] {
		for c := hwtopo.SharedCache(exec.core, toucher); c != nil && c.IsCache(); c = c.Parent {
			if op.Bytes*2 <= c.SizeBytes {
				return ss.model.cacheBase + des.ResourceID(c.Index), true
			}
		}
	}
	return 0, false
}

// Observe implements des.CostModel: cache bookkeeping after an op. A
// write invalidates other cached copies of the destination segment and
// leaves it in the writer's caches; a read adds the reader as a holder
// (the oldest of maxTouchers makes room).
func (ss *Session) Observe(op *sched.Op) {
	if ss.model.cacheBase < 0 || op.Bytes <= 0 || op.Mode == sched.ModeKnem {
		return
	}
	if ss.touched == nil {
		ss.touched = make(map[segKey]touchers)
	}
	core := ss.model.ranks[op.Rank].core
	ss.touched[segKey{buf: op.Dst, off: op.DstOff, len: op.Bytes}] = touchers{n: 1, cores: [maxTouchers]*hwtopo.Object{core}}
	src := segKey{buf: op.Src, off: op.SrcOff, len: op.Bytes}
	t := ss.touched[src]
	for _, c := range t.cores[:t.n] {
		if c == core {
			return
		}
	}
	if t.n == maxTouchers {
		t.n = copy(t.cores[:], t.cores[1:])
	}
	t.cores[t.n] = core
	t.n++
	ss.touched[src] = t
}

// Simulate is a convenience wrapper: build the model and run the schedule.
// Callers simulating many schedules on one (binding, params) build the
// Model once instead.
func Simulate(bind *binding.Binding, params Params, s *sched.Schedule) (*des.Result, error) {
	m, err := NewModel(bind, params)
	if err != nil {
		return nil, err
	}
	return m.Simulate(s)
}
