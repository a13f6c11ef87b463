// Package health implements online gray-failure detection and
// self-healing (DESIGN.md §15).
//
// A gray-failed link moves bytes — so the watchdog stays quiet — but
// moves them slowly: its *effective* process distance has changed at
// runtime. The Scorer subscribes to the trace stream as a sink, keys the
// autotune estimator windows per (src, dst) endpoint pair instead of per
// distance class, and compares each edge's median copy time against the
// median across its distance-class peers. An edge that persistently
// exceeds DemoteRatio× its class baseline (minimum-sample gate plus a
// consecutive-strike hysteresis, the same discipline as tune.Overlay) is
// demoted: the published Snapshot raises its effective distance class to
// DemoteTo, and the demotion View overlay makes every existing
// greedy/hierarchical builder route around it with zero changes to their
// algorithms. A probation clock later lifts the demotion for one probe
// window; sustained recovery reinstates the edge, a relapse re-demotes
// it with doubled probation so a flapping link converges to stable
// demotion instead of plan-thrash.
//
// Edges are keyed by the (src, dst) ranks carried on copy events, which
// are world ranks for world-communicator traffic. Post-Shrink
// sub-communicators renumber ranks, so samples from shrunken comms are
// attributed best-effort; by then the hard-failure ladder (Agree/Shrink)
// has already taken over.
package health

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"distcoll/internal/autotune"
	"distcoll/internal/distance"
	"distcoll/internal/trace"
)

// Config tunes the gray-failure scorer. Zero values select defaults.
// Strikes, ProbationOps and ProbationMax are counted in collectives (the
// scorer's clock, see Emit), whatever the rank count.
type Config struct {
	// Window bounds each per-edge, per-size-bucket sample ring
	// (default 16).
	Window int
	// MinSamples is the minimum ring occupancy before an edge bucket is
	// judged against its class baseline (default 8).
	MinSamples int
	// DemoteRatio demotes an edge whose median exceeds ratio × the
	// class-baseline median (default 4).
	DemoteRatio float64
	// Strikes is the number of consecutive collectives whose closing scan
	// must find the edge over DemoteRatio before a demotion fires
	// (default 2).
	Strikes int
	// DemoteTo is the distance class demoted edges are raised to
	// (default distance.CrossSwitch). Edges already at or above it are
	// never demoted.
	DemoteTo int
	// ProbationOps is the number of collectives a fresh demotion waits
	// before its first probe (default 16). Doubled on every relapse,
	// capped at ProbationMax (default 512).
	ProbationOps int
	ProbationMax int
	// RankFraction and RankMinEdges control rank-level demotion: a rank
	// with ≥ RankMinEdges demoted edges (default 2) covering ≥
	// RankFraction (default 0.6) of one DIRECTIONAL side of its traffic
	// — the edges it predominantly serves, or the edges it
	// predominantly pulls — is demoted wholesale. Directional
	// consistency localizes the failure: a slow sender degrades every
	// link it serves and a slow receiver every link it pulls, while a
	// healthy neighbor of a sick rank collects at most one shared
	// demoted edge per side. At most one rank is demoted per scan, the
	// strongest candidate first; absorption then erases the shared
	// evidence before the next scan can cascade onto its neighbors.
	RankFraction float64
	RankMinEdges int
	// EscalateRatio hands a demoted rank to the hard-failure ladder
	// (OnDead → MarkFailed → Agree/Shrink) when its worst ratio at
	// demotion time is ≥ this. 0 disables escalation.
	EscalateRatio float64
}

// reinstateRatio ends a probe successfully when the probed ladder's worst
// ratio is ≤ this. Ratios between it and DemoteRatio keep the probe open —
// the hysteresis band.
const reinstateRatio = 1.5

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.DemoteRatio <= 0 {
		c.DemoteRatio = 4
	}
	if c.Strikes <= 0 {
		c.Strikes = 2
	}
	if c.DemoteTo <= 0 {
		c.DemoteTo = distance.CrossSwitch
	}
	if c.ProbationOps <= 0 {
		c.ProbationOps = 16
	}
	if c.ProbationMax <= 0 {
		c.ProbationMax = 512
	}
	if c.RankFraction <= 0 {
		c.RankFraction = 0.6
	}
	if c.RankMinEdges <= 0 {
		c.RankMinEdges = 2
	}
	return c
}

// Revision describes one topology-affecting health transition. Exactly
// one of Edge/Rank is meaningful: Rank is -1 for edge transitions, and
// Edge is {-1, -1} for rank transitions.
type Revision struct {
	Rev    int64
	Action string // "demote", "probe", "redemote", "rank-demote", "rank-probe", "rank-redemote"
	Edge   [2]int
	Rank   int
}

func edgeRev(action string, k [2]int) Revision { return Revision{Action: action, Edge: k, Rank: -1} }
func rankRev(action string, r int) Revision {
	return Revision{Action: action, Edge: [2]int{-1, -1}, Rank: r}
}

func (r Revision) String() string {
	if r.Rank >= 0 {
		return fmt.Sprintf("rev %d: %s rank %d", r.Rev, r.Action, r.Rank)
	}
	return fmt.Sprintf("rev %d: %s edge %d-%d", r.Rev, r.Action, r.Edge[0], r.Edge[1])
}

// ladder is the demotion state machine, written once: an edge and a rank
// climb the same one. Demoted → (probation expires) probing → reinstated
// or relapsed; every re-demotion, by relapse or after a reinstatement that
// did not stick, doubles the probation, so a flapping link converges to
// long probations instead of plan-thrash.
type ladder struct {
	demoted bool
	probing bool
	// probation is the current length, in collectives; it never shrinks.
	probation int64
	probeAt   int64   // clock at which the next probe opens
	worst     float64 // ratio that triggered the current demotion
}

// down reports a demotion in force: demoted and not lifted for a probe
// (false for the nil ladder of a rank never demoted). The published
// Snapshot holds exactly the ladders that are down.
func (l *ladder) down() bool { return l != nil && l.demoted && !l.probing }

// demote enters (or, from an open probe, re-enters) demotion at clock on
// the evidence of ratio, and reports whether this ladder was demoted
// before: the first probation is ProbationOps, every later one double the
// last, capped at ProbationMax.
func (l *ladder) demote(cfg *Config, clock int64, ratio float64) (again bool) {
	again = l.probation > 0
	if again {
		l.probation = min(l.probation*2, int64(cfg.ProbationMax))
	} else {
		l.probation = int64(cfg.ProbationOps)
	}
	l.demoted, l.probing, l.worst = true, false, ratio
	l.probeAt = clock + l.probation
	return again
}

// startProbe lifts a demotion whose probation expired for one probe
// window; the caller resets the samples the probe is judged on.
func (l *ladder) startProbe(clock int64) bool {
	if !l.down() || clock < l.probeAt {
		return false
	}
	l.probing = true
	return true
}

// verdict judges an open probe on its measured ratio: reinstated at or
// under reinstateRatio, relapsed (demoted again) at or over DemoteRatio,
// and in between the probe stays open while the window keeps rolling.
func (l *ladder) verdict(cfg *Config, clock int64, ratio float64) (reinstated, relapsed bool) {
	switch {
	case ratio <= reinstateRatio:
		l.demoted, l.probing, l.worst = false, false, 0
		return true, false
	case ratio >= cfg.DemoteRatio:
		l.demote(cfg, clock, ratio)
		return false, true
	}
	return false, false
}

// edgeState tracks one undirected endpoint pair.
type edgeState struct {
	ladder
	class   int // distance class of the underlying edge
	wins    map[int]*autotune.Window
	strikes int
	// srcN counts samples sourced by the lower/higher endpoint. Rank
	// attribution blames the predominant SOURCE — the endpoint serving
	// the slow copies — so a sick server's shared edges do not push its
	// healthy clients over the rank-demotion threshold.
	srcN [2]int
}

// forget drops the edge's samples and source counts: a probe is judged on
// what it measures from here on, and an edge of a demoted rank carries no
// traffic, so anything kept would be permanently stale evidence.
func (es *edgeState) forget() {
	es.srcN = [2]int{}
	for _, w := range es.wins {
		w.Reset()
	}
}

// mirrorCounters names the mirrored counters, in mirrorLocked's order.
var mirrorCounters = [...]string{"demoted", "reinstated", "probes", "relapses",
	"rank_demoted", "escalated", "partition_suspects", "revisions"}

// mirror is the scorer's metrics resolved in one registry.
type mirror struct {
	counters     [len(mirrorCounters)]*trace.Counter
	edges, ranks *trace.Gauge
}

// Scorer is the gray-failure detector: a trace.Sink that maintains
// per-edge timing windows, demotes persistently slow edges and ranks,
// and publishes immutable demotion Snapshots consumed by WrapView.
type Scorer struct {
	cfg Config

	// snap is the published snapshot (never nil): stored under mu, read
	// without it — every collective call of every rank reads it.
	snap atomic.Pointer[Snapshot]

	mu        sync.Mutex
	edges     map[[2]int]*edgeState
	order     [][2]int        // the keys of edges, sorted; nil after a new edge
	ranks     map[int]*ladder // wholesale rank demotions
	clock     int64           // collectives (plan_reap events) seen
	rev       int64
	samples   int64
	escalated map[int]bool

	demotions, reinstates, probes, relapses int64
	rankDemotions                           int64
	escalations                             int64

	partitionSkips int64 // scan judgements ceded to the partition detector

	onRevise       []func(Revision)
	onDead         []func(int)
	fired          []Revision // this tick's callbacks, queued under mu,
	dead           []int      // fired by tick after it unlocks
	partitionKnown func(a, b int) bool
	mirror         *mirror
}

// NewScorer creates a scorer with cfg (zero values → defaults).
func NewScorer(cfg Config) *Scorer {
	s := &Scorer{
		cfg:       cfg.withDefaults(),
		edges:     make(map[[2]int]*edgeState),
		ranks:     make(map[int]*ladder),
		escalated: make(map[int]bool),
	}
	s.snap.Store(emptySnapshot(s.cfg.DemoteTo))
	return s
}

// Config returns the effective (default-filled) configuration.
func (s *Scorer) Config() Config { return s.cfg }

// OnRevise registers a callback fired (outside the scorer lock) for
// every topology-affecting transition. Register before attaching the
// scorer as a sink.
func (s *Scorer) OnRevise(fn func(Revision)) {
	s.onRevise = append(s.onRevise, fn)
}

// OnDead registers a callback fired when a demoted rank crosses
// EscalateRatio — the hand-off to the hard-failure ladder. Register
// before attaching the scorer as a sink.
func (s *Scorer) OnDead(fn func(rank int)) {
	s.onDead = append(s.onDead, fn)
}

// SetPartitionSuspect registers a predicate reporting whether the edge
// (a, b) is under partition suspicion — severed or one-way per the
// partition detector's reachability view. A suspect edge is the
// partition machinery's business: the demotion ladder skips it entirely
// instead of looping demote/probe/relapse cycles on a link that moves
// no bytes at all. Register before attaching the scorer as a sink.
func (s *Scorer) SetPartitionSuspect(fn func(a, b int) bool) {
	s.partitionKnown = fn
}

// MirrorMetrics mirrors scorer counters into a metrics registry under
// prefix (e.g. "health."), resolving every name here, once, rather than
// on every tick. A later call re-homes the mirror (the serve layer moves
// it under its tenant prefix); the new counters catch up at the next tick.
func (s *Scorer) MirrorMetrics(m *trace.Metrics, prefix string) {
	mir := &mirror{edges: m.Gauge(prefix + "demoted_edges"), ranks: m.Gauge(prefix + "demoted_ranks")}
	for i, name := range mirrorCounters {
		mir.counters[i] = m.Counter(prefix + name)
	}
	s.mu.Lock()
	s.mirror = mir
	s.mu.Unlock()
}

// servers reports which endpoints predominantly source this edge's
// traffic — the blamed side for rank-level attribution. With no
// majority (mixed-direction traffic, or no samples yet) both are
// blamed, restoring undirected attribution.
func (es *edgeState) servers() (lo, hi bool) {
	if es.srcN[0] > es.srcN[1] {
		return true, false
	}
	if es.srcN[1] > es.srcN[0] {
		return false, true
	}
	return true, true
}

func normEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Emit implements trace.Sink: copy events feed the per-edge windows, and
// plan_reap — one per collective, emitted by its last leaver after every
// copy and before any member returns — is the clock: it advances
// probation and runs the scan, once per collective on any communicator.
func (s *Scorer) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindCopy:
		s.observe(e)
	case trace.KindPlanReap:
		s.tick()
	}
}

func (s *Scorer) observe(e trace.Event) {
	if e.Bytes <= 0 || e.Dur <= 0 || e.Dist <= 0 || e.Src < 0 || e.Dst < 0 || e.Src == e.Dst {
		return
	}
	k := normEdge(e.Src, e.Dst)
	sec := float64(e.Dur) / 1e9
	s.mu.Lock()
	es := s.edges[k]
	if es == nil {
		es = &edgeState{class: e.Dist, wins: make(map[int]*autotune.Window)}
		s.edges[k] = es
		s.order = nil
	}
	b := autotune.Bucket(e.Bytes)
	w := es.wins[b]
	if w == nil {
		w = &autotune.Window{}
		es.wins[b] = w
	}
	w.Observe(e.Bytes, sec, s.cfg.Window)
	if e.Src == k[0] {
		es.srcN[0]++
	} else {
		es.srcN[1]++
	}
	s.samples++
	s.mu.Unlock()
}

func (s *Scorer) tick() {
	s.mu.Lock()
	s.clock++
	s.probeStartsLocked()
	s.scanLocked()
	s.mirrorLocked()
	fired, dead := s.fired, s.dead
	s.fired, s.dead = nil, nil
	s.mu.Unlock()
	for _, r := range fired {
		for _, fn := range s.onRevise {
			fn(r)
		}
	}
	for _, r := range dead {
		for _, fn := range s.onDead {
			fn(r)
		}
	}
}

// reviseLocked publishes one topology-affecting transition: the next
// revision number, a snapshot rebuilt from the ladders, the callback
// queued.
func (s *Scorer) reviseLocked(rv Revision) {
	s.rev++
	edges := make(map[[2]int]bool)
	for k, es := range s.edges {
		if es.down() {
			edges[k] = true
		}
	}
	ranks := make(map[int]bool)
	for r, l := range s.ranks {
		if l.down() {
			ranks[r] = true
		}
	}
	s.snap.Store(newSnapshot(s.rev, s.cfg.DemoteTo, edges, ranks))
	rv.Rev = s.rev
	s.fired = append(s.fired, rv)
}

// edgesOfLocked calls fn on every scored edge with r as an endpoint.
func (s *Scorer) edgesOfLocked(r int, fn func(*edgeState)) {
	for k, es := range s.edges {
		if k[0] == r || k[1] == r {
			fn(es)
		}
	}
}

// probeStartsLocked lifts demotions whose probation expired: the edge
// (or rank) re-enters the view at its true distance for one probe
// window, measured from freshly reset sample rings. Only a ladder that is
// down can start a probe, and those are the snapshot's, already sorted.
func (s *Scorer) probeStartsLocked() {
	down := s.snap.Load()
	for _, k := range down.Edges() {
		if es := s.edges[k]; es.startProbe(s.clock) {
			es.forget()
			s.probes++
			s.reviseLocked(edgeRev("probe", k))
		}
	}
	for _, r := range down.Ranks() {
		if s.ranks[r].startProbe(s.clock) {
			s.edgesOfLocked(r, (*edgeState).forget)
			s.probes++
			s.reviseLocked(rankRev("rank-probe", r))
		}
	}
}

// probeVerdictLocked closes (or leaves open) l's probe on ratio; relapse
// is the revision a relapse publishes. A reinstatement publishes none: a
// probing ladder already left the snapshot when its probe started.
func (s *Scorer) probeVerdictLocked(l *ladder, ratio float64, relapse Revision) {
	reinstated, relapsed := l.verdict(&s.cfg, s.clock, ratio)
	if reinstated {
		s.reinstates++
	}
	if relapsed {
		s.relapses++
		s.reviseLocked(relapse)
	}
}

// baselines computes, per (class, bucket), the median of per-edge
// medians across currently trusted edges (not demoted, not probing) with
// at least MinSamples. Median-of-medians keeps a single slow edge from
// poisoning its own baseline: it contributes one vote, not its sample
// mass. The count is the number of contributing edges.
type baseKey struct{ class, bucket int }

type baseline struct {
	med float64
	n   int
}

func (s *Scorer) baselinesLocked() map[baseKey]baseline {
	meds := make(map[baseKey][]float64)
	for _, es := range s.edges {
		if es.demoted || es.probing {
			continue
		}
		for b, w := range es.wins {
			if w.Len() >= s.cfg.MinSamples {
				k := baseKey{es.class, b}
				meds[k] = append(meds[k], w.Median())
			}
		}
	}
	out := make(map[baseKey]baseline, len(meds))
	for k, v := range meds {
		out[k] = baseline{med: autotune.Median(v), n: len(v)}
	}
	return out
}

// worstRatioLocked returns the edge's worst bucket ratio against the
// class baselines, and whether any bucket had enough data to judge. A
// baseline needs ≥ 2 contributing peer edges — with a single edge in a
// class the edge is its own baseline and cannot be judged.
func (s *Scorer) worstRatioLocked(es *edgeState, base map[baseKey]baseline) (float64, bool) {
	worst, ok := 0.0, false
	for b, w := range es.wins {
		if w.Len() < s.cfg.MinSamples {
			continue
		}
		bl := base[baseKey{es.class, b}]
		if bl.n < 2 || bl.med <= 0 {
			continue
		}
		if r := w.Median() / bl.med; r > worst {
			worst, ok = r, true
		}
	}
	return worst, ok
}

func (s *Scorer) sortedEdgesLocked() [][2]int {
	if s.order == nil {
		s.order = make([][2]int, 0, len(s.edges))
		for k := range s.edges {
			s.order = append(s.order, k)
		}
		sortEdges(s.order)
	}
	return s.order
}

func (s *Scorer) scanLocked() {
	base := s.baselinesLocked()
	for _, k := range s.sortedEdgesLocked() {
		es := s.edges[k]
		if es.class >= s.cfg.DemoteTo {
			continue // already at or above the demotion class
		}
		if s.ranks[k[0]].down() || s.ranks[k[1]].down() {
			// The rank demotion dominates: the view already prices every
			// pair through the rank at DemoteTo, no traffic flows, and
			// whatever samples remain predate the demotion.
			continue
		}
		if s.partitionKnown != nil && s.partitionKnown(k[0], k[1]) {
			// Severed, not slow: the partition detector owns this edge.
			// Judging it here would demote on permanently stale samples
			// and churn probe/relapse cycles until the quorum decision
			// lands anyway.
			es.strikes = 0
			s.partitionSkips++
			continue
		}
		ratio, ok := s.worstRatioLocked(es, base)
		switch {
		case !ok || es.down():
		case es.probing:
			s.probeVerdictLocked(&es.ladder, ratio, edgeRev("redemote", k))
		case ratio < s.cfg.DemoteRatio:
			es.strikes = 0
		default:
			es.strikes++
			if es.strikes >= s.cfg.Strikes {
				es.strikes = 0
				es.demote(&s.cfg, s.clock, ratio)
				s.demotions++
				s.reviseLocked(edgeRev("demote", k))
			}
		}
	}
	s.scanRanksLocked(base)
}

// rankCandidateLocked promotes edge-level evidence to rank level: it
// returns the rank (-1: none) most of whose serving — or pulling — edges
// are individually demoted, and the worst ratio among those edges.
//
// At most ONE rank is demoted per scan — the candidate with the
// highest demoted fraction. A demoted edge counts toward BOTH its
// endpoints' tallies, so demoting every rank over threshold in one
// pass cascades: when rank r's serving links all stall, the shared
// edges push r's neighbors over threshold too, and a single gray rank
// takes healthy ranks down with it. Demoting only the worst candidate
// lets the absorption in scanRanksLocked erase the shared evidence
// first; if a neighbor is independently sick, the very next scan still
// gets it.
func (s *Scorer) rankCandidateLocked() (int, float64) {
	if len(s.snap.Load().edges) == 0 {
		return -1, 0 // no edge is down: nothing to promote
	}
	// Two directional tallies per rank: edges it predominantly SERVES
	// (sources the copies) and edges it predominantly PULLS (receives
	// them). A sick rank leaves a consistent signature on one side —
	// every serving link of a slow sender, every pull of a slow
	// receiver — while a healthy neighbor of a sick rank collects at
	// most one shared demoted edge per side and stays under
	// RankMinEdges. Ties in direction (mixed traffic, no samples)
	// count the edge on both sides of both endpoints.
	const srv, cli = 0, 1
	demotedBy := make(map[int]*[2]int)
	totalBy := make(map[int]*[2]int)
	worstBy := make(map[int]float64)
	tally := func(m map[int]*[2]int, r, side int) {
		t := m[r]
		if t == nil {
			t = &[2]int{}
			m[r] = t
		}
		t[side]++
	}
	for k, es := range s.edges {
		hasData := false
		for _, w := range es.wins {
			if w.Len() >= s.cfg.MinSamples || es.demoted {
				hasData = true
				break
			}
		}
		if !hasData {
			continue
		}
		lo, hi := es.servers()
		side := func(i int) int {
			if (i == 0 && lo) || (i == 1 && hi) {
				return srv
			}
			return cli
		}
		for i, r := range k {
			sides := []int{side(i)}
			if lo && hi { // no directional majority: both sides
				sides = []int{srv, cli}
			}
			for _, sd := range sides {
				tally(totalBy, r, sd)
				if es.down() {
					tally(demotedBy, r, sd)
					if es.worst > worstBy[r] {
						worstBy[r] = es.worst
					}
				}
			}
		}
	}
	best, bestFrac, bestDem := -1, 0.0, 0
	for _, r := range sortedKeys(demotedBy) {
		if l := s.ranks[r]; l != nil && l.demoted {
			continue
		}
		for sd := srv; sd <= cli; sd++ {
			dem := demotedBy[r][sd]
			if dem < s.cfg.RankMinEdges {
				continue
			}
			frac := float64(dem) / float64(totalBy[r][sd])
			if frac < s.cfg.RankFraction {
				continue
			}
			// Highest qualifying fraction wins; ties go to more demoted
			// edges, then to the lower rank (the iteration order).
			if frac > bestFrac || (frac == bestFrac && dem > bestDem) {
				best, bestFrac, bestDem = r, frac, dem
			}
		}
	}
	return best, worstBy[best]
}

// scanRanksLocked demotes the scan's rank candidate wholesale (its
// per-edge states are absorbed) and — when EscalateRatio is set — hands
// it to the hard-failure ladder; then it judges every open rank probe.
func (s *Scorer) scanRanksLocked(base map[baseKey]baseline) {
	if r, worst := s.rankCandidateLocked(); r >= 0 {
		l := s.ranks[r]
		if l == nil {
			l = &ladder{}
			s.ranks[r] = l
		}
		action := "rank-demote"
		if l.demote(&s.cfg, s.clock, worst) {
			action = "rank-redemote"
			s.relapses++
		} else {
			s.rankDemotions++
		}
		// The rank absorbs its edges' demotions so a rank probe measures
		// the whole rank afresh. Their samples go too: kept, they would
		// re-demote the edges — and leak strikes onto their OTHER
		// endpoints' rank tallies — forever.
		s.edgesOfLocked(r, func(es *edgeState) {
			es.demoted, es.probing, es.strikes = false, false, 0
			es.forget()
		})
		s.reviseLocked(rankRev(action, r))
		if s.cfg.EscalateRatio > 0 && worst >= s.cfg.EscalateRatio && !s.escalated[r] {
			s.escalated[r] = true
			s.escalations++
			s.dead = append(s.dead, r)
		}
	}
	// Rank probe verdicts: judged over every measured edge of the rank.
	for _, r := range sortedKeys(s.ranks) {
		l := s.ranks[r]
		if !l.probing {
			continue
		}
		worst, ok := 0.0, false
		s.edgesOfLocked(r, func(es *edgeState) {
			if ratio, has := s.worstRatioLocked(es, base); has {
				worst, ok = max(worst, ratio), true
			}
		})
		if ok {
			s.probeVerdictLocked(l, worst, rankRev("rank-redemote", r))
		}
	}
}

func (s *Scorer) mirrorLocked() {
	if s.mirror == nil {
		return
	}
	for i, v := range [len(mirrorCounters)]int64{s.demotions, s.reinstates, s.probes, s.relapses,
		s.rankDemotions, s.escalations, s.partitionSkips, s.rev} {
		c := s.mirror.counters[i]
		c.Add(v - c.Load())
	}
	snap := s.snap.Load()
	s.mirror.edges.Set(float64(len(snap.edges)))
	s.mirror.ranks.Set(float64(len(snap.ranks)))
}

// Snapshot returns the current immutable demotion snapshot (never nil).
func (s *Scorer) Snapshot() *Snapshot { return s.snap.Load() }

// Revision returns the current revision counter; it advances on every
// topology-affecting transition.
func (s *Scorer) Revision() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// Samples returns the lifetime accepted copy-sample count.
func (s *Scorer) Samples() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Clock returns the collectives seen so far — the probation time base.
func (s *Scorer) Clock() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Demotions, Reinstates, Probes and Relapses return lifetime transition
// counts.
func (s *Scorer) Demotions() int64  { s.mu.Lock(); defer s.mu.Unlock(); return s.demotions }
func (s *Scorer) Reinstates() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.reinstates }
func (s *Scorer) Probes() int64     { s.mu.Lock(); defer s.mu.Unlock(); return s.probes }
func (s *Scorer) Relapses() int64   { s.mu.Lock(); defer s.mu.Unlock(); return s.relapses }

// DemotedEdges returns the currently demoted edges (sorted, excluding
// edges mid-probe).
func (s *Scorer) DemotedEdges() [][2]int { return s.Snapshot().Edges() }

// DemotedRanks returns the currently demoted ranks (sorted).
func (s *Scorer) DemotedRanks() []int { return s.Snapshot().Ranks() }

// EdgeScore is one row of the health report.
type EdgeScore struct {
	Edge    [2]int
	Class   int
	Samples int
	Median  float64 // seconds, worst bucket
	Ratio   float64 // vs class baseline (0 when unjudgeable)
	State   string  // "ok", "suspect", "demoted", "probing"
}

// Report summarizes scorer state for the disttrace health CLI.
type Report struct {
	Clock     int64
	Samples   int64
	Edges     []EdgeScore
	Ranks     []int // demoted ranks
	Demoted   int64
	Reinstate int64
	Probes    int64
	Relapses  int64
	Escalated int64
	Revisions int64
}

// Report renders the current scorer state, edges sorted worst-first.
func (s *Scorer) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.baselinesLocked()
	rep := Report{
		Clock:     s.clock,
		Samples:   s.samples,
		Ranks:     s.Snapshot().Ranks(),
		Demoted:   s.demotions,
		Reinstate: s.reinstates,
		Probes:    s.probes,
		Relapses:  s.relapses,
		Escalated: s.escalations,
		Revisions: s.rev,
	}
	for _, k := range s.sortedEdgesLocked() {
		es := s.edges[k]
		sc := EdgeScore{Edge: k, Class: es.class}
		var worstMed float64
		for _, w := range es.wins {
			sc.Samples += w.Len()
			if m := w.Median(); m > worstMed {
				worstMed = m
			}
		}
		sc.Median = worstMed
		if r, ok := s.worstRatioLocked(es, base); ok {
			sc.Ratio = r
		}
		switch {
		case es.probing:
			sc.State = "probing"
		case es.demoted:
			sc.State = "demoted"
			sc.Ratio = es.worst
		case sc.Ratio >= s.cfg.DemoteRatio:
			sc.State = "suspect"
		default:
			sc.State = "ok"
		}
		rep.Edges = append(rep.Edges, sc)
	}
	sort.SliceStable(rep.Edges, func(i, j int) bool { return rep.Edges[i].Ratio > rep.Edges[j].Ratio })
	return rep
}

// String renders the report as the disttrace health summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health: %d collectives, %d copy samples, %d edges scored\n",
		r.Clock, r.Samples, len(r.Edges))
	fmt.Fprintf(&b, "events: demoted=%d probes=%d reinstated=%d relapses=%d escalated=%d revisions=%d\n",
		r.Demoted, r.Probes, r.Reinstate, r.Relapses, r.Escalated, r.Revisions)
	if len(r.Ranks) > 0 {
		fmt.Fprintf(&b, "demoted ranks: %v\n", r.Ranks)
	}
	shown := 0
	for _, e := range r.Edges {
		if e.State == "ok" && shown >= 10 {
			continue
		}
		fmt.Fprintf(&b, "  edge %d-%d d%d: median %.1fµs ratio %.2f %s (n=%d)\n",
			e.Edge[0], e.Edge[1], e.Class, e.Median*1e6, e.Ratio, e.State, e.Samples)
		shown++
	}
	return b.String()
}
