// Package tune is the adaptive selection engine: the offline-calibrated
// decision layer that, per (collective, communicator size, message size,
// topology fingerprint), picks which collective component and algorithm
// variant to run — the "adaptive" half of the paper's title that the
// fixed-component runtime lacked.
//
// It mirrors Open MPI tuned's offline-generated decision tables, but the
// tables are produced by sweeping this repository's own calibrated
// flow-level simulator (internal/des + internal/machine) across message
// sizes, collectives and process bindings (Calibrate), so the selector
// inherits every contention effect the performance model captures — the
// KNEM syscall-latency penalty for small messages, the single-memory-
// controller saturation that makes the linear topology beat the
// hierarchical tree on Zoot above 32 KB (Fig. 8), and the distance-aware
// wins above the crossover points of Figs. 6/7.
//
// Selection is a three-tier match: an exact topology-fingerprint hit in a
// shipped or user-supplied table, then a same-machine-class hit (equal
// maximum distance and memory-controller structure), and finally a
// built-in fallback rule set encoding the paper's published crossovers
// (~16 KB broadcast and ~2 KB allgather on IG; linear ≥ 32 KB on Zoot).
package tune

import (
	"fmt"
	"sort"
	"sync"

	"distcoll/internal/distance"
)

// Collective names an operation the selector can decide.
type Collective string

// The decidable collectives.
const (
	CollBcast     Collective = "bcast"
	CollAllgather Collective = "allgather"
	CollReduce    Collective = "reduce"
	CollAllreduce Collective = "allreduce"
)

// Collectives returns every decidable collective, in calibration order.
func Collectives() []Collective {
	return []Collective{CollBcast, CollAllgather, CollReduce, CollAllreduce}
}

// Component names in decisions (matching mpi.Component.String()).
const (
	ComponentKNEM  = "knemcoll"
	ComponentTuned = "tuned"
	ComponentMPICH = "mpich2"
)

// Decision is one selected configuration: which component to run, whether
// the distance-aware tree collapses to the linear topology (the Fig. 8
// hierarchical-vs-linear split), an optional pipeline chunk override, and
// whether allreduce runs over the tree instead of the ring.
type Decision struct {
	// Component is the collective implementation: "knemcoll" (the paper's
	// distance-aware kernel-assisted component), "tuned" (Open MPI tuned
	// over SM/KNEM) or "mpich2" (nemesis double copy).
	Component string `json:"component"`
	// Linear flattens the distance levels before topology construction, so
	// the distance-aware tree degenerates to the linear topology (root
	// fan-out to every rank). Only meaningful for knemcoll tree collectives.
	Linear bool `json:"linear,omitempty"`
	// Chunk overrides the pipeline chunk size in bytes; 0 selects the
	// compiled-in policy (core.BroadcastChunk). Only meaningful for
	// knemcoll tree collectives.
	Chunk int64 `json:"chunk,omitempty"`
	// Tree runs a knemcoll allreduce as a reduction up the distance-aware
	// tree and a pipelined broadcast back down it (core's
	// CompileAllreduceTree) instead of around the ring; it makes
	// allreduce a tree collective, so Linear and Chunk apply. A calibrated
	// dimension the sweep covers, not a user knob: a fixed knemcoll
	// component still means the ring. Meaningful for allreduce only.
	Tree bool `json:"tree,omitempty"`
}

// chunkNames memoises the names of chunked decisions, the one part of a
// name that is formatted: a warm call's decision comes from a finite table,
// so its plan-cache variant and its traced name are formatted once, not per
// call. Any chunk makes a decision, hence the bound; past it a name is
// formatted every time.
var chunkNames = struct {
	sync.RWMutex
	m map[Decision]string
}{m: make(map[Decision]string)}

const maxChunkNames = 1024

// String renders the decision for logs, traces and the disttune CLI. Every
// unchunked decision renders to a constant and a chunked one to its memoised
// name, so the plan-cache key of a warm call (CacheKey) allocates nothing.
func (d Decision) String() string {
	if d.Component != ComponentKNEM {
		return d.Component
	}
	var shape string
	switch {
	case d.Tree && d.Linear:
		shape = ComponentKNEM + "/tree/linear"
	case d.Tree:
		shape = ComponentKNEM + "/tree"
	case d.Linear:
		shape = ComponentKNEM + "/linear"
	default:
		shape = ComponentKNEM + "/hier"
	}
	if d.Chunk <= 0 {
		return shape
	}
	chunkNames.RLock()
	name, ok := chunkNames.m[d]
	chunkNames.RUnlock()
	if !ok {
		name = fmt.Sprintf("%s/chunk=%d", shape, d.Chunk)
		chunkNames.Lock()
		if len(chunkNames.m) < maxChunkNames {
			chunkNames.m[d] = name
		}
		chunkNames.Unlock()
	}
	return name
}

// CacheKey returns a stable discriminator for plan-cache keys: two
// decisions with equal cache keys compile identical schedules for the same
// (collective, view, root, size).
func (d Decision) CacheKey() string { return d.String() }

// Valid reports whether the decision names a known component, and a tree
// allreduce only under the one component that has one.
func (d Decision) Valid() bool {
	switch d.Component {
	case ComponentKNEM:
		return d.Chunk >= 0
	case ComponentTuned, ComponentMPICH:
		return d.Chunk >= 0 && !d.Tree
	default:
		return false
	}
}

// Fingerprint is the compact topology identity a rule set is keyed by:
// the communicator size, the histogram of pairwise process distances, and
// two class features (largest distance, single shared memory controller)
// used for fuzzy matching when no exact histogram matches.
type Fingerprint struct {
	// Procs is the communicator size.
	Procs int `json:"procs"`
	// MaxDist is the largest pairwise distance.
	MaxDist int `json:"max_dist"`
	// SingleMC marks a UMA machine: some pair crosses sockets while
	// sharing the memory controller (distance 3, Zoot's northbridge), and
	// no pair has a cross-controller distance (4 or 5).
	SingleMC bool `json:"single_mc"`
	// Hist[d] counts the unordered process pairs at distance d,
	// d ∈ [0, MaxDist].
	Hist []int64 `json:"hist"`
	// AdjHist[d] counts the *adjacent-rank* pairs (i, i+1) at distance d.
	// Hist is permutation-invariant — a contiguous and a cross-socket
	// placement of the same cores have identical pair histograms — but the
	// rank-based baselines care exactly about how rank order correlates
	// with placement, so the decision differs between them. Adjacent-rank
	// distances separate the two: contiguous neighbors share caches,
	// cross-socket neighbors sit boards apart.
	AdjHist []int64 `json:"adj_hist"`
}

// FingerprintOf computes the fingerprint of a distance view, at the cost
// of distance.PairHistogram: no cross-machine pair of a communicator's own
// view is enumerated.
func FingerprintOf(v distance.View) Fingerprint {
	n := v.Size()
	f := Fingerprint{Procs: n}
	hist := distance.PairHistogram(v)
	var adj [distance.Max + 1]int64
	for i := 0; i+1 < n; i++ {
		adj[min(max(v.At(i, i+1), 0), distance.Max)]++
	}
	for d, c := range hist {
		if c > 0 && d > f.MaxDist {
			f.MaxDist = d
		}
	}
	k := f.MaxDist + 1
	both := append(append(make([]int64, 0, 2*k), hist[:k]...), adj[:k]...) // one allocation
	f.Hist, f.AdjHist = both[:k:k], both[k:]
	f.SingleMC = hist[distance.CrossSocketSameMC] > 0 &&
		hist[distance.SameSocketCrossMC] == 0 && hist[distance.SameBoard] == 0
	return f
}

// Equal reports an exact fingerprint match (same size, same pair and
// adjacent-rank histograms).
func (f Fingerprint) Equal(g Fingerprint) bool {
	if f.Procs != g.Procs || f.MaxDist != g.MaxDist {
		return false
	}
	return histEq(f.Hist, g.Hist) && histEq(f.AdjHist, g.AdjHist)
}

func histEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameClass reports a machine-class match: equal distance reach and
// memory-controller structure, regardless of communicator size or binding.
func (f Fingerprint) SameClass(g Fingerprint) bool {
	return f.MaxDist == g.MaxDist && f.SingleMC == g.SingleMC
}

// Rule maps a half-open message-size range [MinBytes, MaxBytes) to a
// decision; MaxBytes 0 means unbounded.
type Rule struct {
	MinBytes int64    `json:"min_bytes"`
	MaxBytes int64    `json:"max_bytes,omitempty"`
	Decision Decision `json:"decision"`
}

// Covers reports whether the rule's size range contains bytes.
func (r Rule) Covers(bytes int64) bool {
	return bytes >= r.MinBytes && (r.MaxBytes == 0 || bytes < r.MaxBytes)
}

// RuleSet holds the calibrated decisions of one collective under one
// topology fingerprint (one machine + binding the calibrator swept).
type RuleSet struct {
	Coll        Collective  `json:"collective"`
	Binding     string      `json:"binding"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Rules       []Rule      `json:"rules"`
}

// decide returns the rule decision covering bytes, if any.
func (rs *RuleSet) decide(bytes int64) (Decision, bool) {
	for _, r := range rs.Rules {
		if r.Covers(bytes) {
			return r.Decision, true
		}
	}
	return Decision{}, false
}

// Table is one machine's decision table: the calibrator's output and the
// disttune CLI's interchange format.
type Table struct {
	// Name identifies the table ("zoot16", "ig48", "igcluster48").
	Name string `json:"name"`
	// Machine is the hwtopo machine the calibration ran on.
	Machine string `json:"machine"`
	// Procs is the calibrated communicator size.
	Procs int `json:"procs"`
	// Sizes is the calibration sweep (provenance; rules interpolate
	// between the points).
	Sizes []int64 `json:"sizes"`
	// RuleSets carry the decisions, one per (collective, binding).
	RuleSets []RuleSet `json:"rule_sets"`
}

// Validate checks structural sanity: known collectives, valid decisions
// (the tree dimension on allreduce only), ordered non-overlapping rule
// ranges covering [0, ∞).
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("tune: table has no name")
	}
	for i := range t.RuleSets {
		rs := &t.RuleSets[i]
		switch rs.Coll {
		case CollBcast, CollAllgather, CollReduce, CollAllreduce:
		default:
			return fmt.Errorf("tune: table %s rule set %d: unknown collective %q", t.Name, i, rs.Coll)
		}
		if rs.Fingerprint.Procs <= 0 {
			return fmt.Errorf("tune: table %s rule set %d: fingerprint procs %d", t.Name, i, rs.Fingerprint.Procs)
		}
		if len(rs.Rules) == 0 {
			return fmt.Errorf("tune: table %s rule set %d (%s): no rules", t.Name, i, rs.Coll)
		}
		var next int64
		for j, r := range rs.Rules {
			if !r.Decision.Valid() || (r.Decision.Tree && rs.Coll != CollAllreduce) {
				return fmt.Errorf("tune: table %s %s rule %d: invalid decision %+v", t.Name, rs.Coll, j, r.Decision)
			}
			if r.MinBytes != next {
				return fmt.Errorf("tune: table %s %s rule %d: starts at %d, want %d (gap or overlap)",
					t.Name, rs.Coll, j, r.MinBytes, next)
			}
			if j == len(rs.Rules)-1 {
				if r.MaxBytes != 0 {
					return fmt.Errorf("tune: table %s %s: last rule bounded at %d", t.Name, rs.Coll, r.MaxBytes)
				}
			} else {
				if r.MaxBytes <= r.MinBytes {
					return fmt.Errorf("tune: table %s %s rule %d: empty range [%d,%d)",
						t.Name, rs.Coll, j, r.MinBytes, r.MaxBytes)
				}
				next = r.MaxBytes
			}
		}
	}
	return nil
}

// Selector answers decision queries against a prioritized table list plus
// the built-in fallback rules. The zero Selector (and a nil one) uses the
// fallback rules only. Selectors are immutable after construction and safe
// for concurrent use.
type Selector struct {
	tables []*Table
}

// NewSelector builds a selector over the given tables, earlier tables
// taking precedence within each match tier.
func NewSelector(tables ...*Table) *Selector {
	return &Selector{tables: append([]*Table(nil), tables...)}
}

// Tables returns the selector's table list.
func (s *Selector) Tables() []*Table {
	if s == nil {
		return nil
	}
	return s.tables
}

var (
	defaultOnce     sync.Once
	defaultSelector *Selector
)

// DefaultSelector returns the process-wide selector over the shipped
// default tables (zoot, ig, igcluster). Parsing happens once; a table that
// fails to parse is skipped (the fallback rules still apply).
func DefaultSelector() *Selector {
	defaultOnce.Do(func() {
		defaultSelector = NewSelector(DefaultTables()...)
	})
	return defaultSelector
}

// Select picks the configuration for one collective call: coll over a
// communicator whose member distances are m, moving bytes per-rank bytes
// (the full message for bcast/reduce/allreduce, the per-rank block for
// allgather).
func (s *Selector) Select(coll Collective, m distance.View, bytes int64) Decision {
	return s.SelectFP(coll, FingerprintOf(m), bytes)
}

// SelectFP is Select for a pre-computed fingerprint: what a caller that
// asks on every collective call (the mpi runtime, which caches the
// fingerprint on the communicator) uses, because it neither walks the
// O(n²) pairs of the view nor formats a provenance. It allocates nothing.
func (s *Selector) SelectFP(coll Collective, fp Fingerprint, bytes int64) Decision {
	d, _ := s.decide(coll, fp, bytes)
	return d
}

// SelectExplain is Select plus the provenance of the decision:
// "table:<name>/<binding>" for an exact fingerprint hit,
// "class:<name>/<binding>" for a machine-class match, "fallback" for the
// built-in crossover rules.
func (s *Selector) SelectExplain(coll Collective, m distance.View, bytes int64) (Decision, string) {
	return s.ExplainFP(coll, FingerprintOf(m), bytes)
}

// ExplainFP is SelectExplain for a pre-computed fingerprint (tooling
// that diffs decisions across selectors already holds one).
func (s *Selector) ExplainFP(coll Collective, fp Fingerprint, bytes int64) (Decision, string) {
	d, src := s.decide(coll, fp, bytes)
	return d, src.String()
}

// source is where a decision came from: the tier and, for the two table
// tiers, the rule set that matched. Only the Explain entry points render
// it; a warm call never formats a provenance it would discard.
type source struct {
	tier  string // "table", "learned", "class" or "fallback"
	table *Table
	rs    *RuleSet
}

func (src source) String() string {
	if src.rs == nil {
		return src.tier
	}
	return src.tier + ":" + src.table.Name + "/" + src.rs.Binding
}

// decide is the three-tier match.
func (s *Selector) decide(coll Collective, fp Fingerprint, bytes int64) (Decision, source) {
	if d, src, ok := s.selectExact(coll, fp, bytes); ok {
		return d, src
	}
	if d, src, ok := s.selectClass(coll, fp, bytes); ok {
		return d, src
	}
	// Tier 3: the paper's published crossovers.
	return Fallback(coll, fp, bytes), source{tier: "fallback"}
}

// selectExact is tier 1: an exact fingerprint hit (same size, same pair
// and adjacent-rank distance histograms) in the table list.
func (s *Selector) selectExact(coll Collective, fp Fingerprint, bytes int64) (Decision, source, bool) {
	if s == nil {
		return Decision{}, source{}, false
	}
	for _, t := range s.tables {
		for i := range t.RuleSets {
			rs := &t.RuleSets[i]
			if rs.Coll != coll || !rs.Fingerprint.Equal(fp) {
				continue
			}
			if d, ok := rs.decide(bytes); ok {
				return d, source{"table", t, rs}, true
			}
		}
	}
	return Decision{}, source{}, false
}

// selectClass is tier 2: a machine-class match (same reach and controller
// structure); among class matches the closest communicator size wins.
func (s *Selector) selectClass(coll Collective, fp Fingerprint, bytes int64) (Decision, source, bool) {
	if s == nil {
		return Decision{}, source{}, false
	}
	var best *RuleSet
	var bestTable *Table
	for _, t := range s.tables {
		for i := range t.RuleSets {
			rs := &t.RuleSets[i]
			if rs.Coll != coll || !rs.Fingerprint.SameClass(fp) {
				continue
			}
			if best == nil || absInt(rs.Fingerprint.Procs-fp.Procs) < absInt(best.Fingerprint.Procs-fp.Procs) {
				best, bestTable = rs, t
			}
		}
	}
	if best != nil {
		if d, ok := best.decide(bytes); ok {
			return d, source{"class", bestTable, best}, true
		}
	}
	return Decision{}, source{}, false
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// The paper's published crossover points (§V): on IG the KNEM collectives
// lose to tuned below ~16 KB broadcast and ~2 KB allgather blocks (the
// kernel-crossing latency dominates), and on single-controller Zoot the
// linear topology overtakes the hierarchical tree at 32 KB (Fig. 8: the
// lone controller saturates on writes whatever the tree shape, so tree
// depth only adds latency). Allreduce is not in the paper; its crossover is
// the calibrated one of the shipped IG table: reduce + broadcast over the
// tree (3n−2 ops per chunk, placement-independent) below 128 KB, the ring's
// balanced memory traffic from there up.
const (
	FallbackBcastCrossover     = 16 << 10
	FallbackAllgatherCrossover = 2 << 10
	FallbackLinearCrossover    = 32 << 10
	FallbackAllreduceCrossover = 128 << 10
)

// Fallback is the rule set used when no decision table matches the
// topology: the paper's published crossovers, applied to the communicator's
// fingerprint.
func Fallback(coll Collective, fp Fingerprint, bytes int64) Decision {
	if fp.Procs <= 2 {
		return Decision{Component: ComponentTuned}
	}
	switch coll {
	case CollBcast, CollReduce:
		if bytes < FallbackBcastCrossover {
			return Decision{Component: ComponentTuned}
		}
		return Decision{
			Component: ComponentKNEM,
			Linear:    fp.SingleMC && bytes >= FallbackLinearCrossover,
		}
	case CollAllgather:
		if bytes < FallbackAllgatherCrossover {
			return Decision{Component: ComponentTuned}
		}
		return Decision{Component: ComponentKNEM}
	case CollAllreduce:
		return Decision{Component: ComponentKNEM, Tree: bytes < FallbackAllreduceCrossover}
	default:
		return Decision{Component: ComponentTuned}
	}
}

// sortRuleSets orders rule sets canonically (collective, then binding) so
// marshaled tables are byte-stable.
func sortRuleSets(sets []RuleSet) {
	sort.SliceStable(sets, func(a, b int) bool {
		if sets[a].Coll != sets[b].Coll {
			return sets[a].Coll < sets[b].Coll
		}
		return sets[a].Binding < sets[b].Binding
	})
}
