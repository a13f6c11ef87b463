package tune

import (
	"fmt"
	"sort"
	"sync"

	"distcoll/internal/distance"
)

// Decider answers decision queries — the interface the mpi Adaptive
// component consults per collective call. *Selector (the static
// three-tier lookup) and *Overlay (the same plus a learned tier) both
// implement it.
type Decider interface {
	// SelectFP picks the configuration for one collective call over a
	// communicator with topology fingerprint fp, moving bytes per-rank
	// bytes. It is the per-call entry point: no view is walked and no
	// provenance built.
	SelectFP(coll Collective, fp Fingerprint, bytes int64) Decision
	// SelectExplain is the same decision for a communicator whose member
	// distances are m, plus its provenance.
	SelectExplain(coll Collective, m distance.View, bytes int64) (Decision, string)
}

var (
	_ Decider = (*Selector)(nil)
	_ Decider = (*Overlay)(nil)
)

// Overlay is a Selector with a mutable learned tier: decisions measured
// and fitted at runtime (internal/autotune) that override the static
// machine-class and crossover fallbacks without ever overriding an exact
// calibrated table. The lookup order is
//
//	exact table → learned → machine class → crossover fallback
//
// — a shipped table that matched this exact topology was produced by the
// same simulator the runtime validates against and stays authoritative;
// the learned tier exists precisely for topologies the shipped tables
// only cover by class or not at all, where measured feedback beats a
// stale same-class table.
//
// Learned rules are keyed by (collective, exact fingerprint): a learned
// decision never leaks onto a communicator with a different distance
// structure. Rule ranges may leave gaps; uncovered sizes fall through to
// the lower tiers. An Overlay is safe for concurrent use.
type Overlay struct {
	base *Selector

	mu      sync.RWMutex
	learned map[Collective]map[string][]Rule // fingerprint key → sorted disjoint rules
	fps     map[string]Fingerprint           // fingerprint key → fingerprint (for export)
}

// NewOverlay wraps a base selector with an empty learned tier. A nil
// base behaves like the nil Selector: fallback rules only below the
// learned tier.
func NewOverlay(base *Selector) *Overlay {
	return &Overlay{
		base:    base,
		learned: make(map[Collective]map[string][]Rule),
		fps:     make(map[string]Fingerprint),
	}
}

// Base returns the wrapped static selector (nil when none).
func (o *Overlay) Base() *Selector { return o.base }

// fpKey is the map key of a fingerprint: every field that Equal compares,
// rendered canonically.
func fpKey(f Fingerprint) string {
	return fmt.Sprintf("%d/%d/%v/%v/%v", f.Procs, f.MaxDist, f.SingleMC, f.Hist, f.AdjHist)
}

// Select is SelectFP over the fingerprint of m.
func (o *Overlay) Select(coll Collective, m distance.View, bytes int64) Decision {
	return o.SelectFP(coll, FingerprintOf(m), bytes)
}

// SelectFP implements Decider.
func (o *Overlay) SelectFP(coll Collective, fp Fingerprint, bytes int64) Decision {
	d, _ := o.decide(coll, fp, bytes)
	return d
}

// SelectExplain implements Decider: exact table hits first, then the
// learned tier (provenance "learned"), then the base selector's
// machine-class and fallback tiers.
func (o *Overlay) SelectExplain(coll Collective, m distance.View, bytes int64) (Decision, string) {
	return o.ExplainFP(coll, FingerprintOf(m), bytes)
}

// ExplainFP is SelectExplain for a pre-computed fingerprint — the
// autotuner queries many (collective, size) cells against one frozen
// topology per recalibration and must not pay the O(n²) fingerprint loop
// per query.
func (o *Overlay) ExplainFP(coll Collective, fp Fingerprint, bytes int64) (Decision, string) {
	d, src := o.decide(coll, fp, bytes)
	return d, src.String()
}

func (o *Overlay) decide(coll Collective, fp Fingerprint, bytes int64) (Decision, source) {
	if d, src, ok := o.base.selectExact(coll, fp, bytes); ok {
		return d, src
	}
	if d, ok := o.Learned(coll, fp, bytes); ok {
		return d, source{tier: "learned"}
	}
	if d, src, ok := o.base.selectClass(coll, fp, bytes); ok {
		return d, src
	}
	return Fallback(coll, fp, bytes), source{tier: "fallback"}
}

// Learned returns the learned-tier decision covering bytes, if any.
func (o *Overlay) Learned(coll Collective, fp Fingerprint, bytes int64) (Decision, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	byFP := o.learned[coll]
	if len(byFP) == 0 {
		return Decision{}, false // nothing learned: do not format the key
	}
	for _, r := range byFP[fpKey(fp)] {
		if r.Covers(bytes) {
			return r.Decision, true
		}
	}
	return Decision{}, false
}

// SetLearned installs (or replaces) a learned rule for one (collective,
// fingerprint). The new rule's range displaces any overlapping part of
// existing rules — an existing rule straddling the new range is clipped,
// one fully inside it is dropped — so the learned tier stays sorted and
// disjoint. Invalid rules (bad decision, empty range) are rejected.
func (o *Overlay) SetLearned(coll Collective, fp Fingerprint, r Rule) error {
	if !r.Decision.Valid() {
		return fmt.Errorf("tune: learned rule has invalid decision %+v", r.Decision)
	}
	if r.MinBytes < 0 || (r.MaxBytes != 0 && r.MaxBytes <= r.MinBytes) {
		return fmt.Errorf("tune: learned rule has empty range [%d, %d)", r.MinBytes, r.MaxBytes)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	key := fpKey(fp)
	if _, ok := o.fps[key]; !ok {
		o.fps[key] = fp
	}
	byFP := o.learned[coll]
	if byFP == nil {
		byFP = make(map[string][]Rule)
		o.learned[coll] = byFP
	}
	byFP[key] = spliceRule(byFP[key], r)
	return nil
}

// spliceRule inserts r into a sorted disjoint rule list, clipping or
// dropping any overlap.
func spliceRule(rules []Rule, r Rule) []Rule {
	out := make([]Rule, 0, len(rules)+1)
	for _, e := range rules {
		lo, hi := e.MinBytes, e.MaxBytes
		// Keep the part of e left of r.
		if lo < r.MinBytes {
			left := e
			if hi == 0 || hi > r.MinBytes {
				left.MaxBytes = r.MinBytes
			}
			out = append(out, left)
		}
		// Keep the part of e right of r (only when r is bounded).
		if r.MaxBytes != 0 && (hi == 0 || hi > r.MaxBytes) {
			right := e
			if lo < r.MaxBytes {
				right.MinBytes = r.MaxBytes
			}
			out = append(out, right)
		}
	}
	out = append(out, r)
	sort.Slice(out, func(i, j int) bool { return out[i].MinBytes < out[j].MinBytes })
	return out
}

// LearnedRules returns a snapshot of the learned rules for one
// (collective, fingerprint), sorted by MinBytes; nil when none.
func (o *Overlay) LearnedRules(coll Collective, fp Fingerprint) []Rule {
	o.mu.RLock()
	defer o.mu.RUnlock()
	rules := o.learned[coll][fpKey(fp)]
	if len(rules) == 0 {
		return nil
	}
	return append([]Rule(nil), rules...)
}

// LearnedTable exports the whole learned tier as a decision table (the
// persistence and disttune interchange form). Rule sets carry binding
// "learned"; gaps in a fingerprint's coverage are filled by extending the
// neighboring rule boundaries so the result passes Table.Validate. The
// table is empty (nil) when nothing was learned.
func (o *Overlay) LearnedTable(name string) *Table {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t := &Table{Name: name, Machine: "learned"}
	for _, coll := range Collectives() {
		byFP := o.learned[coll]
		keys := make([]string, 0, len(byFP))
		for k := range byFP {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rules := closeRules(byFP[k])
			if len(rules) == 0 {
				continue
			}
			fp := o.fps[k]
			if t.Procs == 0 {
				t.Procs = fp.Procs
			}
			t.RuleSets = append(t.RuleSets, RuleSet{
				Coll:        coll,
				Binding:     "learned",
				Fingerprint: fp,
				Rules:       rules,
			})
		}
	}
	if len(t.RuleSets) == 0 {
		return nil
	}
	sortRuleSets(t.RuleSets)
	return t
}

// closeRules turns a sorted disjoint (possibly gappy) rule list into a
// contiguous cover of [0, ∞): each rule's range extends left to its
// predecessor's end, the first starts at 0, the last is unbounded.
func closeRules(rules []Rule) []Rule {
	if len(rules) == 0 {
		return nil
	}
	out := append([]Rule(nil), rules...)
	out[0].MinBytes = 0
	for i := 1; i < len(out); i++ {
		out[i].MinBytes = out[i-1].MaxBytes
	}
	out[len(out)-1].MaxBytes = 0
	// Coalesce neighbors that now carry the same decision.
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Decision == last.Decision {
			last.MaxBytes = r.MaxBytes
			continue
		}
		merged = append(merged, r)
	}
	return merged
}
