// Package check is the trace analyzer: given the copy events a collective
// actually executed, mechanically verify the schedule invariants the
// paper's algorithms promise (§IV):
//
//  1. the broadcast tree's depth is minimum over the distance matrix
//     (checked against an independent lower bound on ultrametric
//     matrices, and against the reference construction's depth), and its
//     weight is the MST weight (checked against an independent Prim);
//  2. the allgather ring has fan-out ≤ 2: every rank pulls from exactly
//     one neighbor and is pulled from by exactly one, forming a single
//     Hamiltonian cycle;
//  3. no executed edge crosses a higher distance class than the
//     construction promised, and every event's distance tag matches the
//     matrix;
//  4. pipelined chunks are ordered along each path: a rank's chunk
//     indices are strictly increasing and complete.
//
// It lives apart from package trace because it compares traces against
// the reference constructions of internal/core, which the event layer
// itself must not depend on.
package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
)

// Report is the outcome of one invariant verification.
type Report struct {
	Op         string
	Info       []string // informative summary lines
	Violations []string // empty means all invariants hold
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *Report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s\n", r.Op, status)
	for _, l := range r.Info {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}

// VerifyBroadcast checks the four schedule invariants on the copy events
// of one broadcast over n ranks rooted at root with a size-byte payload.
// events must be the KindCopy events of that single collective, in
// emission order.
func VerifyBroadcast(events []trace.Event, m distance.View, root int, size int64) *Report {
	r := &Report{Op: "bcast"}
	n := m.Size()
	if len(events) == 0 {
		if n > 1 {
			r.violate("no copy events for a %d-rank broadcast", n)
		}
		return r
	}

	// Reconstruct the executed tree: each rank's pulls must all name one
	// parent; the root must execute no pulls.
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	byRank := make([][]trace.Event, n)
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= n {
			r.violate("copy by out-of-range rank %d", e.Rank)
			return r
		}
		if e.Dst != e.Rank {
			r.violate("op %d: rank %d wrote rank %d's buffer (broadcast is receiver-driven)", e.OpID, e.Rank, e.Dst)
		}
		if e.Rank == root {
			r.violate("op %d: root %d executed a pull", e.OpID, root)
			continue
		}
		if parent[e.Rank] == -1 {
			parent[e.Rank] = e.Src
		} else if parent[e.Rank] != e.Src {
			r.violate("rank %d pulled from both %d and %d (tree edge not unique)", e.Rank, parent[e.Rank], e.Src)
		}
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	for v := 0; v < n; v++ {
		if v != root && parent[v] == -1 {
			r.violate("rank %d never received the payload", v)
		}
	}
	if !r.OK() {
		return r
	}

	// Structure: connected and acyclic (every rank reaches the root).
	depth := 0
	for v := 0; v < n; v++ {
		d, q := 0, v
		for q != root {
			q = parent[q]
			if d++; d > n {
				r.violate("parent chain of rank %d cycles", v)
				return r
			}
		}
		if d > depth {
			depth = d
		}
	}

	// Invariant 1a: executed weight is the MST weight (independent Prim).
	weight := 0
	for v := 0; v < n; v++ {
		if v != root {
			weight += m.At(v, parent[v])
		}
	}
	if mst := primWeight(m); weight != mst {
		r.violate("executed tree weight %d, minimum spanning weight %d", weight, mst)
	}

	// Invariant 1b: depth is minimum over the distance matrix. On an
	// ultrametric matrix (every hierarchical machine) the lower bound is
	// computed independently of the construction; otherwise fall back to
	// the reference construction's depth.
	if IsUltrametric(m) {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if lb := minDepthUltra(m, all, root); depth != lb {
			r.violate("executed tree depth %d, minimum over matrix is %d", depth, lb)
		} else {
			r.info("depth %d = matrix minimum (ultrametric bound)", depth)
		}
	} else if ref, err := core.BuildBroadcastTree(m, root, core.TreeOptions{}); err == nil {
		if depth != ref.Depth() {
			r.violate("executed tree depth %d, reference construction depth %d", depth, ref.Depth())
		}
	}

	// Invariant 3: distance-class fidelity and the construction's promise.
	promised := 0
	if ref, err := core.BuildBroadcastTree(m, root, core.TreeOptions{}); err == nil {
		for v := 0; v < n; v++ {
			if w := ref.ParentWeight[v]; w > promised {
				promised = w
			}
		}
	}
	checkClasses(r, events, m, promised)

	// Invariant 4: pipeline chunks ordered and complete per rank.
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		var got int64
		for i, e := range byRank[v] {
			if e.Chunk != i {
				r.violate("rank %d: chunk %d arrived at position %d (pipeline disordered)", v, e.Chunk, i)
				break
			}
			got += e.Bytes
		}
		if got != size {
			r.violate("rank %d received %d bytes, want %d", v, got, size)
		}
	}
	r.info("%d ranks, %d copies, weight %d", n, len(events), weight)
	return r
}

// VerifyAllgather checks the schedule invariants on the copy events of
// one allgather over n ranks with block-byte contributions.
func VerifyAllgather(events []trace.Event, m distance.View, block int64) *Report {
	r := &Report{Op: "allgather"}
	n := m.Size()
	pulls := make([][]trace.Event, n)
	locals := make([]int, n)
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= n {
			r.violate("copy by out-of-range rank %d", e.Rank)
			return r
		}
		if e.Mode == sched.ModeLocal.String() {
			locals[e.Rank]++
			if e.Bytes != block {
				r.violate("rank %d: local contribution copy of %d bytes, want %d", e.Rank, e.Bytes, block)
			}
			continue
		}
		pulls[e.Rank] = append(pulls[e.Rank], e)
	}

	// Invariant 2: fan-out ≤ 2. Every rank pulls from exactly one left
	// neighbor, every rank is pulled from by exactly one right neighbor,
	// and following the pull edges walks a single Hamiltonian cycle.
	left := make([]int, n)
	pulledBy := make([]int, n)
	for v := range left {
		left[v], pulledBy[v] = -1, 0
	}
	for v := 0; v < n; v++ {
		if locals[v] != 1 {
			r.violate("rank %d made %d local contribution copies, want 1", v, locals[v])
		}
		if len(pulls[v]) != n-1 {
			r.violate("rank %d executed %d ring pulls, want %d", v, len(pulls[v]), n-1)
		}
		for _, e := range pulls[v] {
			if e.Dst != v {
				r.violate("op %d: rank %d wrote rank %d's buffer", e.OpID, v, e.Dst)
			}
			if left[v] == -1 {
				left[v] = e.Src
			} else if left[v] != e.Src {
				r.violate("rank %d pulled from both %d and %d (fan-out > 2)", v, left[v], e.Src)
			}
			if e.Bytes != block {
				r.violate("rank %d: ring pull of %d bytes, want %d", v, e.Bytes, block)
			}
		}
	}
	if !r.OK() {
		return r
	}
	if n > 1 {
		for v := 0; v < n; v++ {
			pulledBy[left[v]]++
		}
		for v := 0; v < n; v++ {
			if pulledBy[v] != 1 {
				r.violate("rank %d is pulled from by %d ranks, want 1", v, pulledBy[v])
			}
		}
		seen := make([]bool, n)
		cur, steps := 0, 0
		for !seen[cur] {
			seen[cur] = true
			cur = left[cur]
			steps++
		}
		if steps != n || cur != 0 {
			r.violate("pull edges do not form a single Hamiltonian cycle (%d-step cycle through rank %d)", steps, cur)
		} else {
			r.info("Hamiltonian ring, fan-out 2")
		}
	}

	// Invariant 3: distance classes within the construction's promise.
	promised := 0
	if n > 1 {
		if ref, err := core.BuildAllgatherRing(m, core.RingOptions{}); err == nil {
			for v := 0; v < n; v++ {
				if w := ref.RightWeight[v]; w > promised {
					promised = w
				}
			}
		}
	}
	var ring []trace.Event
	for v := 0; v < n; v++ {
		ring = append(ring, pulls[v]...)
	}
	checkClasses(r, ring, m, promised)

	// Invariant 4: each rank's ring steps are strictly increasing and
	// complete (steps 1..n-1; the pipeline around the ring is ordered).
	for v := 0; v < n; v++ {
		for i, e := range pulls[v] {
			if e.Chunk != i+1 {
				r.violate("rank %d: ring step %d arrived at position %d", v, e.Chunk, i+1)
				break
			}
		}
	}
	r.info("%d ranks, %d copies", n, len(events))
	return r
}

// checkClasses verifies invariant 3 on a set of copy events: each event's
// distance tag matches the matrix, and no cross-rank edge exceeds the
// promised maximum class.
func checkClasses(r *Report, events []trace.Event, m distance.View, promised int) {
	worst := 0
	for _, e := range events {
		d := m.At(e.Src, e.Dst)
		if e.Dist != d {
			r.violate("op %d: edge %d→%d tagged distance %d, matrix says %d", e.OpID, e.Src, e.Dst, e.Dist, d)
		}
		if e.Src == e.Dst {
			continue // self-copy, not a topology edge
		}
		if d > worst {
			worst = d
		}
		if d > promised {
			r.violate("op %d: edge %d→%d crosses distance class %d, construction promised ≤ %d",
				e.OpID, e.Src, e.Dst, d, promised)
		}
	}
	r.info("max distance class used %d (promised ≤ %d)", worst, promised)
}

// VerifyMetrics checks that the registry's per-distance-class byte and
// copy totals exactly match the traced copy events — the accounting the
// paper's locality argument depends on.
func VerifyMetrics(mx *trace.Metrics, events []trace.Event) *Report {
	r := &Report{Op: "metrics"}
	bytes := make(map[int]int64)
	copies := make(map[int]int64)
	for _, e := range trace.Filter(events, trace.KindCopy) {
		bytes[e.Dist] += e.Bytes
		copies[e.Dist]++
	}
	classes := make([]int, 0, len(bytes))
	for d := range bytes {
		classes = append(classes, d)
	}
	sort.Ints(classes)
	for _, d := range classes {
		if got := mx.DistClass("bytes", d).Load(); got != bytes[d] {
			r.violate("bytes.dist.%d = %d, traced copy events sum to %d", d, got, bytes[d])
		}
		if got := mx.DistClass("copies", d).Load(); got != copies[d] {
			r.violate("copies.dist.%d = %d, traced copy events count %d", d, got, copies[d])
		}
		r.info("class %d: %d bytes over %d copies", d, bytes[d], copies[d])
	}

	// The robustness counters must agree with the event stream too: every
	// checksum mismatch emits one KindIntegrity event, every completed
	// agreement one KindAgree event.
	mismatchEvents := int64(len(trace.Filter(events, trace.KindIntegrity)))
	if got := mx.Counter("integrity.mismatches").Load(); got != mismatchEvents {
		r.violate("integrity.mismatches = %d, traced integrity events count %d", got, mismatchEvents)
	}
	agreeEvents := int64(len(trace.Filter(events, trace.KindAgree)))
	if got := mx.Counter("agree.calls").Load(); got != agreeEvents {
		r.violate("agree.calls = %d, traced agreement events count %d", got, agreeEvents)
	}
	if mismatchEvents > 0 || agreeEvents > 0 {
		r.info("robustness: %d checksum mismatches (%d re-pulls, %d abandoned), %d agreements over %d rounds",
			mismatchEvents, mx.Counter("integrity.repulls").Load(),
			mx.Counter("integrity.failures").Load(), agreeEvents,
			mx.Counter("agree.rounds").Load())
	}

	// Incremental-recovery accounting: every recovery decision emits one
	// KindRecovery event tagged with its mode, so the six recovery.*
	// counters are fully reconstructible from the event stream.
	var repairs, restarts, retries, chunks, moved, saved int64
	for _, e := range trace.Filter(events, trace.KindRecovery) {
		moved += e.Bytes
		switch e.Mode {
		case "repair":
			repairs++
			chunks += int64(e.Chunk)
			var full, sv int64
			if _, err := fmt.Sscanf(e.Det, "full=%d saved=%d", &full, &sv); err != nil {
				r.violate("recovery event for %s: unparseable detail %q", e.Op, e.Det)
				continue
			}
			saved += sv
			if e.Bytes+sv != full {
				r.violate("recovery event for %s: moved %d + saved %d ≠ full baseline %d", e.Op, e.Bytes, sv, full)
			}
		case "restart":
			restarts++
		case "retry":
			retries++
		default:
			r.violate("recovery event for %s has unknown mode %q", e.Op, e.Mode)
		}
	}
	recoveryCounters := []struct {
		name string
		want int64
	}{
		{"recovery.repairs", repairs},
		{"recovery.restarts", restarts},
		{"recovery.retries", retries},
		{"recovery.chunks_repulled", chunks},
		{"recovery.bytes_moved", moved},
		{"recovery.bytes_saved", saved},
	}
	for _, rc := range recoveryCounters {
		if got := mx.Counter(rc.name).Load(); got != rc.want {
			r.violate("%s = %d, traced recovery events sum to %d", rc.name, got, rc.want)
		}
	}
	if repairs+restarts+retries > 0 {
		r.info("recovery: %d delta repairs (%d chunks re-pulled, %d bytes saved), %d restarts, %d in-place retries",
			repairs, chunks, saved, restarts, retries)
	}

	// Partition accounting: every quorum decision emits one KindPartition
	// event and every refused stale-epoch transfer one KindFence event, so
	// the counters must reconstruct exactly from the stream.
	partEvents := int64(len(trace.Filter(events, trace.KindPartition)))
	if got := mx.Counter("partition.decisions").Load(); got != partEvents {
		r.violate("partition.decisions = %d, traced partition events count %d", got, partEvents)
	}
	fenceEvents := int64(len(trace.Filter(events, trace.KindFence)))
	if got := mx.Counter("partition.fenced").Load(); got != fenceEvents {
		r.violate("partition.fenced = %d, traced fence events count %d", got, fenceEvents)
	}
	if partEvents > 0 {
		r.info("partition: %d quorum decisions, %d fenced transfers, %d probes, epoch %d",
			partEvents, fenceEvents, mx.Counter("partition.probes").Load(),
			int64(mx.Gauge("partition.epoch").Load()))
	}
	return r
}

// VerifyPartition checks the partition-tolerance invariants an event
// stream must satisfy: partition epochs are strictly monotone, at most
// one component survives each decision, no copy ever crosses a decided
// partition boundary after the decision (the fence holds), and fence
// events only ever name ranks outside the surviving component.
func VerifyPartition(events []trace.Event) *Report {
	r := &Report{Op: "partition"}
	decisions := trace.Filter(events, trace.KindPartition)
	if len(decisions) == 0 {
		r.info("no partition decisions in trace")
		return r
	}

	// Epoch monotonicity: each decision's epoch strictly exceeds the last.
	last := int64(0)
	for _, e := range decisions {
		epoch := int64(e.Chunk)
		if epoch <= last {
			r.violate("partition epoch %d at t=%d does not exceed prior epoch %d (epochs must be strictly monotone)",
				epoch, e.T, last)
		}
		last = epoch
	}

	// Boundary integrity: once a decision names a surviving component,
	// the minority is fenced forever — no later copy may cross the
	// boundary, even after the injected network heals.
	crossings := 0
	for _, d := range decisions {
		winner, ok := parseWinner(d.Det)
		if !ok {
			r.violate("partition event at epoch %d has unparseable detail %q", d.Chunk, d.Det)
			continue
		}
		if len(winner) == 0 {
			r.info("epoch %d: total quorum loss, no surviving component", d.Chunk)
			continue
		}
		in := make(map[int]bool, len(winner))
		for _, m := range winner {
			in[m] = true
		}
		for _, c := range trace.Filter(events, trace.KindCopy) {
			if c.T <= d.T || c.Src == c.Dst {
				continue
			}
			if in[c.Src] != in[c.Dst] {
				crossings++
				r.violate("copy %d→%d at t=%d crosses the epoch-%d partition boundary (winner %v) after the decision",
					c.Src, c.Dst, c.T, d.Chunk, winner)
			}
		}
		for _, f := range trace.Filter(events, trace.KindFence) {
			if f.T >= d.T && int64(f.Chunk) == int64(d.Chunk) && in[f.Rank] {
				r.violate("fence event at epoch %d names rank %d, which is inside the surviving component %v",
					f.Chunk, f.Rank, winner)
			}
		}
		r.info("epoch %d: winner %v, boundary holds over %d copies",
			d.Chunk, winner, len(trace.Filter(events, trace.KindCopy)))
	}
	if crossings == 0 {
		r.info("%d decisions, epochs strictly monotone, no cross-boundary copy after any decision", len(decisions))
	}
	return r
}

// parseWinner extracts the surviving component from a partition event's
// verdict detail ("epoch=N comps=[[...] [...]] winner=[a b c] total=M").
// An empty winner ("winner=[]") parses to an empty, non-nil slice.
func parseWinner(det string) ([]int, bool) {
	const key = "winner=["
	i := strings.Index(det, key)
	if i < 0 {
		return nil, false
	}
	rest := det[i+len(key):]
	j := strings.IndexByte(rest, ']')
	if j < 0 {
		return nil, false
	}
	winner := []int{}
	for _, f := range strings.Fields(rest[:j]) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, false
		}
		winner = append(winner, v)
	}
	return winner, true
}

// primWeight computes the minimum-spanning-tree weight of the complete
// graph over m with Prim's algorithm — deliberately a different algorithm
// from the construction under test.
func primWeight(m distance.View) int {
	n := m.Size()
	if n <= 1 {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	in := make([]bool, n)
	best := make([]int, n)
	for i := range best {
		best[i] = inf
	}
	in[0] = true
	for j := 1; j < n; j++ {
		best[j] = m.At(0, j)
	}
	total := 0
	for picked := 1; picked < n; picked++ {
		u, w := -1, inf
		for j := 0; j < n; j++ {
			if !in[j] && best[j] < w {
				u, w = j, best[j]
			}
		}
		in[u] = true
		total += w
		for j := 0; j < n; j++ {
			if !in[j] && m.At(u, j) < best[j] {
				best[j] = m.At(u, j)
			}
		}
	}
	return total
}

// IsUltrametric reports whether m satisfies the strong triangle
// inequality d(i,j) ≤ max(d(i,k), d(k,j)) — true for every matrix derived
// from a hierarchical machine, where "distance ≤ t" is an equivalence at
// every threshold t.
func IsUltrametric(m distance.View) bool {
	n := m.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				a, b := m.At(i, k), m.At(k, j)
				if b > a {
					a = b
				}
				if m.At(i, j) > a {
					return false
				}
			}
		}
	}
	return true
}

// minDepthUltra computes the minimum possible depth of any minimum-weight
// spanning tree of the ultrametric matrix m restricted to ranks, rooted
// at root. In an ultrametric, the ranks split into clusters whose
// pairwise internal distance is strictly below the set's maximum w; an
// MST uses exactly one w-edge per non-root cluster, attachable at best
// directly to the root, so the depth is the root cluster's own depth or
// one more than the cheapest entry into each other cluster.
func minDepthUltra(m distance.View, ranks []int, root int) int {
	if len(ranks) <= 1 {
		return 0
	}
	w := 0
	for i, a := range ranks {
		for _, b := range ranks[i+1:] {
			if d := m.At(a, b); d > w {
				w = d
			}
		}
	}
	clusters := clustersBelow(m, ranks, w)
	if len(clusters) == 1 {
		// All pairs at exactly w: a star from the root has depth 1.
		return 1
	}
	depth := 0
	for _, c := range clusters {
		if containsRank(c, root) {
			if d := minDepthUltra(m, c, root); d > depth {
				depth = d
			}
			continue
		}
		best := len(ranks)
		for _, e := range c {
			if d := minDepthUltra(m, c, e); d < best {
				best = d
			}
		}
		if 1+best > depth {
			depth = 1 + best
		}
	}
	return depth
}

// clustersBelow partitions ranks into the equivalence classes of
// "distance < w" (an equivalence on an ultrametric).
func clustersBelow(m distance.View, ranks []int, w int) [][]int {
	assigned := make(map[int]bool, len(ranks))
	var out [][]int
	for _, a := range ranks {
		if assigned[a] {
			continue
		}
		c := []int{a}
		assigned[a] = true
		for _, b := range ranks {
			if !assigned[b] && m.At(a, b) < w {
				c = append(c, b)
				assigned[b] = true
			}
		}
		out = append(out, c)
	}
	return out
}

func containsRank(set []int, r int) bool {
	for _, v := range set {
		if v == r {
			return true
		}
	}
	return false
}
