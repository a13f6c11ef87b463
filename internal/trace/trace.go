// Package trace turns a simulated schedule execution into diagnostics: a
// per-rank text timeline (who copied when), the critical path (the
// dependency chain that determined the makespan), and resource utilization
// summaries. It is the analysis companion to the performance model: the
// tool that shows *why* a collective was slow — a saturated memory
// controller, a serialized sender, a late pipeline fill.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"distcoll/internal/des"
	"distcoll/internal/imb"
	"distcoll/internal/sched"
)

// Step is one operation on the critical path.
type Step struct {
	Op     sched.OpID
	Rank   int
	Kind   sched.OpKind
	Mode   sched.Mode
	Bytes  int64
	Start  float64
	Finish float64
}

// CriticalPath walks back from the op that finished last, at each step
// following the predecessor whose completion gated the op's start: the
// latest-finishing dependency, or the op itself if it started promptly
// (latency/bandwidth bound). The returned chain is in execution order.
func CriticalPath(s *sched.Schedule, res *des.Result) []Step {
	if len(s.Ops) == 0 {
		return nil
	}
	last := 0
	for i := range s.Ops {
		if res.OpFinish[i] > res.OpFinish[last] {
			last = i
		}
	}
	var rev []Step
	cur := last
	for {
		op := &s.Ops[cur]
		rev = append(rev, Step{
			Op: op.ID, Rank: op.Rank, Kind: op.Kind, Mode: op.Mode, Bytes: op.Bytes,
			Start: res.OpStart[cur], Finish: res.OpFinish[cur],
		})
		best, bestFinish := -1, -1.0
		for _, d := range op.Deps {
			if res.OpFinish[d] > bestFinish {
				best, bestFinish = int(d), res.OpFinish[d]
			}
		}
		if best < 0 {
			break
		}
		cur = best
	}
	// Reverse into execution order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RenderCriticalPath formats the chain with per-step durations and gaps.
func RenderCriticalPath(steps []Step) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d steps):\n", len(steps))
	prevFinish := 0.0
	for i, st := range steps {
		gap := st.Start - prevFinish
		fmt.Fprintf(&b, "  %2d. op%-5d rank %-3d %-6s %-5s %9s  %9.2fµs → %9.2fµs (dur %7.2fµs",
			i+1, st.Op, st.Rank, st.Kind, st.Mode, imb.FormatSize(st.Bytes),
			st.Start*1e6, st.Finish*1e6, (st.Finish-st.Start)*1e6)
		if i > 0 && gap > 1e-9 {
			fmt.Fprintf(&b, ", gap %.2fµs", gap*1e6)
		}
		b.WriteString(")\n")
		prevFinish = st.Finish
	}
	return b.String()
}

// RankSpan summarizes one rank's activity.
type RankSpan struct {
	Rank  int
	Ops   int
	Busy  float64 // total op duration
	First float64
	Last  float64
}

// Timeline aggregates per-rank activity.
func Timeline(s *sched.Schedule, res *des.Result) []RankSpan {
	spans := make([]RankSpan, s.NumRanks)
	for i := range spans {
		spans[i].Rank = i
		spans[i].First = -1
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		sp := &spans[op.Rank]
		sp.Ops++
		sp.Busy += res.OpFinish[i] - res.OpStart[i]
		if sp.First < 0 || res.OpStart[i] < sp.First {
			sp.First = res.OpStart[i]
		}
		if res.OpFinish[i] > sp.Last {
			sp.Last = res.OpFinish[i]
		}
	}
	return spans
}

// RenderTimeline draws a compact text Gantt: one row per rank, buckets
// marking activity density.
func RenderTimeline(s *sched.Schedule, res *des.Result, width int) string {
	if width <= 0 {
		width = 60
	}
	if res.Makespan <= 0 || len(s.Ops) == 0 {
		return "(empty timeline)\n"
	}
	rows := make([][]float64, s.NumRanks)
	for i := range rows {
		rows[i] = make([]float64, width)
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		start, finish := res.OpStart[i], res.OpFinish[i]
		lo := int(start / res.Makespan * float64(width))
		hi := int(finish / res.Makespan * float64(width))
		if hi >= width {
			hi = width - 1
		}
		for b := lo; b <= hi; b++ {
			rows[op.Rank][b] += 1
		}
	}
	marks := []byte(" .:+*#")
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (%.2fµs across %d buckets):\n", res.Makespan*1e6, width)
	for r, row := range rows {
		fmt.Fprintf(&b, "  rank %-3d |", r)
		for _, v := range row {
			idx := 0
			switch {
			case v == 0:
			case v <= 1:
				idx = 1
			case v <= 2:
				idx = 2
			case v <= 4:
				idx = 3
			case v <= 8:
				idx = 4
			default:
				idx = 5
			}
			b.WriteByte(marks[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// HotResources lists resources by descending utilization.
func HotResources(res *des.Result, top int) []string {
	type ru struct {
		name string
		util float64
	}
	all := make([]ru, len(res.Utilization))
	for id, u := range res.Utilization {
		all[id] = ru{res.Platform.Name(des.ResourceID(id)), u}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].util != all[b].util {
			return all[a].util > all[b].util
		}
		return all[a].name < all[b].name
	})
	if top > 0 && len(all) > top {
		all = all[:top]
	}
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = fmt.Sprintf("%s: %.0f%%", r.name, r.util*100)
	}
	return out
}
