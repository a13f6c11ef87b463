package main

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/hwtopo"
	"distcoll/internal/mpi"
	"distcoll/internal/trace"
)

// A live workload is an SPMD program over one long-lived World: every
// round, each rank walks the same list of slots, and each slot is a
// communicator (the world's, or a fresh Split) plus the cells run on it.

// slotSpec describes one communicator of a round.
type slotSpec struct {
	// colors is 0 for the world communicator; otherwise the slot Splits
	// the world into that many equal colours with a seeded key
	// permutation (1: a pure reorder), runs its cells on the new
	// communicator cold, and Frees it.
	colors int
	cells  []cellSpec
}

// size is the slot's communicator size on an n-rank world.
func (s slotSpec) size(n int) int {
	if s.colors == 0 {
		return n
	}
	return n / s.colors
}

// prefix names the slot in span and metric names.
func (s slotSpec) prefix() string {
	switch s.colors {
	case 0:
		return ""
	case 1:
		return "reorder."
	default:
		return fmt.Sprintf("split%d.", s.colors)
	}
}

// splitPlan is one round's seeded colour and key per world rank.
type splitPlan struct{ color, key []int }

// makeSplitPlan draws the plan for (seed, round, slot): a seeded
// permutation gives the keys, and its residues give balanced colours.
func makeSplitPlan(seed, round uint64, slot, n, colors int, into *splitPlan) {
	if len(into.key) != n {
		into.key, into.color = make([]int, n), make([]int, n)
	}
	for i := range into.key {
		into.key[i] = i
	}
	state := mix64(seed*golden ^ round<<8 ^ uint64(slot+1))
	for i := n - 1; i > 0; i-- {
		state += golden
		j := int(mix64(state) % uint64(i+1))
		into.key[i], into.key[j] = into.key[j], into.key[i]
	}
	for i, k := range into.key {
		into.color[i] = k % colors
	}
}

// group returns the members of world rank r's new communicator in
// communicator order, by the MPI_Comm_split rule (key, then old rank),
// and r's rank in it. It is the oracle's view of Split.
func (p *splitPlan) group(r int) (group []int, me int) {
	for wr, c := range p.color {
		if c == p.color[r] {
			group = append(group, wr)
		}
	}
	sort.Slice(group, func(a, b int) bool {
		if p.key[group[a]] != p.key[group[b]] {
			return p.key[group[a]] < p.key[group[b]]
		}
		return group[a] < group[b]
	})
	for i, wr := range group {
		if wr == r {
			me = i
		}
	}
	return group, me
}

type slotInst struct {
	spec  slotSpec
	first int          // global index of the slot's first cell (names its streams)
	bufs  [][]rankBufs // [cell][world rank]
	// World slots precompute the expected outputs; split slots derive
	// them from the round's plan.
	want [][][]byte   // [cell][rank]
	kmul []uint64     // [cell]
	plan [2]splitPlan // by round parity: checkers read one while the next is drawn
}

// liveInst is one built instance of a live workload.
type liveInst struct {
	w     *mpi.World
	n     int
	seed  uint64
	slots []slotInst
	steps []string // span names of one round's calls, in order
	ring  *trace.RingSink

	base      uint64 // rounds run so far; names the next round's stamps
	stop      bool   // written by rank 0 before the inter-round barrier, read after it
	roundBad  atomic.Bool
	attempted int64
	failed    atomic.Int64
	reported  atomic.Int64
}

// igCrossSocket is the placement every live workload runs on: the paper's
// 48-core IG machine under the adversarial cross-socket binding.
func igCrossSocket() (*binding.Binding, error) {
	return binding.CrossSocket(hwtopo.NewIG(), 48)
}

// buildLive constructs the world and every buffer of a live workload.
func buildLive(bind *binding.Binding, slots []slotSpec, seed uint64, opts []mpi.Option, ring *trace.RingSink) (*liveInst, error) {
	in := &liveInst{w: mpi.NewWorld(bind, opts...), n: bind.NumRanks(), seed: seed, ring: ring}
	identity := make([]int, in.n)
	for i := range identity {
		identity[i] = i
	}
	cell := 0
	used := make(map[string]bool)
	for _, spec := range slots {
		if spec.colors > 0 && in.n%spec.colors != 0 {
			return nil, fmt.Errorf("bench: %d ranks do not split into %d equal colours", in.n, spec.colors)
		}
		si := slotInst{spec: spec, first: cell}
		size := spec.size(in.n)
		if spec.colors > 0 {
			in.steps = append(in.steps, spec.prefix()+"split")
		}
		for ci, c := range spec.cells {
			name := spec.prefix() + c.name()
			if c.Root != 0 {
				name += fmt.Sprintf("_r%d", c.Root)
			}
			if used[name] { // same call under another component
				name += "." + c.Comp.String()
			}
			used[name] = true
			in.steps = append(in.steps, name)
			bufs := make([]rankBufs, in.n)
			for r := range bufs {
				if spec.colors == 0 {
					bufs[r] = c.alloc(size, r)
				} else {
					bufs[r] = allocLens(c.anyRankLens(size))
				}
				fillPayload(bufs[r].send, streamKey(seed, cell+ci, r))
			}
			si.bufs = append(si.bufs, bufs)
			if spec.colors == 0 {
				want := make([][]byte, in.n)
				var shared []byte
				var k uint64
				for r := range want {
					switch c.Kind {
					case kindScatter, kindAlltoall: // rank-specific outputs
						want[r], k = expected(c, seed, cell+ci, identity, r)
					default:
						if c.output(r, bufs[r]) == nil {
							continue
						}
						if shared == nil {
							shared, k = expected(c, seed, cell+ci, identity, r)
						}
						want[r] = shared
					}
				}
				si.want = append(si.want, want)
				si.kmul = append(si.kmul, k)
			}
		}
		if spec.colors > 0 {
			in.steps = append(in.steps, spec.prefix()+"free")
		}
		cell += len(spec.cells)
		in.slots = append(in.slots, si)
	}
	return in, nil
}

func (in *liveInst) close() { in.w.Close() }

// opsPerRound is the number of runtime calls a round makes on one rank.
func (in *liveInst) opsPerRound() int { return len(in.steps) }

// prepare stamps rank r's inputs for a round; rank 0 also draws the
// round's split plans.
func (in *liveInst) prepare(r int, round uint64) {
	for si := range in.slots {
		s := &in.slots[si]
		if s.spec.colors > 0 && r == 0 {
			makeSplitPlan(in.seed, round, si, in.n, s.spec.colors, &s.plan[round%2])
		}
		for ci, c := range s.spec.cells {
			if b := s.bufs[ci][r]; len(b.send) > 0 {
				stamp(b.send, streamKey(in.seed, s.first+ci, r), stampStride(c.Bytes), round)
			}
		}
	}
}

// check verifies rank r's outputs of a round against the oracle.
func (in *liveInst) check(r int, round uint64) {
	for si := range in.slots {
		s := &in.slots[si]
		var group []int
		me := r
		if s.spec.colors > 0 {
			group, me = s.plan[round%2].group(r)
		}
		for ci, c := range s.spec.cells {
			var want []byte
			var k uint64
			if s.spec.colors == 0 {
				want, k = s.want[ci][r], s.kmul[ci]
			} else {
				want, k = expected(c, in.seed, s.first+ci, group, me)
			}
			if want == nil {
				continue
			}
			out := c.output(me, s.bufs[ci][r])
			if err := checkOutput(out, want, stampStride(c.Bytes), k, round); err != nil {
				in.fail(fmt.Errorf("round %d %s%s rank %d: %v", round, s.spec.prefix(), c.name(), r, err))
			}
		}
	}
}

// fail counts one failed op (error or oracle mismatch on any rank).
func (in *liveInst) fail(err error) {
	in.failed.Add(1)
	in.roundBad.Store(true)
	if in.reported.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
	}
}

// checkEvery is how often every rank verifies its outputs; rank 0 and the
// last rank verify every round.
const checkEvery = 50

// run executes rounds until ph says stop. Rank 0 times each round from
// before its first call to after its last returns; every collective ends
// in the finish vote, so by then every rank is done. Stamping, the split
// plan and verification sit between rounds, outside the timed span.
func (in *liveInst) run(ph *phase) error {
	start := in.base
	ends := make([]time.Time, len(in.steps))
	err := in.w.Run(func(p *mpi.Proc) error {
		world, r := p.Comm(), p.Rank()
		for round := start + 1; ; round++ {
			in.prepare(r, round)
			if r == 0 {
				in.stop = !ph.next()
			}
			if err := world.Barrier(); err != nil {
				return err
			}
			if r == 0 && in.roundBad.Swap(false) {
				ph.dropLast()
			}
			if in.stop {
				if r == 0 {
					ph.closeBlock()
					in.base = round - 1
				}
				return nil
			}
			var t0 time.Time
			if r == 0 {
				ph.beginRound()
				t0 = time.Now()
			}
			step := 0
			mark := func(err error) error {
				if err != nil {
					err = fmt.Errorf("round %d %s: %w", round, in.steps[step], err)
					if r == 0 {
						in.fail(err)
					}
					return err
				}
				if r == 0 && ph.spans != nil {
					ends[step] = time.Now()
				}
				step++
				return nil
			}
			for si := range in.slots {
				s := &in.slots[si]
				comm := world
				if s.spec.colors > 0 {
					plan := &s.plan[round%2]
					var err error
					comm, err = world.Split(plan.color[r], plan.key[r])
					if err = mark(err); err != nil {
						return err
					}
				}
				for ci, c := range s.spec.cells {
					if err := mark(c.call(comm, s.bufs[ci][r])); err != nil {
						return err
					}
				}
				if s.spec.colors > 0 {
					comm.Free()
					_ = mark(nil)
				}
			}
			if r == 0 {
				ph.sample(round, t0, time.Now(), ends, in.steps)
				in.attempted += int64(len(in.steps))
			}
			if r == 0 || r == in.n-1 || round%checkEvery == 0 {
				in.check(r, round)
			}
		}
	})
	return err
}
