package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/partition"
)

// crashCase is one row of the crash-conformance walk.
type crashCase struct {
	d    *collective
	n    int
	when string // "early" | "late": inside the collective; "before": in a preceding Allgather
	root int    // the rooted collective's root (0 otherwise)
	dead int    // the victim; == root in the dead-root rows
}

// compactInput is a survivor's input as the ladder's re-seat leaves it: a
// per-rank buffer (a scatter root's, an alltoall's send) keeps the
// survivors' blocks, in order.
func compactInput(d *collective, in []byte, unit int, survivors []int) []byte {
	input := &d.roles[0]
	for i := range d.roles {
		if !d.roles[i].recv {
			input = &d.roles[i]
		}
	}
	if len(in) == 0 || !input.perRank {
		return in
	}
	var out []byte
	for _, s := range survivors {
		out = append(out, in[s*unit:(s+1)*unit]...)
	}
	return out
}

// TestLadderCrashConformance walks the descriptor table plus the barrier ×
// communicator sizes × {a crash at the victim's first op, a crash after
// ≥ 75 % of its ops, a dead root} through the one exported entry. Every
// survivor must come back on the same successor membership — the group minus
// the victim — with the serial oracle's output over the SURVIVORS, per-rank
// buffers in the compacted layout; a dead root is the typed root-lost error
// on every survivor. A rank that runs no op of the collective (a barrier's,
// a broadcast root) cannot crash inside it: it dies in a preceding Allgather
// and the ladder starts on the broken communicator.
func TestLadderCrashConformance(t *testing.T) {
	const unit = 8 * 8209 // ≥ the pipeline threshold: a broadcast is several chunks per rank
	descs := []*collective{&barrier}
	for i := range collectives {
		descs = append(descs, &collectives[i])
	}
	var cases []crashCase
	for _, d := range descs {
		for _, n := range []int{3, 6, 16} {
			root := 0
			if d.rooted {
				root = n / 2
			}
			victim := (root + 1) % n
			cases = append(cases, crashCase{d, n, "early", root, victim}, crashCase{d, n, "late", root, victim})
			if d.rooted {
				cases = append(cases, crashCase{d, n, "before", root, root})
			}
		}
	}
	for _, tc := range cases {
		d, n := tc.d, tc.n
		name := fmt.Sprintf("%s n=%d %s crash of rank %d (root %d)", d.name, n, tc.when, tc.dead, tc.root)

		// Where the victim dies: an op index of the collective's schedule on
		// the healthy communicator, or of the Allgather run first.
		crashAt, warmup := 0, tc.when == "before"
		if !warmup {
			ops := 0
			if len(d.roles) > 0 {
				probe := &Comm{state: igWorld(t, "crosssocket", n).worldComm}
				s, _, err := probe.schedule(d, KNEMColl, tc.root, unit, 8)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				idx, err := s.Index()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ops = len(idx.RankOps(tc.dead))
			}
			switch {
			case ops == 0:
				warmup = true
			case tc.when == "late":
				crashAt = min((3*ops+3)/4, ops-1)
			}
		}

		survivors := make([]int, 0, n)
		for r := 0; r < n; r++ {
			if r != tc.dead {
				survivors = append(survivors, r)
			}
		}
		args := make([]collArgs, n)
		in := make([][]byte, 0, n) // the survivors' inputs, as the oracle takes them
		for r := range args {
			if len(d.roles) == 0 {
				args[r] = collArgs{d: d}
				continue
			}
			args[r] = conformanceArgs(d, KNEMColl, n, tc.root, unit, r)
			input := args[r].send
			if len(d.roles) == 1 {
				input = args[r].recv
			}
			if r != tc.dead {
				in = append(in, compactInput(d, bytes.Clone(input), unit, survivors))
			}
		}

		w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{tc.dead: crashAt}}, WithOpDeadline(20*time.Second))
		type result struct {
			group []int
			out   []byte
			err   error
		}
		results := make([]result, n)
		_ = w.Run(func(p *Proc) error {
			r, c := p.Rank(), p.Comm()
			if warmup {
				// The victim dies here; everybody else sees the Allgather
				// fail and moves on to the ladder.
				if err := c.Allgather(make([]byte, 8), make([]byte, 8*n), KNEMColl); r == tc.dead {
					results[r].err = err
					return nil
				}
			}
			nc, out, err := c.Resilient(context.Background(), callOf(args[r]))
			results[r] = result{nc.Group(), out, err}
			return nil
		})

		if !fault.IsCrashed(results[tc.dead].err) {
			t.Errorf("%s: the victim got %v, want its CrashError", name, results[tc.dead].err)
		}
		newRoot := slices.Index(survivors, tc.root)
		for nr, r := range survivors {
			res := results[r]
			if d.rooted && tc.dead == tc.root {
				if !errors.Is(res.err, ErrRootLost) || Classify(res.err) != OutcomeExcluded || res.err.Error() != results[survivors[0]].err.Error() {
					t.Errorf("%s: rank %d got %v, want rank %d's ErrRootLost", name, r, res.err, survivors[0])
				}
				continue
			}
			if res.err != nil {
				t.Errorf("%s: rank %d: %v", name, r, res.err)
				continue
			}
			if !slices.Equal(res.group, survivors) {
				t.Errorf("%s: rank %d finished on %v, want %v", name, r, res.group, survivors)
			}
			if len(d.roles) == 0 {
				continue
			}
			if want := oracles[d.name].want(in, newRoot, unit, nr); want != nil && !bytes.Equal(res.out, want) {
				t.Errorf("%s: rank %d: wrong output (%d bytes, want %d)", name, r, len(res.out), len(want))
			}
		}
	}
}

// TestClassify is the one exclusion rule as a table: every error the runtime
// can hand a caller, bare and wrapped, to its outcome. The success path —
// every warm call of every rank — allocates nothing.
func TestClassify(t *testing.T) {
	e2e := &CorruptionError{Src: 1, Dst: 2, Chunk: -1, EndToEnd: true}
	budget := newRetryBudget(1)
	budget.used = budget.max
	table := []struct {
		name string
		err  error
		want Outcome
	}{
		{"nil", nil, OutcomeOK},
		{"crash", &fault.CrashError{Rank: 3, Op: 1}, OutcomeCrashed},
		{"rank failure", &RankFailureError{Failed: []int{4}}, OutcomeExcluded},
		{"per-hop corruption", &CorruptionError{Src: 1, Dst: 2, Chunk: 5, Attempts: 4}, OutcomeExcluded},
		{"e2e corruption", e2e, OutcomeExcluded},
		{"retry budget exhausted", budget.spend(context.Background(), "bcast", e2e), OutcomeExcluded},
		{"hang, nobody dead", &HangError{Rank: 1, Op: "collective sync"}, OutcomeHang},
		{"hang, members dead", &HangError{Rank: 1, Op: "collective sync", Dump: "rank 2 dead"}, OutcomeHang},
		{"severed copy", fmt.Errorf("mpi: rank 1 knem copy severed: %w", &fault.SeverError{Src: 0, Dst: 1}), OutcomeFailure},
		{"partition", &partition.PartitionError{Rank: 5, Epoch: 1}, OutcomePartitioned},
		{"fence", &partition.FenceError{Rank: 5, Epoch: 1}, OutcomePartitioned},
		{"root lost", fmt.Errorf("mpi: broadcast root (world rank 0) failed; %w", ErrRootLost), OutcomeExcluded},
		{"self failed", fmt.Errorf("mpi: rank 2 is itself failed; %w", ErrSelfFailed), OutcomeExcluded},
		{"nothing to shrink", fmt.Errorf("mpi: no failed members in communicator 7; %w", ErrNothingToShrink), OutcomeExcluded},
		{"argument error", errors.New("mpi: bcast arguments mismatch across ranks"), OutcomeFailure},
		{"foreign", context.DeadlineExceeded, OutcomeFailure},
	}
	for _, row := range table {
		if got := Classify(row.err); got != row.want {
			t.Errorf("Classify(%s) = %d, want %d", row.name, got, row.want)
		}
		if row.err == nil {
			continue
		}
		if got := Classify(fmt.Errorf("rank 3: %w", row.err)); got != row.want {
			t.Errorf("Classify(wrapped %s) = %d, want %d", row.name, got, row.want)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if Classify(nil) != OutcomeOK {
			t.Fatal("nil classified as an error")
		}
	}); got != 0 {
		t.Errorf("classifying a nil error allocates %.0f times, want 0", got)
	}
}

// TestLadderRulesFollowClassification pins the ladder's two predicates as
// rules on the classification plus the membership: a hang is recoverable
// only once somebody died, a severed copy always, a refusal of the caller
// never retries in place.
func TestLadderRulesFollowClassification(t *testing.T) {
	w := faultWorld(t, 4, fault.Plan{})
	c := &Comm{state: w.worldComm}
	hang := &HangError{Rank: 1}
	severed := fmt.Errorf("copy: %w", &fault.SeverError{Src: 0, Dst: 1})
	if recoverable(c, hang) {
		t.Error("a hang with nobody dead must not start a shrink")
	}
	if !recoverable(c, severed) || !recoverable(c, &RankFailureError{}) || !recoverable(c, &CorruptionError{}) {
		t.Error("severed copy, rank failure and corruption are recoverable")
	}
	for _, err := range []error{&fault.CrashError{}, &partition.PartitionError{}, errors.New("mpi: bad argument")} {
		if recoverable(c, err) {
			t.Errorf("%v must not be recoverable", err)
		}
	}
	w.MarkFailed(3)
	if !recoverable(c, hang) {
		t.Error("a hang with a dead member is recoverable")
	}
	if retryInPlace(c, &CorruptionError{EndToEnd: true}) {
		t.Error("corruption with a dead member must shrink, not retry in place")
	}
}
