package chaos

import (
	"bytes"
	"context"
	"fmt"

	"distcoll/internal/distance"
	"distcoll/internal/mpi"
	"distcoll/internal/trace"
	"distcoll/internal/trace/check"
)

// This file is the harness's one table of verified collectives: what every
// rank puts in and what it must get out, as a function of (seed, membership,
// size, rank) — so the same row serves the first attempt on the full
// communicator and the check in the survivors' rank space after any number
// of shrinks. Everything that runs an oracle-checked collective (the fault
// grid, the partition and gray-failure cells, the serve layer's tenant ops)
// goes through Run and Verify; nothing else spells a payload or a check.

// oracleFn is comm rank r's buffer on a communicator whose members are the
// world ranks group, in rank order; nil where the rank has none.
type oracleFn func(seed int64, group []int, size int64, r int) []byte

// collective is one row of the table. Rooted collectives are rooted at world
// rank 0, reductions combine with mpi.OpBXOR, size is the payload (bcast,
// reduce, allreduce) or the per-rank block.
type collective struct {
	rooted, reduces bool
	send, want      oracleFn // input and expected output; both nil for the barrier
	inPlace         bool     // the root's input travels in the recv buffer (bcast)
	// ledgered: the runtime keeps a progress ledger, so a late crash must be
	// recovered for fewer bytes than a restart (checkRecovery).
	ledgered bool
	// structure checks a completed first attempt's copy events against the
	// §IV invariants, where the paper states any.
	structure func(copies []trace.Event, m distance.View, size int64) *check.Report
}

var collectives = map[string]collective{
	"barrier": {},
	"bcast": {rooted: true, send: atRoot(own), want: fromRoot, inPlace: true, ledgered: true,
		structure: func(copies []trace.Event, m distance.View, size int64) *check.Report {
			return check.VerifyBroadcast(copies, m, 0, size)
		}},
	"allgather": {send: own, want: gathered, ledgered: true, structure: check.VerifyAllgather},
	"reduce":    {rooted: true, reduces: true, send: own, want: atRoot(reduced)},
	"allreduce": {reduces: true, send: own, want: reduced},
	"gather":    {rooted: true, send: own, want: atRoot(gathered)},
	"scatter":   {rooted: true, send: atRoot(gathered), want: own},
	"alltoall":  {send: outgoing, want: incoming},
}

// own is the member's own block; fromRoot the root's, whoever asks.
func own(seed int64, group []int, size int64, r int) []byte  { return Payload(seed, group[r], size) }
func fromRoot(seed int64, _ []int, size int64, _ int) []byte { return Payload(seed, 0, size) }

// gathered is every member's block in rank order.
func gathered(seed int64, group []int, size int64, _ int) []byte {
	out := make([]byte, 0, int64(len(group))*size)
	for _, wr := range group {
		out = append(out, Payload(seed, wr, size)...)
	}
	return out
}

// reduced is every member's block combined.
func reduced(seed int64, group []int, size int64, _ int) []byte {
	out := make([]byte, size)
	for _, wr := range group {
		mpi.OpBXOR.Combine(out, Payload(seed, wr, size))
	}
	return out
}

// outgoing and incoming are the two sides of an alltoall: the block world
// rank a sends world rank b is keyed by the pair.
func outgoing(seed int64, group []int, size int64, r int) []byte {
	out := make([]byte, 0, int64(len(group))*size)
	for _, to := range group {
		out = append(out, Payload(seed, group[r]*251+to, size)...)
	}
	return out
}

func incoming(seed int64, group []int, size int64, r int) []byte {
	out := make([]byte, 0, int64(len(group))*size)
	for _, from := range group {
		out = append(out, Payload(seed, from*251+group[r], size)...)
	}
	return out
}

// atRoot restricts a buffer to the root, world rank 0.
func atRoot(f oracleFn) oracleFn {
	return func(seed int64, group []int, size int64, r int) []byte {
		if group[r] != 0 {
			return nil
		}
		return f(seed, group, size, r)
	}
}

// Run executes the calling rank's share of the named collective on c through
// the runtime's resilient ladder, on the oracle input of (seed, c's
// membership, size). It returns what mpi.Comm.Resilient returns: the
// communicator the operation finally completed on and the output there. A
// rooted collective on a communicator world rank 0 already left is the
// ladder's root-lost refusal, one step early.
func Run(ctx context.Context, c *mpi.Comm, name string, seed, size int64, comp mpi.Component) (*mpi.Comm, []byte, error) {
	row, ok := collectives[name]
	if !ok {
		return c, nil, fmt.Errorf("chaos: unknown collective %q", name)
	}
	call := mpi.Call{Coll: name, Comp: comp}
	if row.rooted {
		if call.Root = c.RankOf(0); call.Root < 0 {
			return c, nil, fmt.Errorf("chaos: %s root (world rank 0) left the communicator; %w", name, mpi.ErrRootLost)
		}
	}
	if row.reduces {
		call.Op = mpi.OpBXOR
	}
	if row.want != nil {
		group, r := c.Group(), c.Rank()
		call.Send = row.send(seed, group, size, r)
		call.Recv = make([]byte, len(row.want(seed, group, size, r)))
		if row.inPlace {
			copy(call.Recv, call.Send)
			call.Send = nil
		}
	}
	return c.Resilient(ctx, call)
}

// Verify checks out, what comm rank r of group got from the named
// collective, against the row's expected output on that membership.
func Verify(name string, seed int64, group []int, size int64, r int, out []byte) error {
	row := collectives[name]
	if row.want == nil {
		return nil
	}
	want := row.want(seed, group, size, r)
	switch {
	case want == nil: // not an output on this rank
		return nil
	case len(out) != len(want):
		return fmt.Errorf("%s result is %d bytes, want %d", name, len(out), len(want))
	case !bytes.Equal(out, want):
		diff := 0
		for i := range out {
			if out[i] != want[i] {
				diff++
			}
		}
		return fmt.Errorf("%s output corrupted on world rank %d (%d of %d bytes differ)", name, group[r], diff, len(want))
	}
	return nil
}

// RunVerified is Run followed by Verify on the communicator it completed on.
func RunVerified(ctx context.Context, c *mpi.Comm, name string, seed, size int64, comp mpi.Component) (*mpi.Comm, error) {
	nc, out, err := Run(ctx, c, name, seed, size, comp)
	if err != nil {
		return nc, err
	}
	return nc, Verify(name, seed, nc.Group(), size, nc.Rank(), out)
}
