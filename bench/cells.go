package main

import (
	"fmt"

	"distcoll/internal/imb"
	"distcoll/internal/mpi"
)

// cellKind is one collective entry point of the live runtime.
type cellKind int

const (
	kindBarrier cellKind = iota
	kindBcast
	kindAllgather
	kindReduce
	kindAllreduce
	kindGather
	kindScatter
	kindAlltoall
	kindBcastResilient
	kindAllgatherResilient
)

var kindNames = [...]string{"barrier", "bcast", "allgather", "reduce", "allreduce",
	"gather", "scatter", "alltoall", "bcastres", "allgatherres"}

// cellSpec is one collective call of a round. Bytes is the message for
// bcast/reduce/allreduce, the per-rank block for allgather/gather/scatter
// and the per-pair block for alltoall; it is a multiple of 8.
type cellSpec struct {
	Kind  cellKind
	Bytes int
	Comp  mpi.Component
	Root  int
}

// name is the cell's metric stem, e.g. "allreduce_1K".
func (c cellSpec) name() string {
	if c.Kind == kindBarrier {
		return "barrier"
	}
	return kindNames[c.Kind] + "_" + imb.FormatSize(int64(c.Bytes))
}

func (c cellSpec) String() string {
	if c.Kind == kindBarrier {
		return "Barrier"
	}
	return fmt.Sprintf("%s %s %s", kindNames[c.Kind], imb.FormatSize(int64(c.Bytes)), c.Comp)
}

// inputLen is the length of rank r's input stream on an n-rank
// communicator (0: the rank contributes nothing).
func (c cellSpec) inputLen(n, r int) int {
	switch c.Kind {
	case kindBarrier:
		return 0
	case kindBcast, kindBcastResilient:
		if r != c.Root {
			return 0
		}
		return c.Bytes
	case kindScatter:
		if r != c.Root {
			return 0
		}
		return n * c.Bytes
	case kindAlltoall:
		return n * c.Bytes
	default:
		return c.Bytes
	}
}

// outputLen is the length of rank r's output buffer (0: none).
func (c cellSpec) outputLen(n, r int) int {
	switch c.Kind {
	case kindBarrier:
		return 0
	case kindBcast, kindBcastResilient:
		if r == c.Root {
			return 0 // the root's output is its input
		}
		return c.Bytes
	case kindAllgather, kindAllgatherResilient, kindAlltoall:
		return n * c.Bytes
	case kindGather:
		if r != c.Root {
			return 0
		}
		return n * c.Bytes
	case kindReduce:
		if r != c.Root {
			return 0
		}
		return c.Bytes
	default: // allreduce, scatter
		return c.Bytes
	}
}

// deliveredBytes is the payload a round of this cell delivers on n ranks,
// in the IMB aggregate-bandwidth convention the paper plots.
func (c cellSpec) deliveredBytes(n int) int64 {
	b, p := int64(c.Bytes), int64(n)
	switch c.Kind {
	case kindBarrier:
		return 0
	case kindAllgather, kindAllgatherResilient, kindAlltoall:
		return p * (p - 1) * b
	case kindAllreduce:
		return 2 * (p - 1) * b
	default:
		return (p - 1) * b
	}
}

// rankBufs are one rank's buffers for one cell, allocated at exact size.
type rankBufs struct{ send, recv []byte }

func (c cellSpec) alloc(n, r int) rankBufs {
	return allocLens(c.inputLen(n, r), c.outputLen(n, r))
}

// anyRankLens are the buffer lengths of a member of an n-rank communicator
// whose rank in it is not known yet: it may become the root, so it holds
// whichever of the root's and a non-root's buffers exist.
func (c cellSpec) anyRankLens(n int) (in, out int) {
	other := (c.Root + 1) % n
	return max(c.inputLen(n, c.Root), c.inputLen(n, other)), max(c.outputLen(n, c.Root), c.outputLen(n, other))
}

func allocLens(in, out int) rankBufs {
	var b rankBufs
	if in > 0 {
		b.send = make([]byte, in)
	}
	if out > 0 {
		b.recv = make([]byte, out)
	}
	return b
}

// output is the buffer holding rank r's result after the call.
func (c cellSpec) output(r int, b rankBufs) []byte {
	if (c.Kind == kindBcast || c.Kind == kindBcastResilient) && r == c.Root {
		return b.send
	}
	return b.recv
}

// call runs the cell on one rank.
func (c cellSpec) call(comm *mpi.Comm, b rankBufs) error {
	switch c.Kind {
	case kindBarrier:
		return comm.Barrier()
	case kindBcast:
		return comm.Bcast(c.output(comm.Rank(), b), c.Root, c.Comp)
	case kindAllgather:
		return comm.Allgather(b.send, b.recv, c.Comp)
	case kindReduce:
		return comm.Reduce(b.send, b.recv, c.Root, mpi.OpSumInt64, c.Comp)
	case kindAllreduce:
		return comm.Allreduce(b.send, b.recv, mpi.OpSumInt64, c.Comp)
	case kindGather:
		return comm.Gather(b.send, b.recv, c.Root, c.Comp)
	case kindScatter:
		return comm.Scatter(b.send, b.recv, c.Root, c.Comp)
	case kindAlltoall:
		return comm.Alltoall(b.send, b.recv, c.Comp)
	case kindBcastResilient:
		_, err := comm.BcastResilient(c.output(comm.Rank(), b), c.Root, c.Comp)
		return err
	case kindAllgatherResilient:
		_, _, err := comm.AllgatherResilient(b.send, b.recv, c.Comp)
		return err
	}
	return fmt.Errorf("bench: unknown cell kind %d", c.Kind)
}
