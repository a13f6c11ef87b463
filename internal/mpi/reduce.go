package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"distcoll/internal/baseline"
	"distcoll/internal/core"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// ReduceOp is a reduction operator over byte vectors. Operators must be
// associative and commutative (the runtime makes no ordering guarantees
// beyond that, like MPI_SUM on built-in types).
type ReduceOp struct {
	Name string
	// ElemSize is the operator's element size in bytes (≤1 means
	// byte-wise). Buffers must be a multiple of it; ring block splits are
	// aligned to it.
	ElemSize int64
	// Combine folds src into dst element-wise: dst = op(dst, src). The
	// slices have equal length, a multiple of the operator's element size.
	Combine func(dst, src []byte)
}

// Built-in operators.
var (
	// OpSumFloat64 sums vectors of little-endian float64s.
	OpSumFloat64 = ReduceOp{Name: "sum_f64", ElemSize: 8, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
		}
	}}
	// OpSumInt64 sums vectors of little-endian int64s (wrapping).
	OpSumInt64 = ReduceOp{Name: "sum_i64", ElemSize: 8, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(a+b))
		}
	}}
	// OpMaxUint8 takes the element-wise byte maximum.
	OpMaxUint8 = ReduceOp{Name: "max_u8", Combine: func(dst, src []byte) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}}
	// OpBXOR xors byte vectors.
	OpBXOR = ReduceOp{Name: "bxor", Combine: func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}}
)

// reduceArgs is each member's contribution to a Reduce.
type reduceArgs struct {
	send, recv []byte
	root       int
	op         string
	comp       Component
}

// Reduce combines every member's send buffer with op; the result lands in
// the root's recv buffer (nil elsewhere). This is the paper's §VI
// future-work extension: the distance-aware component reduces up the
// Algorithm-1 tree, so partial results cross each slow link exactly once.
func (c *Comm) Reduce(send, recv []byte, root int, op ReduceOp, comp Component) error {
	_, result, err := c.coordinate(reduceArgs{send: send, recv: recv, root: root, op: op.Name, comp: comp},
		func(vals []any) (any, error) {
			args := make([]reduceArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(reduceArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: reduce coordination corrupted")
				}
				args[i] = a
				if a.root != args[0].root || a.comp != args[0].comp ||
					a.op != args[0].op || len(a.send) != len(args[0].send) {
					return nil, fmt.Errorf("mpi: reduce arguments mismatch across ranks")
				}
			}
			rt := args[0].root
			if rt < 0 || rt >= len(args) {
				return nil, fmt.Errorf("mpi: reduce root %d out of range", rt)
			}
			if len(args[rt].recv) != len(args[rt].send) {
				return nil, fmt.Errorf("mpi: reduce root recv buffer is %d bytes, want %d",
					len(args[rt].recv), len(args[rt].send))
			}
			size := int64(len(args[0].send))
			if size == 0 {
				return c.state.emptyPlan("reduce", len(args)), nil
			}
			s, ad, err := c.buildReduce(size, rt, args[0].comp)
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				switch {
				case name == "send":
					return args[rank].send
				case name == "acc" && rank == rt:
					return args[rank].recv
				default:
					return nil
				}
			}
			plan, err := c.state.newPlan("reduce", s, caller)
			if err != nil {
				return nil, err
			}
			plan.notePlanCache(ad)
			return plan, nil
		})
	if err != nil {
		return err
	}
	return c.runPlanVerified(result.(*collPlan), op.Combine, nil)
}

// allreduceArgs is each member's contribution to an Allreduce.
type allreduceArgs struct {
	send, recv []byte
	op         string
	elem       int64
	comp       Component
}

// Allreduce combines every member's send buffer with op and delivers the
// result to every member's recv buffer. Buffer lengths must be a multiple
// of the operator's element size.
func (c *Comm) Allreduce(send, recv []byte, op ReduceOp, comp Component) error {
	elem := op.ElemSize
	if elem < 1 {
		elem = 1
	}
	_, result, err := c.coordinate(allreduceArgs{send: send, recv: recv, op: op.Name, elem: elem, comp: comp},
		func(vals []any) (any, error) {
			args := make([]allreduceArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(allreduceArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: allreduce coordination corrupted")
				}
				args[i] = a
				if a.comp != args[0].comp || a.op != args[0].op || len(a.send) != len(args[0].send) {
					return nil, fmt.Errorf("mpi: allreduce arguments mismatch across ranks")
				}
				if a.elem > 0 && int64(len(a.send))%a.elem != 0 {
					return nil, fmt.Errorf("mpi: allreduce buffer of %d bytes is not a multiple of element size %d",
						len(a.send), a.elem)
				}
				if len(a.recv) != len(a.send) {
					return nil, fmt.Errorf("mpi: allreduce recv buffer is %d bytes, want %d",
						len(a.recv), len(a.send))
				}
			}
			size := int64(len(args[0].send))
			if size == 0 {
				return c.state.emptyPlan("allreduce", len(args)), nil
			}
			s, ad, err := c.buildAllreduce(size, args[0].elem, args[0].comp)
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				switch name {
				case "send":
					return args[rank].send
				case "recv":
					return args[rank].recv
				default:
					return nil
				}
			}
			plan, err := c.state.newPlan("allreduce", s, caller)
			if err != nil {
				return nil, err
			}
			plan.notePlanCache(ad)
			return plan, nil
		})
	if err != nil {
		return err
	}
	return c.runPlanVerified(result.(*collPlan), op.Combine, nil)
}

func (c *Comm) buildReduce(size int64, root int, comp Component) (*sched.Schedule, *adecision, error) {
	if comp == Adaptive {
		return c.adaptiveSchedule(tune.CollReduce, root, size, 0)
	}
	s, err := c.fixedSchedule("reduce", comp, root, size, 0, func() (*sched.Schedule, error) {
		n := c.Size()
		switch comp {
		case KNEMColl:
			tree, err := c.state.distanceTree(root)
			if err != nil {
				return nil, err
			}
			return core.CompileReduce(tree, size, 0)
		case Tuned:
			return baseline.CompileReduce(n, root, size, baseline.TunedReduceDecision(n, size), baseline.SMKnemBTL())
		default:
			return baseline.CompileReduce(n, root, size, baseline.TunedReduceDecision(n, size), baseline.NemesisSM())
		}
	})
	return s, nil, err
}

func (c *Comm) buildAllreduce(size, align int64, comp Component) (*sched.Schedule, *adecision, error) {
	if comp == Adaptive {
		return c.adaptiveSchedule(tune.CollAllreduce, 0, size, align)
	}
	s, err := c.fixedSchedule("allreduce", comp, 0, size, align, func() (*sched.Schedule, error) {
		n := c.Size()
		switch comp {
		case KNEMColl:
			ring, err := c.state.distanceRing()
			if err != nil {
				return nil, err
			}
			return core.CompileAllreduce(ring, size, align)
		case Tuned:
			return baseline.CompileAllreduce(baseline.TunedAllreduceDecision(n, size), n, size, align, baseline.SMKnemBTL())
		default:
			return baseline.CompileAllreduce(baseline.TunedAllreduceDecision(n, size), n, size, align, baseline.NemesisSM())
		}
	})
	return s, nil, err
}

// move performs one op's data movement into dst: a receiver-driven single
// copy through the device for kernel-assisted ops (with transient retry), a
// plain copy otherwise. Kernel-assisted reduces pull into a scratch buffer
// first (KNEM moves bytes; the combine is a user-space pass), mirroring how
// a real KNEM reduction works.
func (m *member) move(o *sched.Op, dst []byte) error {
	src := m.plan.bufs[o.Src][o.SrcOff : o.SrcOff+o.Bytes]
	switch {
	case o.Kind == sched.OpReduce && o.Mode == sched.ModeKnem:
		if int64(cap(m.scratch)) < o.Bytes {
			m.scratch = make([]byte, o.Bytes)
		}
		tmp := m.scratch[:o.Bytes]
		if err := m.c.knemPull(m.plan, m.wr, o, tmp); err != nil {
			return err
		}
		m.combine(dst, tmp)
	case o.Kind == sched.OpReduce:
		m.combine(dst, src)
	case o.Mode == sched.ModeKnem:
		return m.c.knemPull(m.plan, m.wr, o, dst)
	default:
		copy(dst, src)
	}
	return nil
}
