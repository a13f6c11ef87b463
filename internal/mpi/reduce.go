package mpi

import (
	"encoding/binary"
	"math"

	"distcoll/internal/sched"
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
		m.a.op.Combine(dst, tmp)
	case o.Kind == sched.OpReduce:
		m.a.op.Combine(dst, src)
	case o.Mode == sched.ModeKnem:
		return m.c.knemPull(m.plan, m.wr, o, dst)
	default:
		copy(dst, src)
	}
	return nil
}
