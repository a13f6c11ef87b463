package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestReduceAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		for _, bind := range []string{"contiguous", "crosssocket"} {
			w := igWorld(t, bind, 48)
			const root, size = 11, 8192
			want := make([]byte, size)
			for r := 0; r < 48; r++ {
				p := pattern(r, size)
				for i := range want {
					want[i] += p[i]
				}
			}
			sum := ReduceOp{Name: "sum_u8", Combine: func(dst, src []byte) {
				for i := range dst {
					dst[i] += src[i]
				}
			}}
			err := w.Run(func(p *Proc) error {
				var recv []byte
				if p.Rank() == root {
					recv = make([]byte, size)
				}
				if err := p.Comm().Reduce(pattern(p.Rank(), size), recv, root, sum, comp); err != nil {
					return err
				}
				if p.Rank() == root && !bytes.Equal(recv, want) {
					return fmt.Errorf("wrong reduction at root")
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", comp, bind, err)
			}
		}
	}
}

func TestAllreduceAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		for _, n := range []int{16, 48} { // pow2 exercises recursive doubling
			w := igWorld(t, "random", n)
			const size = 48 * 512
			want := make([]byte, size)
			for r := 0; r < n; r++ {
				p := pattern(r, size)
				for i := range want {
					if p[i] > want[i] {
						want[i] = p[i]
					}
				}
			}
			err := w.Run(func(p *Proc) error {
				recv := make([]byte, size)
				if err := p.Comm().Allreduce(pattern(p.Rank(), size), recv, OpMaxUint8, comp); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("rank %d wrong allreduce result", p.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v n=%d: %v", comp, n, err)
			}
		}
	}
}

func TestAllreduceFloat64Sum(t *testing.T) {
	w := igWorld(t, "crosssocket", 24)
	const elems = 1000
	err := w.Run(func(p *Proc) error {
		send := make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], math.Float64bits(float64(p.Rank())+float64(i)/1000))
		}
		recv := make([]byte, elems*8)
		if err := p.Comm().Allreduce(send, recv, OpSumFloat64, KNEMColl); err != nil {
			return err
		}
		// Sum over ranks 0..23 of (r + i/1000) = 276 + 24·i/1000.
		for i := 0; i < elems; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(recv[i*8:]))
			want := 276 + 24*float64(i)/1000
			if math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("rank %d elem %d: %v != %v", p.Rank(), i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceInt64AndBXOR(t *testing.T) {
	w := igWorld(t, "contiguous", 8)
	err := w.Run(func(p *Proc) error {
		send := make([]byte, 16)
		binary.LittleEndian.PutUint64(send, uint64(int64(p.Rank()+1)))
		binary.LittleEndian.PutUint64(send[8:], uint64(int64(-p.Rank())))
		recv := make([]byte, 16)
		if err := p.Comm().Allreduce(send, recv, OpSumInt64, Tuned); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != 36 {
			return fmt.Errorf("sum = %d, want 36", got)
		}
		if got := int64(binary.LittleEndian.Uint64(recv[8:])); got != -28 {
			return fmt.Errorf("negative sum = %d, want -28", got)
		}
		// BXOR of identical values over an even count is zero.
		x := []byte{0xAA, 0x55}
		xr := make([]byte, 2)
		if err := p.Comm().Allreduce(x, xr, OpBXOR, KNEMColl); err != nil {
			return err
		}
		if xr[0] != 0 || xr[1] != 0 {
			return fmt.Errorf("bxor = %v, want zeros", xr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		// Root's recv must match send size.
		var recv []byte
		if p.Rank() == 0 {
			recv = make([]byte, 3)
		}
		if err := p.Comm().Reduce(make([]byte, 64), recv, 0, OpBXOR, KNEMColl); err == nil {
			return fmt.Errorf("undersized root recv accepted")
		}
		// Buffers hold whole elements, for Reduce as for Allreduce.
		if err := p.Comm().Reduce(make([]byte, 12), make([]byte, 12), 0, OpSumInt64, KNEMColl); err == nil {
			return fmt.Errorf("reduce: 12-byte buffer accepted for an 8-byte operator")
		}
		if err := p.Comm().Allreduce(make([]byte, 12), make([]byte, 12), OpSumInt64, KNEMColl); err == nil {
			return fmt.Errorf("allreduce: 12-byte buffer accepted for an 8-byte operator")
		}
		// The root is checked before the zero-size shortcut, on every
		// rooted collective.
		if err := p.Comm().Bcast(nil, -3, KNEMColl); err == nil {
			return fmt.Errorf("zero-byte bcast accepted root -3")
		}
		if err := p.Comm().Gather(nil, nil, 4, Tuned); err == nil {
			return fmt.Errorf("zero-byte gather accepted root 4 of 4")
		}
		// Mismatched operator names across ranks.
		op := OpBXOR
		if p.Rank() == 2 {
			op = OpMaxUint8
		}
		r2 := make([]byte, 64)
		if err := p.Comm().Allreduce(make([]byte, 64), r2, op, KNEMColl); err == nil {
			return fmt.Errorf("mismatched operator accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOnSubcommunicator(t *testing.T) {
	w := igWorld(t, "crosssocket", 48)
	err := w.Run(func(p *Proc) error {
		sub, err := p.Comm().Split(p.Rank()%3, p.Rank())
		if err != nil {
			return err
		}
		send := []byte{byte(p.Rank())}
		recv := make([]byte, 1)
		if err := sub.Allreduce(send, recv, OpMaxUint8, KNEMColl); err != nil {
			return err
		}
		// Max world rank in residue class (rank mod 3): 45, 46 or 47.
		want := byte(45 + p.Rank()%3)
		if recv[0] != want {
			return fmt.Errorf("rank %d: max = %d, want %d", p.Rank(), recv[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteReduce(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		if err := p.Comm().Reduce(nil, nil, 0, OpBXOR, KNEMColl); err != nil {
			return err
		}
		return p.Comm().Allreduce(nil, nil, OpBXOR, Tuned)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		for _, root := range []int{0, 13} {
			w := igWorld(t, "crosssocket", 48)
			const block = 777
			err := w.Run(func(p *Proc) error {
				comm := p.Comm()
				var recv []byte
				if p.Rank() == root {
					recv = make([]byte, 48*block)
				}
				if err := comm.Gather(pattern(p.Rank(), block), recv, root, comp); err != nil {
					return err
				}
				if p.Rank() == root {
					for r := 0; r < 48; r++ {
						if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
							return fmt.Errorf("gather: wrong block from rank %d", r)
						}
					}
				}
				// Scatter the gathered data back out and verify.
				out := make([]byte, block)
				if err := comm.Scatter(recv, out, root, comp); err != nil {
					return err
				}
				if !bytes.Equal(out, pattern(p.Rank(), block)) {
					return fmt.Errorf("scatter: rank %d got wrong block", p.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v root=%d: %v", comp, root, err)
			}
		}
	}
}

func TestGatherValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		var recv []byte
		if p.Rank() == 0 {
			recv = make([]byte, 7) // wrong size
		}
		if err := p.Comm().Gather(make([]byte, 64), recv, 0, KNEMColl); err == nil {
			return fmt.Errorf("undersized gather root buffer accepted")
		}
		if err := p.Comm().Gather(nil, nil, 0, Tuned); err != nil {
			return fmt.Errorf("zero-byte gather failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		for _, tc := range []struct {
			n     int
			block int
		}{{24, 512}, {24, 32 << 10}} { // small → hierarchical, large → direct
			w := igWorld(t, "crosssocket", tc.n)
			err := w.Run(func(p *Proc) error {
				n, block := tc.n, tc.block
				send := make([]byte, n*block)
				for q := 0; q < n; q++ {
					copy(send[q*block:], pattern(p.Rank()*100+q, block))
				}
				recv := make([]byte, n*block)
				if err := p.Comm().Alltoall(send, recv, comp); err != nil {
					return err
				}
				for a := 0; a < n; a++ {
					if !bytes.Equal(recv[a*block:(a+1)*block], pattern(a*100+p.Rank(), block)) {
						return fmt.Errorf("rank %d: wrong block from %d", p.Rank(), a)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v n=%d block=%d: %v", comp, tc.n, tc.block, err)
			}
		}
	}
}

func TestAlltoallValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		if err := p.Comm().Alltoall(make([]byte, 10), make([]byte, 10), KNEMColl); err == nil {
			return fmt.Errorf("non-multiple buffer accepted")
		}
		return p.Comm().Alltoall(nil, nil, Tuned)
	})
	if err != nil {
		t.Fatal(err)
	}
}
