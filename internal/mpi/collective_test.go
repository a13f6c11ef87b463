package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// oracles holds, per descriptor name, the serial definition of the
// collective: whether it reduces, and what rank r's recv buffer must hold
// afterwards given every rank's input (nil: r's recv is not an output). in[r]
// is rank r's send buffer — for bcast, the root's payload. A descriptor
// without an entry fails the conformance test, so a new table entry cannot
// ship without its oracle.
var oracles = map[string]struct {
	reduces bool
	want    func(in [][]byte, root, unit, r int) []byte
}{
	"bcast":     {want: func(in [][]byte, root, _, _ int) []byte { return in[root] }},
	"allgather": {want: func(in [][]byte, _, _, _ int) []byte { return bytes.Join(in, nil) }},
	"reduce": {reduces: true, want: func(in [][]byte, root, _, r int) []byte {
		if r != root {
			return nil
		}
		return serialSum(in)
	}},
	"allreduce": {reduces: true, want: func(in [][]byte, _, _, _ int) []byte { return serialSum(in) }},
	"gather": {want: func(in [][]byte, root, _, r int) []byte {
		if r != root {
			return nil
		}
		return bytes.Join(in, nil)
	}},
	"scatter": {want: func(in [][]byte, root, unit, r int) []byte { return in[root][r*unit : (r+1)*unit] }},
	"alltoall": {want: func(in [][]byte, _, unit, r int) []byte {
		var out []byte
		for a := range in {
			out = append(out, in[a][r*unit:(r+1)*unit]...)
		}
		return out
	}},
}

// serialSum folds the inputs with OpSumInt64 in rank order.
func serialSum(in [][]byte) []byte {
	out := append([]byte(nil), in[0]...)
	for _, b := range in[1:] {
		OpSumInt64.Combine(out, b)
	}
	return out
}

// conformanceArgs sizes rank r's buffers from the descriptor's roles and
// fills the input side with a rank-keyed pattern.
func conformanceArgs(d *collective, comp Component, n, root, unit, r int) collArgs {
	a := collArgs{d: d, comp: comp}
	if d.rooted {
		a.root = root
	}
	if oracles[d.name].reduces {
		a.op = OpSumInt64
	}
	for _, role := range d.roles {
		if role.atRoot && r != a.root {
			continue
		}
		size := unit
		if role.perRank {
			size *= n
		}
		buf := make([]byte, size)
		if role.recv {
			a.recv = buf
		} else {
			a.send = buf
		}
		// The input side: send — and the root's payload of a collective
		// whose only buffer is recv.
		if !role.recv || (len(d.roles) == 1 && r == a.root) {
			copy(buf, pattern(r, size))
		}
	}
	return a
}

// TestCollectiveConformance walks the descriptor table × every component
// that can run the entry × communicator sizes × message sizes and checks
// every rank's output against the serial definition of the collective.
func TestCollectiveConformance(t *testing.T) {
	const elem = 8
	for i := range collectives {
		d := &collectives[i]
		oracle, ok := oracles[d.name]
		if !ok {
			t.Fatalf("descriptor %q has no oracle", d.name)
		}
		comps := []Component{KNEMColl, Tuned, MPICH2}
		if d.decided {
			comps = append(comps, Adaptive)
		}
		for _, comp := range comps {
			for _, n := range []int{1, 2, 5, 16} {
				for _, unit := range []int{0, elem, 3 * 4099 * elem} {
					root := n / 2
					if !d.rooted {
						root = 0
					}
					args := make([]collArgs, n)
					in := make([][]byte, n)
					for r := range args {
						args[r] = conformanceArgs(d, comp, n, root, unit, r)
						in[r] = append([]byte(nil), args[r].send...)
						if len(d.roles) == 1 {
							in[r] = append([]byte(nil), args[r].recv...)
						}
					}
					w := igWorld(t, "crosssocket", n)
					err := w.Run(func(p *Proc) error {
						r := p.Rank()
						if err := p.Comm().run(context.Background(), args[r]); err != nil {
							return err
						}
						if want := oracle.want(in, root, unit, r); want != nil && !bytes.Equal(args[r].recv, want) {
							return fmt.Errorf("rank %d: wrong output", r)
						}
						return nil
					})
					if err != nil {
						t.Errorf("%s/%v n=%d unit=%d: %v", d.name, comp, n, unit, err)
					}
				}
			}
		}
	}
}

// callOf spells a collArgs as the exported generic entry takes it.
func callOf(a collArgs) Call {
	return Call{Coll: a.d.name, Send: a.send, Recv: a.recv, Root: a.root, Op: a.op, Comp: a.comp}
}

// TestCollectiveUniformArgumentError: a bad argument on ONE rank — the
// last rank's first buffer is an element too long, or (rooted entries) its
// root is out of range — is every member's error, with the same text, for
// every descriptor and through every entry: the plain call path, the
// generic resilient entry and the four resilient wrappers. The world has no
// op deadline, so an entry that rejects the argument locally, before the
// rendezvous, leaves the other four ranks blocked for good; the test bounds
// that itself.
func TestCollectiveUniformArgumentError(t *testing.T) {
	const n, unit = 5, 64
	type entry struct {
		name string
		call func(c *Comm, a collArgs) error // nil result: the entry does not serve a.d
	}
	entries := []entry{
		{"plain", func(c *Comm, a collArgs) error { return c.run(context.Background(), a) }},
		{"Resilient", func(c *Comm, a collArgs) error {
			_, _, err := c.Resilient(context.Background(), callOf(a))
			return err
		}},
		{"wrapper", func(c *Comm, a collArgs) error {
			switch a.d {
			case &collectives[opBcast]:
				_, err := c.BcastResilient(a.recv, a.root, a.comp)
				return err
			case &collectives[opAllgather]:
				_, _, err := c.AllgatherResilient(a.send, a.recv, a.comp)
				return err
			}
			return nil
		}},
	}
	for i := range collectives {
		d := &collectives[i]
		for _, e := range entries {
			for _, bad := range []string{"long buffer", "root out of range"} {
				if (bad == "root out of range" && !d.rooted) || (e.name == "wrapper" && d.ledger == "") {
					continue
				}
				w := igWorld(t, "contiguous", n)
				errs := make([]error, n)
				done := make(chan struct{})
				go func() {
					defer close(done)
					_ = w.Run(func(p *Proc) error {
						r := p.Rank()
						a := conformanceArgs(d, KNEMColl, n, 1, unit, r)
						switch {
						case r != n-1:
						case bad == "root out of range":
							a.root = n
						case d.roles[0].recv:
							a.recv = make([]byte, len(a.recv)+8)
						default:
							a.send = make([]byte, len(a.send)+8)
						}
						errs[r] = e.call(p.Comm(), a)
						return nil
					})
				}()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatalf("%s via %s, %s on one rank: the other ranks never returned", d.name, e.name, bad)
				}
				for r, err := range errs {
					if err == nil || err.Error() != errs[0].Error() {
						t.Errorf("%s via %s, %s: rank %d got %v, rank 0 got %v", d.name, e.name, bad, r, err, errs[0])
					}
				}
			}
		}
	}
}

// TestReduceChunksHoldWholeElements: a pipelined tree reduce whose default
// chunk (size/16) is not a multiple of the operator's element size must not
// split elements across chunks — 262,208 B on IG-48 cross-socket gives
// 16,388-byte chunks, and combining from a 4-byte-misaligned offset
// returned 8 wrong int64s of 32,776.
func TestReduceChunksHoldWholeElements(t *testing.T) {
	const n, root, size = 48, 0, 262208
	in := make([][]byte, n)
	for r := range in {
		in[r] = make([]byte, size)
		for i := 0; i < size; i += 8 {
			binary.LittleEndian.PutUint64(in[r][i:], uint64(r*1000003+i))
		}
	}
	want := serialSum(in)
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2, Adaptive} {
		w := igWorld(t, "crosssocket", n)
		err := w.Run(func(p *Proc) error {
			var recv []byte
			if p.Rank() == root {
				recv = make([]byte, size)
			}
			if err := p.Comm().Reduce(in[p.Rank()], recv, root, OpSumInt64, comp); err != nil {
				return err
			}
			if p.Rank() != root {
				return nil
			}
			wrong := 0
			for i := 0; i < size; i += 8 {
				if !bytes.Equal(recv[i:i+8], want[i:i+8]) {
					wrong++
				}
			}
			if wrong > 0 {
				return fmt.Errorf("%d of %d int64 sums wrong", wrong, size/8)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", comp, err)
		}
	}
}
