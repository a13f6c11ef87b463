package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// The oracle is independent of the runtime: every rank's input is a
// position-addressable splitmix64 stream keyed by (seed, cell, world
// rank), and the expected output of a collective is recomputed from those
// streams and the communicator's membership alone.
//
// To catch a stale buffer (an op that silently moved nothing leaves last
// round's bytes, which would compare equal), every stampStride-th word of
// every input carries the round number on top of its payload word. The
// checker verifies and removes the stamps, then compares the rest with
// bytes.Equal against the round-independent expected buffer.

const golden = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamKey names the input stream of one rank in one cell.
func streamKey(seed uint64, cell, worldRank int) uint64 {
	return mix64(seed*golden ^ uint64(cell+1)<<32 ^ uint64(worldRank+1))
}

// payloadWord is the i-th 8-byte word of a stream.
func payloadWord(key uint64, i int) uint64 { return mix64(key + uint64(i+1)*golden) }

// fillPayload writes the stream's first len(buf)/8 words.
func fillPayload(buf []byte, key uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], payloadWord(key, i/8))
	}
}

// stampStride is the stamp spacing for a cell whose smallest block is
// block bytes: every block boundary is then a stamp position, so stamps in
// inputs map onto stamps in outputs for every collective.
func stampStride(block int) int {
	if block < 256 {
		return block
	}
	return 256
}

// stamp marks an input buffer for a round: the word at every stride-th
// offset becomes payload word + round.
func stamp(buf []byte, key uint64, stride int, round uint64) {
	for p := 0; p+8 <= len(buf); p += stride {
		binary.LittleEndian.PutUint64(buf[p:], payloadWord(key, p/8)+round)
	}
}

// checkOutput verifies out against want (the round-0 expected bytes): the
// stamp words must read want + k·round (k = 1 for data movement, the
// communicator size for a sum), everything else must be equal. It removes
// the stamps from out as it goes.
func checkOutput(out, want []byte, stride int, k, round uint64) error {
	if len(out) != len(want) {
		return fmt.Errorf("output is %d bytes, want %d", len(out), len(want))
	}
	for p := 0; p+8 <= len(out); p += stride {
		base := binary.LittleEndian.Uint64(want[p:])
		if got := binary.LittleEndian.Uint64(out[p:]); got != base+k*round {
			return fmt.Errorf("stamp at byte %d reads %#x, want %#x (round %d)", p, got, base+k*round, round)
		}
		binary.LittleEndian.PutUint64(out[p:], base)
	}
	if !bytes.Equal(out, want) {
		for i := range out {
			if out[i] != want[i] {
				return fmt.Errorf("byte %d reads %#x, want %#x", i, out[i], want[i])
			}
		}
	}
	return nil
}

// expected returns the round-0 output of cell c for communicator rank me,
// where group lists the members' world ranks in communicator order, and
// the stamp multiplier k. A nil result means the rank holds no output.
func expected(c cellSpec, seed uint64, cell int, group []int, me int) (want []byte, k uint64) {
	n := len(group)
	in := func(r, words, from int) []byte { // words of rank r's input starting at byte from
		b := make([]byte, words*8)
		key := streamKey(seed, cell, group[r])
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(b[i*8:], payloadWord(key, from/8+i))
		}
		return b
	}
	B := c.Bytes
	switch c.Kind {
	case kindBcast, kindBcastResilient:
		return in(c.Root, B/8, 0), 1
	case kindAllgather, kindAllgatherResilient, kindGather:
		if c.Kind == kindGather && me != c.Root {
			return nil, 1
		}
		want = make([]byte, 0, n*B)
		for r := 0; r < n; r++ {
			want = append(want, in(r, B/8, 0)...)
		}
		return want, 1
	case kindScatter:
		return in(c.Root, B/8, me*B), 1
	case kindAlltoall:
		want = make([]byte, 0, n*B)
		for r := 0; r < n; r++ {
			want = append(want, in(r, B/8, me*B)...)
		}
		return want, 1
	case kindReduce, kindAllreduce:
		if c.Kind == kindReduce && me != c.Root {
			return nil, uint64(n)
		}
		want = make([]byte, B)
		for r := 0; r < n; r++ {
			key := streamKey(seed, cell, group[r])
			for i := 0; i < B/8; i++ {
				s := binary.LittleEndian.Uint64(want[i*8:]) + payloadWord(key, i)
				binary.LittleEndian.PutUint64(want[i*8:], s)
			}
		}
		return want, uint64(n)
	}
	return nil, 1
}
