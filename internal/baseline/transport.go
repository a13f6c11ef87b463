package baseline

import (
	"fmt"

	"distcoll/internal/sched"
)

// TransportConfig describes the point-to-point byte-transfer layer the
// baseline collectives run over.
type TransportConfig struct {
	// EagerLimit: messages strictly smaller go through the shared-memory
	// double copy (copy-in/copy-out); larger ones use the KNEM
	// kernel-assisted single copy. Open MPI's SM/KNEM BTL uses 4 KB (§V-A);
	// MPICH2 nemesis without KNEM double-copies everything (set a huge
	// limit).
	EagerLimit int64
	// FragmentBytes pipelines the two legs of a shared-memory double copy
	// through the bounce buffer in fragments (nemesis copies through a
	// ring of cells). ≤ 0 disables fragmentation.
	FragmentBytes int64
}

// SMKnemBTL is Open MPI's SM/KNEM byte-transfer layer configuration used
// under the tuned collective in §V-A.
func SMKnemBTL() TransportConfig {
	return TransportConfig{EagerLimit: 4 << 10, FragmentBytes: 32 << 10}
}

// NemesisSM is MPICH2-1.4's shared-memory channel: double copy at every
// size (the Fig. 2 configuration).
func NemesisSM() TransportConfig {
	return TransportConfig{EagerLimit: 1 << 62, FragmentBytes: 32 << 10}
}

// Transport emits sender-driven point-to-point transfers into a schedule.
// Each rank keeps two serialization chains — one for its send-side work
// (copy-ins, cookie posts) and one for its receive-side work (copy-outs,
// pulls) — so a sendrecv exchange overlaps its two halves the way an MPI
// progress engine does, while successive sends (or receives) on one rank
// stay ordered. Contention between the two halves is modeled by the
// rank's shared copy-engine resource in the simulator, not by false
// dependencies.
type Transport struct {
	Config TransportConfig

	s        *sched.Schedule
	lastSend []sched.OpID // per rank; -1 = none
	lastRecv []sched.OpID
	deps     []sched.OpID // emit's scratch
	bounce   int
}

// NewTransport wraps a schedule for point-to-point emission.
func NewTransport(s *sched.Schedule, cfg TransportConfig) *Transport {
	mk := func() []sched.OpID {
		l := make([]sched.OpID, s.NumRanks)
		for i := range l {
			l[i] = -1
		}
		return l
	}
	return &Transport{Config: cfg, s: s, lastSend: mk(), lastRecv: mk()}
}

// emit appends op after deps and after the rank's previous op on the given
// chain (t.lastSend or t.lastRecv), which it then heads.
func (t *Transport) emit(op sched.Op, deps, chain []sched.OpID) sched.OpID {
	t.deps = append(t.deps[:0], deps...)
	if last := chain[op.Rank]; last >= 0 {
		t.deps = append(t.deps, last)
	}
	op.Deps = t.deps // AddOp copies
	id := t.s.AddOp(op)
	chain[op.Rank] = id
	return id
}

// Send transfers bytes from (src, srcOff), owned by sender, into
// (dst, dstOff), owned by receiver. deps gate the send (typically the op
// under which the sender obtained the data). It returns the op that
// completes the transfer at the receiver.
func (t *Transport) Send(sender, receiver int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) (sched.OpID, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("baseline: send of %d bytes", bytes)
	}
	if sender == receiver {
		return t.emit(sched.Op{
			Rank: sender, Mode: sched.ModeLocal,
			Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
		}, deps, t.lastRecv), nil
	}
	if bytes < t.Config.EagerLimit {
		return t.sendShm(sender, receiver, src, srcOff, dst, dstOff, bytes, deps), nil
	}
	return t.sendKnem(sender, receiver, src, srcOff, dst, dstOff, bytes, deps), nil
}

// sendShm is the copy-in/copy-out path: the sender copies into a bounce
// buffer (a shared segment first-touched on the sender's node), the
// receiver copies out — two memory traversals, fragment-pipelined.
func (t *Transport) sendShm(sender, receiver int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) sched.OpID {
	t.bounce++
	bb := t.s.AddBuffer(sender, fmt.Sprintf("bounce%d", t.bounce), bytes)
	frags := sched.Chunks(bytes, t.Config.FragmentBytes)
	var lastOut sched.OpID
	for _, fr := range frags {
		in := t.emit(sched.Op{
			Rank: sender, Mode: sched.ModeShm,
			Src: src, SrcOff: srcOff + fr[0], Dst: bb, DstOff: fr[0], Bytes: fr[1],
		}, deps, t.lastSend)
		lastOut = t.emit(sched.Op{
			Rank: receiver, Mode: sched.ModeShm,
			Src: bb, SrcOff: fr[0], Dst: dst, DstOff: dstOff + fr[0], Bytes: fr[1],
		}, []sched.OpID{in}, t.lastRecv)
	}
	return lastOut
}

// sendKnem is the rendezvous single-copy path: the sender declares the
// region (cookie creation, a kernel crossing with no data movement) and
// the receiver performs one kernel-assisted copy. The cookie post is NOT
// chained into the sender's copy-engine order: MPI posts sends eagerly, so
// a rank's outgoing RTS never waits for its own unrelated receives — only
// for the data dependencies the caller passes (a sendrecv ring step must
// pipeline around the ring, not serialize along it).
func (t *Transport) sendKnem(sender, receiver int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) sched.OpID {
	rts := t.emit(sched.Op{
		Rank: sender, Mode: sched.ModeKnem,
		Src: src, SrcOff: srcOff, Dst: src, DstOff: srcOff, Bytes: 0,
	}, deps, t.lastSend)
	return t.emit(sched.Op{
		Rank: receiver, Mode: sched.ModeKnem,
		Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
	}, []sched.OpID{rts}, t.lastRecv)
}

// LocalCopy emits a local memcpy on rank (receive-side chain: it fills the
// rank's receive buffer).
func (t *Transport) LocalCopy(rank int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) sched.OpID {
	return t.emit(sched.Op{
		Rank: rank, Mode: sched.ModeLocal,
		Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
	}, deps, t.lastRecv)
}
