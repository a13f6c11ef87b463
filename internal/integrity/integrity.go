// Package integrity is the end-to-end data-integrity layer of the
// mini-MPI runtime. The paper's distance-aware trees and rings pipeline
// chunks through many intermediate ranks, so a single corrupted
// intra-node copy propagates to every downstream subtree; this package
// provides the checks that stop it at the hop where it happened.
//
// Two mechanisms compose:
//
//   - Per-hop chunk checksums: every KNEM pull is covered by a
//     CRC32-Castagnoli over (src rank, dst rank, chunk index, payload),
//     computed at the sending side (over the source region bytes, before
//     the data path can corrupt them) and verified by the receiver after
//     the copy. A mismatch triggers a bounded re-pull with backoff —
//     distinct from the transient-error retry budget — and a peer whose
//     chunks keep failing is marked corrupting, which the resilient
//     collectives treat like a rank failure.
//
//   - End-to-end digests: the broadcast root's payload digest is
//     piggybacked down the tree and re-checked by every receiver after
//     the collective completes; each allgather contributor's segment
//     digest travels around the ring the same way. These catch anything
//     the per-hop layer missed (including corruption in a local copy).
//
// The header in the per-hop checksum is what makes a stale or misrouted
// chunk detectable: a payload that is byte-identical but meant for a
// different edge or chunk index fails verification.
package integrity

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"
)

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both x86 and arm64 — the choice a production transport would make).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum computes the per-hop chunk checksum: CRC32-Castagnoli over the
// 12-byte little-endian header (src, dst, chunk) followed by the payload.
// src and dst are world ranks so the value is stable across communicator
// shrinks; chunk is the pipeline chunk / ring step index (-1 when the
// schedule has no chunking).
//
// The header is folded in with the table directly, byte by byte: as a
// slice handed to crc32.Update it escaped, one heap allocation per sum and
// two sums per verified pull.
func Sum(src, dst, chunk int, payload []byte) uint32 {
	s := ^uint32(0)
	for _, word := range [3]uint32{uint32(int32(src)), uint32(int32(dst)), uint32(int32(chunk))} {
		for i := 0; i < 4; i++ {
			s = castagnoli[byte(s)^byte(word)] ^ s>>8
			word >>= 8
		}
	}
	return crc32.Update(^s, castagnoli, payload)
}

// Digest is the end-to-end payload digest (plain CRC32-Castagnoli, no
// header): the broadcast root computes it over the full message, each
// allgather contributor over its block.
func Digest(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// ChecksumError reports a per-hop checksum mismatch that survived the
// full re-pull budget: the data pulled from Src kept failing
// verification, so the transfer could not be completed with integrity.
type ChecksumError struct {
	Src, Dst int    // world ranks of the failing edge
	Chunk    int    // chunk / ring step index (-1 unchunked)
	Attempts int    // pulls performed (1 + re-pulls)
	Want     uint32 // sender-side checksum
	Got      uint32 // checksum of the last delivered data
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("integrity: chunk %d from rank %d to rank %d failed checksum after %d pulls (want %08x, got %08x)",
		e.Chunk, e.Src, e.Dst, e.Attempts, e.Want, e.Got)
}

// Config tunes a Checker. The zero Config selects the defaults.
type Config struct {
	// Repulls is the number of checksum-mismatch re-pulls attempted
	// before the peer is declared corrupting (DefaultRepulls if ≤ 0).
	// This budget is deliberately separate from the transient-error
	// retry budget: a transient failure means "no data arrived", a
	// checksum mismatch means "wrong data arrived", and conflating the
	// two would let a corrupting peer eat the availability budget.
	Repulls int
	// Backoff is the initial delay before a re-pull, doubling per
	// attempt (DefaultBackoff if ≤ 0).
	Backoff time.Duration
}

// Defaults for Config fields left zero.
const (
	DefaultRepulls = 4
	DefaultBackoff = 10 * time.Microsecond
)

// Stats counts what the integrity layer observed.
type Stats struct {
	Mismatches  int64 // per-hop checksum mismatches detected
	Repulls     int64 // re-pulls issued after a mismatch
	Recovered   int64 // pulls that verified clean after ≥ 1 re-pull
	Persistent  int64 // transfers abandoned after the full re-pull budget
	E2EFailures int64 // end-to-end digest mismatches
}

// Checker is the world-wide integrity state: configuration, counters and
// the set of peers declared corrupting. It is safe for concurrent use by
// all rank goroutines.
type Checker struct {
	repulls int
	backoff time.Duration

	mu         sync.Mutex
	stats      Stats
	corrupting map[int]bool
}

// NewChecker builds a checker for the config.
func NewChecker(cfg Config) *Checker {
	if cfg.Repulls <= 0 {
		cfg.Repulls = DefaultRepulls
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	return &Checker{
		repulls:    cfg.Repulls,
		backoff:    cfg.Backoff,
		corrupting: make(map[int]bool),
	}
}

// Repulls returns the checksum-mismatch re-pull budget.
func (c *Checker) Repulls() int { return c.repulls }

// Backoff returns the initial re-pull backoff.
func (c *Checker) Backoff() time.Duration { return c.backoff }

// Stats returns a snapshot of the counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Mismatch records one detected per-hop checksum mismatch.
func (c *Checker) Mismatch() {
	c.mu.Lock()
	c.stats.Mismatches++
	c.mu.Unlock()
}

// Repull records one re-pull issued after a mismatch.
func (c *Checker) Repull() {
	c.mu.Lock()
	c.stats.Repulls++
	c.mu.Unlock()
}

// Recovered records a pull that verified clean after at least one re-pull.
func (c *Checker) Recovered() {
	c.mu.Lock()
	c.stats.Recovered++
	c.mu.Unlock()
}

// E2EFailure records an end-to-end digest mismatch.
func (c *Checker) E2EFailure() {
	c.mu.Lock()
	c.stats.E2EFailures++
	c.mu.Unlock()
}

// MarkCorrupting records that a peer exhausted the re-pull budget and is
// now treated like a failed rank. Idempotent; reports whether the mark is
// new.
func (c *Checker) MarkCorrupting(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Persistent++
	if c.corrupting[rank] {
		return false
	}
	c.corrupting[rank] = true
	return true
}

// Corrupting returns the sorted world ranks declared corrupting.
func (c *Checker) Corrupting() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.corrupting))
	for r := range c.corrupting {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// IsCorrupting reports whether rank has been declared corrupting.
func (c *Checker) IsCorrupting(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupting[rank]
}
