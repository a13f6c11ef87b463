package main

import (
	"sort"
	"syscall"
	"time"
)

// The estimator. Interference on a shared host only ever adds time and
// comes in phases of seconds, so a statistic pooled over a whole run
// inherits whatever phase the run fell into. Instead the timed rounds are
// cut into consecutive blocks of a fixed number of rounds, each time
// metric is computed per block, and the reported value is the lower
// quartile across blocks (upper quartile for a rate): the quiet blocks
// speak, the disturbed ones are outvoted. See README.md for the spreads
// this buys.

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule on a sorted copy.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// lowerQuartile returns the value a quarter of the way up the sorted
// samples: the 3rd smallest of 10, the 2nd smallest of 5.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// upperQuartile mirrors lowerQuartile for metrics where more is better.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-1-(len(s)-1)/4]
}

// block is the samples of blockRounds consecutive rounds.
type block struct {
	lat   []float64 // round latencies, µs; failed rounds are not samples
	cpuUS float64   // process user+sys time spent while the block ran
}

// blockEstimate is the four time metrics of one phase.
type blockEstimate struct {
	p50us, p90us, roundsPerS, cpuUSPerRound float64
	blocks, rounds                          int
}

// estimate applies the block-quartile rule. Blocks that lost every round
// are skipped.
func estimate(blocks []block) blockEstimate {
	var p50, p90, rate, cpu []float64
	e := blockEstimate{}
	for _, b := range blocks {
		if len(b.lat) == 0 {
			continue
		}
		var sum float64
		for _, l := range b.lat {
			sum += l
		}
		p50 = append(p50, median(b.lat))
		p90 = append(p90, percentile(b.lat, 0.9))
		rate = append(rate, float64(len(b.lat))/(sum/1e6))
		cpu = append(cpu, b.cpuUS/float64(len(b.lat)))
		e.blocks++
		e.rounds += len(b.lat)
	}
	e.p50us = lowerQuartile(p50)
	e.p90us = lowerQuartile(p90)
	e.roundsPerS = upperQuartile(rate)
	e.cpuUSPerRound = lowerQuartile(cpu)
	return e
}

// cpuTimeUS is the process's user+system CPU time so far.
func cpuTimeUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phase drives one stretch of rounds on an instance: it decides when to
// stop, cuts the rounds into blocks and keeps the samples. Only the
// controlling goroutine (rank 0 of a live world) touches it.
type phase struct {
	maxRounds   int           // stop after this many rounds (0: no limit)
	duration    time.Duration // stop at the first block boundary past this (0: no limit)
	blockRounds int

	started time.Time
	issued  int
	cpuMark float64
	blocks  []block
	spans   *spanLog // when set, a span per round and per call is recorded
}

// next reports whether another round should run.
func (ph *phase) next() bool {
	if ph.issued == 0 {
		ph.started = time.Now()
	}
	if ph.maxRounds > 0 && ph.issued >= ph.maxRounds {
		return false
	}
	if ph.duration > 0 && ph.issued%ph.blockRounds == 0 && time.Since(ph.started) >= ph.duration {
		return false
	}
	ph.issued++
	return true
}

// beginRound runs after the inter-round barrier: every rank has finished
// verifying the previous round, so this is where a block ends.
func (ph *phase) beginRound() {
	if (ph.issued-1)%ph.blockRounds == 0 {
		ph.closeBlock()
		ph.blocks = append(ph.blocks, block{})
	}
}

// closeBlock charges the CPU time since the last mark to the open block.
func (ph *phase) closeBlock() {
	now := cpuTimeUS()
	if len(ph.blocks) > 0 {
		ph.blocks[len(ph.blocks)-1].cpuUS = now - ph.cpuMark
	}
	ph.cpuMark = now
}

// sample records one completed round; cells are the end times of its
// calls (traced phases only).
func (ph *phase) sample(round uint64, t0, t1 time.Time, cells []time.Time, names []string) {
	b := &ph.blocks[len(ph.blocks)-1]
	b.lat = append(b.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
	if ph.spans != nil {
		ph.spans.round(round, t0, t1, cells, names)
	}
}

// dropLast removes the latest sample: its round failed verification.
func (ph *phase) dropLast() {
	b := &ph.blocks[len(ph.blocks)-1]
	if len(b.lat) > 0 {
		b.lat = b.lat[:len(b.lat)-1]
	}
	if ph.spans != nil {
		ph.spans.dropRound()
	}
}

// rounds returns every latency sample of the phase in order.
func (ph *phase) rounds() []float64 {
	var all []float64
	for _, b := range ph.blocks {
		all = append(all, b.lat...)
	}
	return all
}
