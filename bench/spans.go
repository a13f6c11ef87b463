package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run: a round, or one call into a
// layer made on behalf of that round. Spans are kept in memory and written
// out when the benchmark ends, so recording costs two clock reads and an
// append.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a round
	Round  uint64 `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	origin    time.Time
	spans     []span
	lastRound int // index of the latest round span, for dropRound
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(parent int, round uint64, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Round: round, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	return id
}

// round records a round span and one child per cell call; ends[i] is when
// call i returned, and call i started when call i-1 returned.
func (l *spanLog) round(round uint64, t0, t1 time.Time, ends []time.Time, names []string) {
	l.lastRound = len(l.spans)
	id := l.add(0, round, "round", t0, t1)
	start := t0
	for i, end := range ends {
		l.add(id, round, names[i], start, end)
		start = end
	}
}

// dropRound forgets the latest round and its children.
func (l *spanLog) dropRound() { l.spans = l.spans[:l.lastRound] }

// childDurations groups the durations (µs) of child spans by name, and
// returns each round's self time: its duration minus its children's.
func (l *spanLog) childDurations() (byName map[string][]float64, order []string, self []float64) {
	byName = make(map[string][]float64)
	var cur int
	var covered, dur float64
	flush := func() {
		if cur != 0 {
			self = append(self, dur-covered)
		}
	}
	for _, s := range l.spans {
		d := float64(s.End-s.Start) / 1e3
		if s.Parent == 0 {
			flush()
			cur, covered, dur = s.ID, 0, d
			continue
		}
		if _, seen := byName[s.Name]; !seen {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], d)
		covered += d
	}
	flush()
	return byName, order, self
}

// write stores the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
