package mpi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAgreeContextCancelMidClosure: two members block in an agreement
// that cannot close (the third never arrives); canceling their context
// must return a HangError promptly without wedging the slot — the
// abandoned arrivals stay deposited, so the third member's eventual
// arrival closes the round, and a retry by everyone converges on the
// next slot.
func TestAgreeContextCancelMidClosure(t *testing.T) {
	const n = 3
	w := partWorld(t, n, WithOpDeadline(10*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	go func() {
		waitBlockedIn(t, w, "agreement")
		cancel()
		close(canceled)
	}()
	var (
		mu       sync.Mutex
		results  [][]int
		returned sync.WaitGroup // the two canceled calls are over
	)
	returned.Add(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			// Not before both canceled calls returned: arriving while one is
			// still between its arrival and its first wait would close the
			// round under it, and it would adopt the result.
			<-canceled
			returned.Wait()
		} else {
			_, aerr := p.Comm().AgreeContext(ctx)
			returned.Done()
			var he *HangError
			if !errors.As(aerr, &he) {
				t.Errorf("rank %d canceled AgreeContext = %v, want HangError", p.Rank(), aerr)
				return nil
			}
			if !strings.Contains(he.Op, "context") {
				t.Errorf("rank %d hang op %q does not name the context", p.Rank(), he.Op)
			}
		}
		// The canceled call already consumed slot 0 on ranks 0 and 1, so
		// their retry lands on slot 1. Rank 2 runs two rounds: its first
		// closes slot 0 over the abandoned arrivals, its second aligns
		// with the retriers on slot 1 (the same-order rule). Every close
		// must decide the same (empty) failed set.
		rounds := 1
		if p.Rank() == 2 {
			rounds = 2
		}
		for i := 0; i < rounds; i++ {
			agreed, aerr := p.Comm().Agree()
			if aerr != nil {
				return aerr
			}
			mu.Lock()
			results = append(results, agreed)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d agreement results, want 4", len(results))
	}
	for _, r := range results {
		if len(r) != 0 {
			t.Errorf("agreement decided %v, want empty failed set", r)
		}
	}
}

// TestAgreeContextConcurrentShrinkFreeStress: failures land one at a
// time from a racing goroutine while every member loops Shrink (which
// runs an agreement per round) and Frees each superseded communicator
// concurrently with its neighbors' next round. Every surviving member
// must converge, through however many rounds the race produces, to the
// identical final membership — and victims must exit cleanly when the
// agreed verdict excludes them. Run under -race.
func TestAgreeContextConcurrentShrinkFreeStress(t *testing.T) {
	const n = 6
	w := partWorld(t, n, WithOpDeadline(10*time.Second))
	go func() {
		for _, victim := range []int{5, 4, 3} {
			time.Sleep(15 * time.Millisecond)
			w.MarkFailed(victim)
		}
	}()
	want := []int{0, 1, 2}
	var (
		mu     sync.Mutex
		finals = map[int][]int{}
	)
	err := w.Run(func(p *Proc) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cur := p.Comm()
		for i := 0; i < 200; i++ {
			group := append([]int(nil), cur.state.group...)
			if !containsRankStress(group, p.Rank()) {
				return nil // agreed away in an earlier round
			}
			if len(group) == len(want) {
				mu.Lock()
				finals[p.Rank()] = group
				mu.Unlock()
				return nil
			}
			nc, err := cur.ShrinkContext(ctx)
			if err != nil {
				if errors.Is(err, ErrNothingToShrink) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if p.Rank() >= 3 {
					return nil // a victim's shrink legitimately refuses
				}
				return err
			}
			old := cur
			cur = nc
			go old.Free() // racing the next round's rebuild on every member
		}
		return fmt.Errorf("rank %d never converged", p.Rank())
	})
	if err != nil {
		t.Fatalf("stress run failed: %v", err)
	}
	if len(finals) != len(want) {
		t.Fatalf("%d survivors converged (%v), want %d", len(finals), finals, len(want))
	}
	for r, g := range finals {
		if len(g) != len(want) {
			t.Errorf("rank %d final group %v, want %v", r, g, want)
			continue
		}
		for i := range want {
			if g[i] != want[i] {
				t.Errorf("rank %d final group %v, want %v", r, g, want)
				break
			}
		}
	}
}

func containsRankStress(group []int, r int) bool {
	for _, g := range group {
		if g == r {
			return true
		}
	}
	return false
}
