package fault

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"distcoll/internal/knem"
)

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(Plan{})
	dev := in.Wrap(knem.NewDevice())
	buf := []byte("payload-bytes")
	c := dev.Declare(0, buf)
	out := make([]byte, len(buf))
	for i := 0; i < 500; i++ {
		if err := dev.CopyFrom(1, c, 0, out); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if err := in.BeforeOp(1); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if drop, _, err := in.OnSend(0, 1); drop || err != nil {
			t.Fatalf("send %d: drop=%v err=%v", i, drop, err)
		}
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("data corrupted with empty plan")
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", s)
	}
}

func TestDeterministicAcrossInjectors(t *testing.T) {
	// Two injectors with the same plan must make identical decisions for
	// the same (rank, op) coordinates, regardless of query interleaving.
	plan := Plan{Seed: 42, CopyFailProb: 0.3, CorruptProb: 0.2, DropProb: 0.25}
	decisions := func(in *Injector) []bool {
		var out []bool
		for rank := 0; rank < 4; rank++ {
			for op := 0; op < 64; op++ {
				_, err := in.onCopy(rank)
				out = append(out, err != nil)
			}
		}
		for src := 0; src < 4; src++ {
			for i := 0; i < 32; i++ {
				drop, _, _ := in.OnSend(src, (src+1)%4)
				out = append(out, drop)
			}
		}
		return out
	}
	a := decisions(NewInjector(plan))
	b := decisions(NewInjector(plan))
	if len(a) != len(b) {
		t.Fatal("decision streams differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between equal-seed injectors", i)
		}
	}
	// A different seed should not reproduce the same stream.
	plan.Seed = 43
	c := decisions(NewInjector(plan))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed has no effect on decisions")
	}
}

func TestTransientFailuresAndCap(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, CopyFailProb: 1, MaxTransients: 3})
	dev := in.Wrap(knem.NewDevice())
	c := dev.Declare(0, make([]byte, 8))
	fails := 0
	for i := 0; i < 10; i++ {
		err := dev.CopyFrom(0, c, 0, make([]byte, 8))
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("injected %d transients, want cap of 3", fails)
	}
	if s := in.Stats(); s.Transients != 3 {
		t.Fatalf("stats.Transients = %d", s.Transients)
	}
}

func TestCrashIsSticky(t *testing.T) {
	in := NewInjector(Plan{CrashAtOp: map[int]int{2: 3}})
	for op := 0; op < 3; op++ {
		if err := in.BeforeOp(2); err != nil {
			t.Fatalf("op %d: premature crash: %v", op, err)
		}
	}
	err := in.BeforeOp(2)
	if !IsCrashed(err) {
		t.Fatalf("op 3: want crash, got %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 2 {
		t.Fatalf("crash error = %#v", err)
	}
	// Dead forever: later ops, copies and sends all fail.
	if err := in.BeforeOp(2); !IsCrashed(err) {
		t.Fatal("crash not sticky for ops")
	}
	if _, err := in.onCopy(2); !IsCrashed(err) {
		t.Fatal("crash not sticky for copies")
	}
	if _, _, err := in.OnSend(2, 0); !IsCrashed(err) {
		t.Fatal("crash not sticky for sends")
	}
	// Other ranks are unaffected.
	if err := in.BeforeOp(1); err != nil {
		t.Fatalf("healthy rank affected: %v", err)
	}
	if got := in.Stats().Crashes; got != 1 {
		t.Fatalf("stats.Crashes = %d", got)
	}
	if !in.Crashed(2) || in.Crashed(1) {
		t.Fatal("Crashed() inconsistent")
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, CorruptProb: 1})
	dev := in.Wrap(knem.NewDevice())
	src := bytes.Repeat([]byte{0x11}, 64)
	c := dev.Declare(0, src)
	out := make([]byte, 64)
	if err := dev.CopyFrom(1, c, 0, out); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range out {
		if out[i] != src[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want 1", diff)
	}
	// CopyTo corruption must not mutate the caller's source buffer.
	region := make([]byte, 64)
	c2 := dev.Declare(0, region)
	payload := bytes.Repeat([]byte{0x22}, 64)
	keep := append([]byte(nil), payload...)
	if err := dev.CopyTo(1, c2, 0, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, keep) {
		t.Fatal("CopyTo corrupted the caller's buffer")
	}
	diff = 0
	for i := range region {
		if region[i] != keep[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("region corruption flipped %d bytes, want 1", diff)
	}
}

func TestDropRateRoughlyMatchesProbability(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, DropProb: 0.25})
	const msgs = 4000
	drops := 0
	for i := 0; i < msgs; i++ {
		if drop, _, _ := in.OnSend(0, 1); drop {
			drops++
		}
	}
	rate := float64(drops) / msgs
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("drop rate = %.3f, want ≈0.25", rate)
	}
}

func TestConcurrentInjectorUse(t *testing.T) {
	// The injector is shared by all rank goroutines; hammer it from many
	// to prove race-cleanliness.
	in := NewInjector(Plan{Seed: 3, CopyFailProb: 0.1, CorruptProb: 0.1, DropProb: 0.1,
		CrashAtOp: map[int]int{5: 100}})
	dev := in.Wrap(knem.NewDevice())
	c := dev.Declare(0, make([]byte, 128))
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]byte, 128)
			for i := 0; i < 200; i++ {
				_ = dev.CopyFrom(r, c, 0, out)
				_ = in.BeforeOp(r)
				_, _, _ = in.OnSend(r, (r+1)%8)
			}
		}(r)
	}
	wg.Wait()
	if !in.Crashed(5) {
		t.Fatal("rank 5 should have crashed after 100 ops")
	}
}

// TestClassifiersFreeOnNil: the runtime classifies the error of every
// collective call of every rank, and on the warm path that error is nil —
// the classifiers must not pay errors.As's escaping target for it. They
// still classify wrapped errors.
func TestClassifiersFreeOnNil(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		if IsCrashed(nil) || IsTransient(nil) || IsSevered(nil) {
			t.Fatal("nil classified as a fault")
		}
	}); got != 0 {
		t.Errorf("classifying a nil error allocates %.0f times, want 0", got)
	}
	crash := fmt.Errorf("rank 3: %w", &CrashError{Rank: 3})
	if !IsCrashed(crash) || IsTransient(crash) || IsSevered(crash) {
		t.Error("wrapped CrashError misclassified")
	}
	if !IsTransient(fmt.Errorf("copy: %w", &TransientError{})) || !IsSevered(fmt.Errorf("copy: %w", &SeverError{})) {
		t.Error("wrapped TransientError / SeverError not recognised")
	}
}
