package integrity

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestSumHeaderBinds(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	base := Sum(1, 2, 0, payload)
	if Sum(1, 2, 0, payload) != base {
		t.Fatal("Sum is not deterministic")
	}
	// Same payload, different edge or chunk → different checksum. This is
	// what makes a stale or misrouted chunk detectable.
	if Sum(2, 1, 0, payload) == base {
		t.Error("Sum ignores src/dst swap")
	}
	if Sum(1, 3, 0, payload) == base {
		t.Error("Sum ignores dst")
	}
	if Sum(1, 2, 1, payload) == base {
		t.Error("Sum ignores chunk index")
	}
	if Sum(1, 2, -1, payload) == base {
		t.Error("Sum ignores unchunked marker")
	}
	// And of course the payload itself.
	flipped := append([]byte(nil), payload...)
	flipped[3] ^= 0xff
	if Sum(1, 2, 0, flipped) == base {
		t.Error("Sum ignores payload corruption")
	}
}

// TestSumMatchesDefinitionWithoutAllocating: Sum is CRC32-Castagnoli over
// the 12-byte little-endian (src, dst, chunk) header followed by the
// payload — checked against that definition written out with crc32.Update
// on random inputs — and computing it allocates nothing.
func TestSumMatchesDefinitionWithoutAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	payload := make([]byte, 4096)
	r.Read(payload)
	for i := 0; i < 2000; i++ {
		src, dst, chunk := r.Intn(1<<20)-8, r.Intn(1<<20)-8, r.Intn(1<<16)-2
		p := payload[:r.Intn(len(payload))]
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(int32(src)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(dst)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(chunk)))
		want := crc32.Update(crc32.Update(0, castagnoli, hdr[:]), castagnoli, p)
		if got := Sum(src, dst, chunk, p); got != want {
			t.Fatalf("Sum(%d, %d, %d, %d bytes) = %#x, definition gives %#x", src, dst, chunk, len(p), got, want)
		}
	}
	var sink uint32
	if got := testing.AllocsPerRun(100, func() { sink += Sum(3, 41, 7, payload) }); got != 0 {
		t.Errorf("Sum allocates %.0f times per call, want 0", got)
	}
}

func TestDigest(t *testing.T) {
	a := Digest([]byte("hello"))
	if Digest([]byte("hello")) != a {
		t.Fatal("Digest is not deterministic")
	}
	if Digest([]byte("hellp")) == a {
		t.Error("Digest ignores payload difference")
	}
	if Digest(nil) != 0 {
		t.Errorf("Digest(nil) = %08x, want 0", Digest(nil))
	}
}

func TestCheckerDefaults(t *testing.T) {
	c := NewChecker(Config{})
	if c.Repulls() != DefaultRepulls {
		t.Errorf("Repulls = %d, want %d", c.Repulls(), DefaultRepulls)
	}
	if c.Backoff() != DefaultBackoff {
		t.Errorf("Backoff = %v, want %v", c.Backoff(), DefaultBackoff)
	}
	c = NewChecker(Config{Repulls: 2, Backoff: time.Millisecond})
	if c.Repulls() != 2 || c.Backoff() != time.Millisecond {
		t.Errorf("explicit config not honoured: %d %v", c.Repulls(), c.Backoff())
	}
}

func TestCheckerStatsAndCorrupting(t *testing.T) {
	c := NewChecker(Config{})
	c.Mismatch()
	c.Mismatch()
	c.Repull()
	c.Recovered()
	c.E2EFailure()
	if !c.MarkCorrupting(3) {
		t.Error("first MarkCorrupting(3) should report a new mark")
	}
	if c.MarkCorrupting(3) {
		t.Error("second MarkCorrupting(3) should be idempotent")
	}
	c.MarkCorrupting(1)
	s := c.Stats()
	want := Stats{Mismatches: 2, Repulls: 1, Recovered: 1, Persistent: 3, E2EFailures: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
	if got := c.Corrupting(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Corrupting = %v, want [1 3]", got)
	}
	if !c.IsCorrupting(1) || c.IsCorrupting(0) {
		t.Error("IsCorrupting wrong")
	}
}

func TestCheckerConcurrent(t *testing.T) {
	c := NewChecker(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Mismatch()
				c.Repull()
				c.MarkCorrupting(r)
				c.IsCorrupting(r)
				c.Stats()
			}
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Mismatches != 800 || s.Repulls != 800 || s.Persistent != 800 {
		t.Errorf("counters lost updates: %+v", s)
	}
	if got := c.Corrupting(); len(got) != 8 {
		t.Errorf("Corrupting = %v, want 8 ranks", got)
	}
}

func TestChecksumErrorMessage(t *testing.T) {
	e := &ChecksumError{Src: 1, Dst: 2, Chunk: 3, Attempts: 5, Want: 0xdeadbeef, Got: 0x1}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}
