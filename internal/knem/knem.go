// Package knem emulates the KNEM kernel module's user-visible semantics:
// a process declares a memory region and receives an opaque *cookie*; any
// other process holding the cookie can then move bytes between that region
// and its own memory in a single copy, without the owner's involvement —
// the receiver-driven RMA-style pull the paper's KNEM collectives build
// on.
//
// The emulation is a process-shared device (one per mini-MPI world).
// Regions are real byte slices; copies are real memcpys. Cookie lifetime
// follows the module's rules: a region can be declared once, used many
// times, and destroyed by its owner, after which the cookie is invalid.
// The device is safe for concurrent use by many goroutine-processes.
package knem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cookie identifies a declared region. The zero Cookie is never valid.
type Cookie uint64

// Mover is the transport interface the runtime moves collective bytes
// through. *Device is the real emulation; wrappers (e.g. the fault
// injector) interpose on it to drop, delay, corrupt or fail operations.
// The caller argument of the copy methods identifies the rank performing
// the operation — implicit in the real kernel module (the calling
// process), explicit here so interposers can attribute faults to ranks
// deterministically.
type Mover interface {
	Declare(owner int, buf []byte) Cookie
	Destroy(owner int, c Cookie) error
	CopyFrom(caller int, c Cookie, offset int64, dst []byte) error
	CopyTo(caller int, c Cookie, offset int64, src []byte) error
}

// Device is one node's KNEM pseudo-device.
type Device struct {
	mu      sync.RWMutex
	regions map[Cookie]region
	next    atomic.Uint64

	copies  atomic.Int64 // completed copy operations
	declare atomic.Int64 // completed region declarations
}

type region struct {
	owner int
	buf   []byte
}

// NewDevice creates an empty device.
func NewDevice() *Device {
	return &Device{regions: make(map[Cookie]region)}
}

var _ Mover = (*Device)(nil)

// Owner returns the rank that declared cookie c, when the region is
// still live. The fault layer uses it to key per-link (src, dst) fault
// decisions: the region owner is the source of a pull and the sink of a
// push.
func (d *Device) Owner(c Cookie) (int, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.regions[c]
	if !ok {
		return 0, false
	}
	return r.owner, true
}

// Declare registers buf as a region owned by rank and returns its cookie.
// The buffer is aliased, not copied: later writes by the owner are visible
// to subsequent Copy calls, exactly like the kernel pinning user pages.
func (d *Device) Declare(owner int, buf []byte) Cookie {
	c := Cookie(d.next.Add(1))
	d.mu.Lock()
	d.regions[c] = region{owner: owner, buf: buf}
	d.mu.Unlock()
	d.declare.Add(1)
	return c
}

// Destroy invalidates a cookie. Only the owner may destroy its region.
func (d *Device) Destroy(owner int, c Cookie) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.regions[c]
	if !ok {
		return fmt.Errorf("knem: destroy of invalid cookie %d", c)
	}
	if r.owner != owner {
		return fmt.Errorf("knem: rank %d cannot destroy cookie %d owned by rank %d", owner, c, r.owner)
	}
	delete(d.regions, c)
	return nil
}

// ForceDestroy removes a region regardless of owner, tolerating invalid
// cookies, and reports whether the region existed. It is the crash-cleanup
// path: after a process failure the runtime reclaims the dead process's
// pinned regions (and an abandoned collective's surviving regions) without
// the owner's cooperation.
func (d *Device) ForceDestroy(c Cookie) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.regions[c]
	delete(d.regions, c)
	return ok
}

// PurgeOwner destroys every region owned by the given rank and returns how
// many were reclaimed — the kernel tearing down a dead process's state.
func (d *Device) PurgeOwner(owner int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for c, r := range d.regions {
		if r.owner == owner {
			delete(d.regions, c)
			n++
		}
	}
	return n
}

// CopyFrom pulls bytes out of the region at the given offset into dst
// (inline get — the common pull direction of the paper's collectives).
// caller is the rank performing the pull.
func (d *Device) CopyFrom(caller int, c Cookie, offset int64, dst []byte) error {
	_ = caller
	r, err := d.lookup(c, offset, int64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, r.buf[offset:offset+int64(len(dst))])
	d.copies.Add(1)
	return nil
}

// CopyTo pushes src into the region at the given offset (inline put).
// caller is the rank performing the put.
func (d *Device) CopyTo(caller int, c Cookie, offset int64, src []byte) error {
	_ = caller
	r, err := d.lookup(c, offset, int64(len(src)))
	if err != nil {
		return err
	}
	copy(r.buf[offset:offset+int64(len(src))], src)
	d.copies.Add(1)
	return nil
}

// SumRegion applies sum to the region bytes [offset, offset+n) and
// returns its result — the sending-side half of the integrity layer's
// per-hop checksum. Computing the sum directly over the pinned region
// models the owner publishing a checksum of its buffer alongside the
// cookie: the value covers the bytes as the sender holds them, before
// any (possibly faulty) data path has touched them. The same
// schedule-dependency ordering that makes the pull itself sound makes
// this read sound: the source range is stable while it is being pulled.
func (d *Device) SumRegion(c Cookie, offset, n int64, sum func([]byte) uint32) (uint32, error) {
	r, err := d.lookup(c, offset, n)
	if err != nil {
		return 0, err
	}
	return sum(r.buf[offset : offset+n]), nil
}

// lookup returns a copy of the region record (the buffer itself is
// aliased, never copied) after bounds-checking the requested range.
func (d *Device) lookup(c Cookie, offset, n int64) (region, error) {
	if n < 0 || offset < 0 {
		return region{}, fmt.Errorf("knem: negative range (off=%d, len=%d)", offset, n)
	}
	d.mu.RLock()
	r, ok := d.regions[c]
	d.mu.RUnlock()
	if !ok {
		return region{}, fmt.Errorf("knem: invalid cookie %d", c)
	}
	if offset+n > int64(len(r.buf)) {
		return region{}, fmt.Errorf("knem: range [%d,%d) exceeds region of %d bytes", offset, offset+n, len(r.buf))
	}
	return r, nil
}

// Stats reports lifetime counters: declared regions, live regions and
// completed copies.
func (d *Device) Stats() (declared, live int64, copies int64) {
	d.mu.RLock()
	liveN := len(d.regions)
	d.mu.RUnlock()
	return d.declare.Load(), int64(liveN), d.copies.Load()
}
