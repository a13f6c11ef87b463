package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// defaultSeconds is the timed phase when -seconds is not given; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 6

// printHeader records what the numbers were measured on.
func printHeader(out io.Writer) {
	fmt.Fprintf(out, "distcoll bench: %s %s/%s nproc=%d GOMAXPROCS=%d L2=%s L3=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cacheSize(2), cacheSize(3))
}

// cacheSize reads cpu0's cache of the given level from sysfs ("?" where
// the host does not say).
func cacheSize(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", idx)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "?"
}

// The host references tell a slow program from a slow host: a fixed
// single-thread spin loop and a two-goroutine memory copy, taken before
// and after a traced workload.

var spinSink uint64

// spinMS times a fixed arithmetic loop, in milliseconds (best of 3).
func spinMS() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(rep + 1)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink += x
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// memcpy2MBps is the copy bandwidth of two goroutines each copying a
// 64 MiB buffer (far beyond the caches), in MB/s of bytes copied (best of
// 3 passes).
func memcpy2MBps() float64 {
	const size = 64 << 20
	src := [2][]byte{make([]byte, size), make([]byte, size)}
	dst := [2][]byte{make([]byte, size), make([]byte, size)}
	for g := range src {
		for i := range src[g] {
			src[g][i] = byte(i)
		}
		copy(dst[g], src[g]) // fault the destination in
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := range src {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				copy(dst[g], src[g])
			}(g)
		}
		wg.Wait()
		if mbps := 2 * size / 1e6 / time.Since(t0).Seconds(); mbps > best {
			best = mbps
		}
	}
	return best
}
