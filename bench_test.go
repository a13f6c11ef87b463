package distcoll_test

import (
	"fmt"
	"testing"

	"distcoll"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/figures"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// Figure benchmarks: one per paper figure. Each sub-benchmark simulates
// one (series, message size) point and reports the aggregate bandwidth
// the paper plots, so `go test -bench Fig` regenerates the evaluation's
// headline numbers. cmd/distbench prints the full sweeps.

func reportBcast(b *testing.B, n int, size int64, sec float64) {
	b.Helper()
	b.ReportMetric(imb.BcastBandwidth(n, size, sec), "MB/s")
	b.ReportMetric(sec*1e6, "sim-µs")
}

// mustModel builds the machine model the benchmark's simulations share.
func mustModel(b *testing.B, bind *binding.Binding, params machine.Params) *machine.Model {
	b.Helper()
	m, err := machine.NewModel(bind, params)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func reportAllgather(b *testing.B, n int, size int64, sec float64) {
	b.Helper()
	b.ReportMetric(imb.AllgatherBandwidth(n, size, sec), "MB/s")
	b.ReportMetric(sec*1e6, "sim-µs")
}

// BenchmarkFig2 regenerates Figure 2: MPICH2-1.4 broadcast on Zoot under
// the four bindings.
func BenchmarkFig2(b *testing.B) {
	zoot := hwtopo.NewZoot()
	params := machine.ZootParams()
	for _, bindName := range []string{"rr", "contiguous"} {
		bind, err := binding.ByName(zoot, bindName, 16, 0)
		if err != nil {
			b.Fatal(err)
		}
		model := mustModel(b, bind, params)
		for _, size := range []int64{4 << 10, 256 << 10, 8 << 20} {
			b.Run(fmt.Sprintf("%s/%s", bindName, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.TimeOf(model, tune.CollBcast, tune.Decision{Component: tune.ComponentMPICH}, 0, size, 0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportBcast(b, 16, size, sec)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: broadcast on IG, tuned vs the
// distance-aware KNEM collective under both bindings.
func BenchmarkFig6(b *testing.B) {
	ig := hwtopo.NewIG()
	params := machine.IGParams()
	for _, bindName := range []string{"contiguous", "crosssocket"} {
		bind, err := binding.ByName(ig, bindName, 48, 0)
		if err != nil {
			b.Fatal(err)
		}
		model := mustModel(b, bind, params)
		for _, size := range []int64{16 << 10, 1 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("tuned/%s/%s", bindName, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.TimeOf(model, tune.CollBcast, tune.Decision{Component: tune.ComponentTuned}, 0, size, 0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportBcast(b, 48, size, sec)
			})
			b.Run(fmt.Sprintf("knemcoll/%s/%s", bindName, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.TimeOf(model, tune.CollBcast, tune.Decision{Component: tune.ComponentKNEM}, 0, size, 0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportBcast(b, 48, size, sec)
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: allgather on IG.
func BenchmarkFig7(b *testing.B) {
	ig := hwtopo.NewIG()
	params := machine.IGParams()
	for _, bindName := range []string{"contiguous", "crosssocket"} {
		bind, err := binding.ByName(ig, bindName, 48, 0)
		if err != nil {
			b.Fatal(err)
		}
		model := mustModel(b, bind, params)
		for _, size := range []int64{4 << 10, 256 << 10, 2 << 20} {
			b.Run(fmt.Sprintf("tuned/%s/%s", bindName, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.TimeOf(model, tune.CollAllgather, tune.Decision{Component: tune.ComponentTuned}, 0, size, 0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportAllgather(b, 48, size, sec)
			})
			b.Run(fmt.Sprintf("knemcoll/%s/%s", bindName, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.TimeOf(model, tune.CollAllgather, tune.Decision{Component: tune.ComponentKNEM}, 0, size, 0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportAllgather(b, 48, size, sec)
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: the 4-set hierarchy vs linear
// topology for KNEM broadcast on Zoot.
func BenchmarkFig8(b *testing.B) {
	zoot := hwtopo.NewZoot()
	params := machine.ZootParams()
	bind, err := binding.Contiguous(zoot, 16)
	if err != nil {
		b.Fatal(err)
	}
	model := mustModel(b, bind, params)
	variants := []struct {
		name   string
		levels core.Levels
	}{{"4sets", core.CollapseBelow(2)}, {"linear", core.FlatLevels}}
	for _, v := range variants {
		for _, size := range []int64{32 << 10, 1 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("%s/%s", v.name, imb.FormatSize(size)), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					var err error
					sec, err = figures.LevelsBcastTime(model, 0, size, v.levels)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportBcast(b, 16, size, sec)
			})
		}
	}
}

// BenchmarkExtAllreduce covers the §VI extension experiment: distance-aware
// allreduce vs the rank-based tuned selection under the adversarial
// binding.
func BenchmarkExtAllreduce(b *testing.B) {
	ig := hwtopo.NewIG()
	params := machine.IGParams()
	cross, err := binding.CrossSocket(ig, 48)
	if err != nil {
		b.Fatal(err)
	}
	m := distance.NewMatrix(ig, cross.Cores())
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const size = 1 << 20
	b.Run("knemcoll/crosssocket/1M", func(b *testing.B) {
		var sec float64
		for i := 0; i < b.N; i++ {
			s, err := core.CompileAllreduce(ring, size, 8)
			if err != nil {
				b.Fatal(err)
			}
			res, err := machine.Simulate(cross, params, s)
			if err != nil {
				b.Fatal(err)
			}
			sec = res.Makespan
		}
		b.ReportMetric(2*47*float64(size)/sec/1e6, "MB/s")
	})
}

// BenchmarkExtCluster covers the multi-node extension: distance-aware
// broadcast on the 4-node/2-switch cluster under a scattered binding.
func BenchmarkExtCluster(b *testing.B) {
	topo := hwtopo.NewIGCluster()
	params := machine.ClusterParams(machine.IGParams())
	scattered, err := binding.CrossSocket(topo, 48)
	if err != nil {
		b.Fatal(err)
	}
	model := mustModel(b, scattered, params)
	const size = 1 << 20
	b.Run("distaware/scattered/1M", func(b *testing.B) {
		var sec float64
		for i := 0; i < b.N; i++ {
			var err error
			sec, err = figures.TimeOf(model, tune.CollBcast, tune.Decision{Component: tune.ComponentKNEM}, 0, size, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportBcast(b, 48, size, sec)
	})
}

// BenchmarkTopologyConstruction measures the §V-B overhead discussion:
// sorting O(n²) edges and running the modified Kruskal, as communicators
// grow (synthetic many-core machines beyond IG).
func BenchmarkTopologyConstruction(b *testing.B) {
	for _, n := range []int{16, 48, 128, 512} {
		topo := syntheticMachine(b, n)
		bind, err := binding.Random(topo, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := distance.NewMatrix(topo, bind.Cores())
		b.Run(fmt.Sprintf("tree/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ring/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildAllgatherRing(m, core.RingOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tree-fast/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildBroadcastTreeFast(m, 0, core.TreeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ring-fast/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildAllgatherRingFast(m, core.RingOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("matrix/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				distance.NewMatrix(topo, bind.Cores())
			}
		})
	}
}

func syntheticMachine(b *testing.B, cores int) *hwtopo.Topology {
	b.Helper()
	boards := 1
	if cores >= 128 {
		boards = 2
	}
	socketsPerBoard := cores / boards / 8
	if socketsPerBoard == 0 {
		socketsPerBoard = 1
	}
	perSocket := cores / boards / socketsPerBoard
	topo, err := hwtopo.Build(hwtopo.Spec{
		Name:             fmt.Sprintf("synth%d", cores),
		Boards:           boards,
		SocketsPerBoard:  socketsPerBoard,
		DiesPerSocket:    1,
		CoresPerDie:      perSocket,
		SharedCacheLevel: 3,
		SharedCacheSize:  8 << 20,
		NUMAPerSocket:    true,
		MemPerNUMA:       16 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkFunctionalBcast measures the mini-MPI runtime end to end:
// 48 goroutine processes, a real 1 MB broadcast through the emulated KNEM
// device.
func BenchmarkFunctionalBcast(b *testing.B) {
	ig := distcoll.NewIG()
	bind, err := distcoll.CrossSocket(ig, 48)
	if err != nil {
		b.Fatal(err)
	}
	const size = 1 << 20
	msg := make([]byte, size)
	b.SetBytes(47 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := distcoll.NewWorld(bind)
		err := world.Run(func(p *distcoll.Proc) error {
			buf := make([]byte, size)
			if p.Rank() == 0 {
				copy(buf, msg)
			}
			return p.Comm().Bcast(buf, 0, distcoll.KNEMColl)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the discrete-event simulator itself: events
// per second on the densest schedule in the suite (48-rank allgather).
func BenchmarkSimulator(b *testing.B) {
	ig := hwtopo.NewIG()
	bind, err := binding.CrossSocket(ig, 48)
	if err != nil {
		b.Fatal(err)
	}
	m := distance.NewMatrix(ig, bind.Cores())
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.CompileAllgather(ring, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	params := machine.IGParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Simulate(bind, params, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s.Ops)), "ops/run")
}

// BenchmarkCompileBcast48 measures the cold path the plan cache exists to
// avoid: selector decision plus full schedule compilation (distance-aware
// tree construction included) of a 48-rank broadcast.
func BenchmarkCompileBcast48(b *testing.B) {
	ig := hwtopo.NewIG()
	bind, err := binding.CrossSocket(ig, 48)
	if err != nil {
		b.Fatal(err)
	}
	m := distance.NewMatrix(ig, bind.Cores())
	sel := tune.DefaultSelector()
	const size = 256 << 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := sel.Select(tune.CollBcast, m, size)
		if _, err := tune.CompileFor(tune.CollBcast, dec, m, 0, size, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedBcast48 measures the same lookup when the plan cache is
// warm: selector decision plus one cache hit. The ratio to
// BenchmarkCompileBcast48 is the per-collective saving of the cache.
func BenchmarkCachedBcast48(b *testing.B) {
	ig := hwtopo.NewIG()
	bind, err := binding.CrossSocket(ig, 48)
	if err != nil {
		b.Fatal(err)
	}
	m := distance.NewMatrix(ig, bind.Cores())
	sel := tune.DefaultSelector()
	cache := plancache.New(0, nil)
	topo := plancache.TopoHash(m)
	const size = 256 << 10
	compile := func(dec tune.Decision) func() (*sched.Schedule, error) {
		return func() (*sched.Schedule, error) {
			return tune.CompileFor(tune.CollBcast, dec, m, 0, size, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := sel.Select(tune.CollBcast, m, size)
		key := plancache.Key{Topo: topo, Coll: "bcast", Size: size, Variant: dec.CacheKey()}
		if _, _, err := cache.Get(key, compile(dec)); err != nil {
			b.Fatal(err)
		}
	}
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
}
