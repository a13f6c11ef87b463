package tune

import (
	"math"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/machine"
)

// TestMakespansMatchMapBasedSimulator pins the array-based simulator to the
// map-based one it replaced: makespans captured from that implementation
// (commit ae96294, whose last digits wandered with map order — hence a
// relative bound, not equality) on bench/'s six sim-sweep jobs, with two
// broadcast roots, and on BenchmarkSimulator's 2,304-op allgather.
func TestMakespansMatchMapBasedSimulator(t *testing.T) {
	for _, pt := range []struct {
		machine string
		ranks   int
		coll    Collective
		bytes   int64
		root    int
		want    map[string]float64
	}{
		{"zoot", 16, CollAllgather, 16 << 10, 0, map[string]float64{
			"tuned":         0.0010252899999999999,
			"knemcoll/hier": 0.0010890832327389113,
		}},
		{"ig", 48, CollBcast, 64 << 10, 0, map[string]float64{
			"tuned":                     0.00081883185167758697,
			"knemcoll/hier":             0.00027228600000000006,
			"knemcoll/hier/chunk=65536": 0.00044804400000000004,
			"knemcoll/linear":           0.0013832560000000002,
		}},
		{"ig", 48, CollBcast, 64 << 10, 29, map[string]float64{
			"tuned":                     0.00081890685167758685,
			"knemcoll/hier":             0.00027228600000000006,
			"knemcoll/hier/chunk=65536": 0.00044804400000000004,
			"knemcoll/linear":           0.0013832560000000005,
		}},
		{"ig", 48, CollAllgather, 64 << 10, 0, map[string]float64{
			"knemcoll/hier": 0.0073932389951515314, // BenchmarkSimulator
		}},
	} {
		topo, err := hwtopo.ByName(pt.machine)
		if err != nil {
			t.Fatal(err)
		}
		params, err := machine.ParamsFor(pt.machine)
		if err != nil {
			t.Fatal(err)
		}
		bind, err := binding.CrossSocket(topo, pt.ranks)
		if err != nil {
			t.Fatal(err)
		}
		model, err := machine.NewModel(bind, params)
		if err != nil {
			t.Fatal(err)
		}
		view := distance.NewMatrix(topo, bind.Cores())
		checked := 0
		for _, dec := range Candidates(pt.coll, false) {
			want, ok := pt.want[dec.String()]
			if !ok {
				continue
			}
			checked++
			s, err := CompileFor(pt.coll, dec, view, pt.root, pt.bytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := model.Simulate(s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Makespan-want) > 1e-9*want {
				t.Errorf("%s%d %s %d B root %d, %s: makespan %.17g, map-based simulator %.17g",
					pt.machine, pt.ranks, pt.coll, pt.bytes, pt.root, dec, res.Makespan, want)
			}
		}
		if checked != len(pt.want) {
			t.Errorf("%s%d %s: %d of %d pinned decisions are candidates", pt.machine, pt.ranks, pt.coll, checked, len(pt.want))
		}
	}
}
