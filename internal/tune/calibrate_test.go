package tune

import (
	"reflect"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/machine"
)

// calibrateSizes keeps calibration tests fast: one point per regime
// (latency-bound, crossover neighborhood, bandwidth-bound).
var calibrateSizes = []int64{1 << 10, 16 << 10, 256 << 10}

func TestCalibrateDeterministic(t *testing.T) {
	a, err := CalibrateMachine("zoot", calibrateSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrateMachine("zoot", calibrateSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical calibration runs disagree")
	}
	da, _ := MarshalTable(a)
	db, _ := MarshalTable(b)
	if string(da) != string(db) {
		t.Error("calibration output is not byte-stable")
	}
}

// Every rule the calibrator emits must be (near-)optimal at the swept
// points it claims: re-simulating all candidates at each point, the
// table's decision must be within the hysteresis margin of the best.
func TestCalibratedRulesAreOptimalAtSweptPoints(t *testing.T) {
	tab, err := CalibrateMachine("zoot", calibrateSizes)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hwtopo.ByName("zoot")
	if err != nil {
		t.Fatal(err)
	}
	params, err := machine.ParamsFor("zoot")
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range tab.RuleSets {
		b, err := binding.ByName(topo, rs.Binding, tab.Procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := distance.NewMatrix(topo, b.Cores())
		for _, size := range calibrateSizes {
			chosen, ok := rs.decide(size)
			if !ok {
				t.Fatalf("%s/%s: no rule covers swept size %d", rs.Coll, rs.Binding, size)
			}
			best, chosenTime := -1.0, -1.0
			for _, d := range candidates(rs.Coll) {
				s, err := CompileFor(rs.Coll, d, m, 0, size, reduceAlign)
				if err != nil {
					t.Fatal(err)
				}
				res, err := machine.Simulate(b, params, s)
				if err != nil {
					t.Fatal(err)
				}
				if best < 0 || res.Makespan < best {
					best = res.Makespan
				}
				if d == chosen {
					chosenTime = res.Makespan
				}
			}
			if chosenTime < 0 {
				t.Fatalf("%s/%s size %d: chosen decision %s not among candidates", rs.Coll, rs.Binding, size, chosen)
			}
			if limit := best * (1 + calibrateMargin); chosenTime > limit {
				t.Errorf("%s/%s size %d: table picked %s at %.3gs, best candidate %.3gs (beyond margin)",
					rs.Coll, rs.Binding, size, chosen, chosenTime, best)
			}
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(CalibrateConfig{Machine: "zoot"}); err == nil {
		t.Error("Calibrate accepted a config with no name")
	}
	if _, err := Calibrate(CalibrateConfig{Name: "x", Machine: "nope"}); err == nil {
		t.Error("Calibrate accepted an unknown machine")
	}
	if _, err := CalibrateMachine("nope", nil); err == nil {
		t.Error("CalibrateMachine accepted an unknown machine")
	}
	if got := DefaultMachines(); len(got) != 4 {
		t.Errorf("DefaultMachines() = %v", got)
	}
}
