package figures

import (
	"testing"

	"distcoll/internal/machine"
	"distcoll/internal/tune"
)

// acceptSizes subsamples the Fig. 6/7 sweep (all calibration points, so
// the shipped tables' within-margin guarantee applies exactly): one point
// per regime from latency-bound to bandwidth-bound.
var acceptSizes = []int64{512, 2 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// envelopeTol accepts the calibrator's hysteresis: within its margin a
// near-tied runner-up may be kept for rule stability.
const envelopeTol = 2e-3

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// checkEnvelope asserts, at every acceptance size under both IG bindings,
// that the schedule the Adaptive component selects for coll simulates to
// match or beat the better of tuned and the fixed distance-aware component.
func checkEnvelope(t *testing.T, coll tune.Collective) {
	cont, cross, err := igModels(48)
	if err != nil {
		t.Fatal(err)
	}
	sel := tune.DefaultSelector()
	for _, bc := range []struct {
		name string
		m    *machine.Model
	}{{"contiguous", cont}, {"crosssocket", cross}} {
		for _, size := range acceptSizes {
			timeOf := func(d tune.Decision) float64 {
				sec, err := TimeOf(bc.m, coll, d, 0, size, 0)
				if err != nil {
					t.Fatal(err)
				}
				return sec
			}
			tunedSec, knemSec := timeOf(tuned), timeOf(knem)
			adaptive := timeOf(sel.Select(coll, view(bc.m), size))
			if best := minF(tunedSec, knemSec); adaptive > best*(1+envelopeTol) {
				t.Errorf("%s/%s %d B: adaptive %.3gs worse than best fixed component %.3gs (tuned %.3gs, knem %.3gs)",
					coll, bc.name, size, adaptive, best, tunedSec, knemSec)
			}
		}
	}
}

// TestAdaptiveTracksUpperEnvelopeBcast is the headline acceptance test:
// at every sweep point, under both bindings, the Adaptive component's
// simulated broadcast matches or beats the better of tuned and the fixed
// distance-aware component.
func TestAdaptiveTracksUpperEnvelopeBcast(t *testing.T) { checkEnvelope(t, tune.CollBcast) }

// TestAdaptiveTracksUpperEnvelopeAllgather mirrors the broadcast test on
// the Fig. 7 allgather sweep.
func TestAdaptiveTracksUpperEnvelopeAllgather(t *testing.T) { checkEnvelope(t, tune.CollAllgather) }

// TestAdaptiveFigures drives the two new figure IDs end to end on a tiny
// sweep and sanity-checks the series layout.
func TestAdaptiveFigures(t *testing.T) {
	sizes := []int64{4 << 10, 64 << 10}
	for _, id := range []string{"adaptive-bcast", "adaptive-allgather"} {
		fig, err := ByID(id, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if fig.ID != id || len(fig.Series) != 6 {
			t.Fatalf("%s: id=%q series=%d, want 6", id, fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(sizes) {
				t.Errorf("%s/%s: %d points, want %d", id, s.Label, len(s.Points), len(sizes))
			}
			for _, p := range s.Points {
				if p.MBps <= 0 || p.Seconds <= 0 {
					t.Errorf("%s/%s: non-positive point at %d B", id, s.Label, p.Size)
				}
			}
		}
	}
}
