package figures

import (
	"math"
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

// checkEnvelope asserts, at every acceptance size under both IG bindings,
// that the schedule the Adaptive component selects for coll simulates to
// match or beat the best of the candidates the calibrator swept — tuned and
// the fixed distance-aware component among them.
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
				sec, err := TimeOf(bc.m, coll, d, 0, size, tune.ReduceAlign)
				if err != nil {
					t.Fatal(err)
				}
				return sec
			}
			best, bestDec := math.Inf(1), tune.Decision{}
			for _, d := range tune.Candidates(coll, false) {
				if sec := timeOf(d); sec < best {
					best, bestDec = sec, d
				}
			}
			chosen := sel.Select(coll, view(bc.m), size)
			if adaptive := timeOf(chosen); adaptive > best*(1+envelopeTol) {
				t.Errorf("%s/%s %d B: adaptive (%s) %.3gs worse than the best candidate (%s) %.3gs",
					coll, bc.name, size, chosen, adaptive, bestDec, best)
			}
		}
	}
}

// TestAdaptiveTracksUpperEnvelopeBcast is the headline acceptance test:
// at every sweep point, under both bindings, the Adaptive component's
// simulated broadcast matches or beats every fixed candidate.
func TestAdaptiveTracksUpperEnvelopeBcast(t *testing.T) { checkEnvelope(t, tune.CollBcast) }

// TestAdaptiveTracksUpperEnvelopeAllgather mirrors the broadcast test on
// the Fig. 7 allgather sweep.
func TestAdaptiveTracksUpperEnvelopeAllgather(t *testing.T) { checkEnvelope(t, tune.CollAllgather) }

// TestAdaptiveTracksUpperEnvelopeReduce and ...Allreduce extend the gate to
// the §VI collectives: the tree, the ring, the chunked tree and tuned all
// bound the Adaptive allreduce from above.
func TestAdaptiveTracksUpperEnvelopeReduce(t *testing.T) { checkEnvelope(t, tune.CollReduce) }

func TestAdaptiveTracksUpperEnvelopeAllreduce(t *testing.T) { checkEnvelope(t, tune.CollAllreduce) }

// TestTreeAllreducePlacementStable: the tree allreduce is built from process
// distance, not rank order, so the contiguous and the cross-socket binding
// of the same 48 cores simulate within 1 % of each other at every size,
// default-chunked and at the calibrated 64 KiB chunk — where tuned differs
// by 40–90 %.
func TestTreeAllreducePlacementStable(t *testing.T) {
	cont, cross, err := igModels(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tune.Candidates(tune.CollAllreduce, false) {
		if !d.Tree {
			continue
		}
		for _, size := range acceptSizes {
			a, err := TimeOf(cont, tune.CollAllreduce, d, 0, size, tune.ReduceAlign)
			if err != nil {
				t.Fatal(err)
			}
			b, err := TimeOf(cross, tune.CollAllreduce, d, 0, size, tune.ReduceAlign)
			if err != nil {
				t.Fatal(err)
			}
			if spread := math.Abs(a-b) / math.Min(a, b); spread >= 0.01 {
				t.Errorf("%s %d B: contiguous %.4gs, cross-socket %.4gs (%.1f %% apart)", d, size, a, b, spread*100)
			}
		}
	}
}

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
