package simtest

import "testing"

// TestScaleScenario runs the pinned scale regime on the classic engine:
// 200 slices — well past the old 126-slice ceiling — embedded on a
// 64-node synthetic REPETITA substrate, converged, flapped, loaded with
// demand traffic, churned, and audited. -short trims to 24 nodes / 60
// slices (still compiled against the sized-allocation path).
func TestScaleScenario(t *testing.T) {
	seed := int64(2)
	if *flagSeed >= 0 {
		seed = *flagSeed
	}
	r := run(t, seed, 0, func(seed int64, workers int) (*ScaleResult, error) {
		opts := ScaleOptions{Seed: seed, Workers: workers}
		if testing.Short() {
			opts.Nodes, opts.Slices = 24, 60
		}
		return RunScale(opts)
	})
	if r.Slices < 127 && !testing.Short() {
		t.Fatalf("scale scenario ran only %d slices; the point is to exceed the old 126 ceiling", r.Slices)
	}
	if testing.Verbose() {
		t.Logf("seed %d: %d slices / %d vnodes on %d nodes, %d events, %d/%d delivered (build %.2fs, run %.2fs)",
			r.Seed, r.Slices, r.VNodes, r.Nodes, r.Events, r.Delivered, r.Sent, r.BuildSeconds, r.RunSeconds)
	}
}

// TestScaleWorkerParity extends the worker-parity property to the scale
// regime: the seeded 64-node / 200-slice scenario must produce one
// digest bundle — scenario (which folds the traffic counts), event
// schedule, telemetry registry, flight recorder, and the full JSON
// snapshot — at 1, 2, and 4 workers. At this scale every divergence
// class the small-topology parity test hunts (cross-horizon delivery,
// racy RNG draws, shared state between domains) has hundreds of chances
// per run to show up.
func TestScaleWorkerParity(t *testing.T) {
	seed := int64(11)
	if *flagSeed >= 0 {
		seed = *flagSeed
	}
	parity(t, seed, []int{1, 2, 4}, func(seed int64, workers int) (*ScaleResult, error) {
		return RunScale(ScaleOptions{Seed: seed, Workers: workers})
	})
}
