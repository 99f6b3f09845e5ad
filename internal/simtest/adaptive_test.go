package simtest

import (
	"strings"
	"testing"
)

func runAdaptive(seed int64, workers int) (*AdaptiveResult, error) {
	return RunAdaptive(AdaptiveOptions{Seed: seed, Workers: workers})
}

// TestAdaptiveConverges is the headline adaptive-controller property:
// across seeded scenarios the delay-gradient estimator must converge
// into the band around the true available bandwidth after every
// quiescent point — alone, against CBR cross-traffic, across overlay
// Pause/Resume churn, and through a substrate reroute onto a slower
// path — never run away above the bottleneck, leave balanced pool and
// endpoint ledgers, and produce byte-identical digests for 1-worker
// and 4-worker execution. CI runs it under -race at GOMAXPROCS 1 and 4.
func TestAdaptiveConverges(t *testing.T) {
	first, n := sweep(10, 3)
	for s := first; s < first+n; s++ {
		// 1/2/4 parity; the 2-worker leg on the first seeds only keeps
		// the full sweep affordable.
		workers := []int{1, 4}
		if s < first+2 {
			workers = []int{1, 2, 4}
		}
		for _, r := range parity(t, s, workers, runAdaptive) {
			if len(r.Phases) != 6 {
				t.Errorf("seed %d workers=%d: %d phases measured, want 6", s, r.Workers, len(r.Phases))
			}
			if r.TracePoints == 0 {
				t.Errorf("seed %d workers=%d: vacuous run (no controller trace)", s, r.Workers)
			}
		}
	}
}

// TestAdaptiveReplayDeterminism: the same adaptive seed run twice must
// match in every digest — the controller's float state is a fixed
// IEEE-754 op sequence over simulated time, nothing else.
func TestAdaptiveReplayDeterminism(t *testing.T) {
	for s := int64(1); s <= 3; s++ {
		parity(t, s, []int{1, 1}, runAdaptive)
	}
}

// TestAdaptiveMutationOveruseDetector proves the convergence invariant
// has teeth: disabling the controller's over-use detector must blow the
// estimate through the convergence band and trip the no-runaway audit.
func TestAdaptiveMutationOveruseDetector(t *testing.T) {
	clean, err := RunAdaptive(AdaptiveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.Failed() {
		t.Fatalf("clean run must pass before the mutation means anything:\n%s", clean)
	}
	broken, err := RunAdaptive(AdaptiveOptions{Seed: 1, DisableOveruse: true})
	if err != nil {
		t.Fatalf("sabotaged run: %v", err)
	}
	if !broken.Failed() {
		t.Fatalf("over-use detector disabled but no violation reported — the convergence checker is toothless:\n%s", broken)
	}
	convergence, runaway := false, false
	for _, v := range broken.Violations {
		if strings.Contains(v, "outside") {
			convergence = true
		}
		if strings.Contains(v, "runaway") {
			runaway = true
		}
	}
	if !convergence {
		t.Errorf("sabotaged run never tripped the convergence band:\n%s", broken)
	}
	if !runaway {
		t.Errorf("sabotaged run never tripped the no-runaway audit:\n%s", broken)
	}
}
