package simtest

import "testing"

func runChurn(seed int64, workers int) (*ChurnResult, error) {
	return RunChurn(ChurnOptions{Seed: seed, Workers: workers})
}

// TestChurn explores seeded slice-churn scenarios on the classic
// single-timeline engine: every teardown must leave the substrate
// exactly as clean as before the slice existed.
func TestChurn(t *testing.T) {
	first, n := sweep(8, 3)
	for s := first; s < first+n; s++ {
		run(t, s, 0, runChurn)
	}
}

// TestChurnReplayDeterminism: the same churn seed run twice must match
// in every digest.
func TestChurnReplayDeterminism(t *testing.T) {
	for s := int64(1); s <= 3; s++ {
		parity(t, s, []int{0, 0}, runChurn)
	}
}

// TestChurnWorkerParity is the lifecycle counterpart of TestWorkerParity:
// the full create/pause/reembed/destroy schedule must be byte-identical
// between a 1-worker and a 4-worker sharded run — teardown ordering,
// timer cancellation, and telemetry retirement may not depend on worker
// count.
func TestChurnWorkerParity(t *testing.T) {
	first, n := sweep(15, 4)
	for s := first; s < first+n; s++ {
		parity(t, s, []int{1, 4}, runChurn)
	}
}
