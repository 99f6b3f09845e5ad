package simtest

import "testing"

// TestWorkerParity is the parallel-executor property test: for each
// seed, running the sharded engine with 1 worker and with 4 workers
// must produce the same digest bundle — the same scenario digest
// (which folds every quiescent FIB fingerprint), the same executed
// event schedule (every fired event's merge key, in order), and the
// same telemetry. The parity seeds each run the full scenario twice,
// so this test dominates the package's runtime.
func TestWorkerParity(t *testing.T) {
	first, n := sweep(25, 6)
	for s := first; s < first+n; s++ {
		r := parity(t, s, []int{1, 4}, runScenario)[0]
		if testing.Verbose() {
			t.Logf("seed %d: nodes=%d links=%d rip=%v schedule=%016x fibs=%d",
				s, r.Nodes, r.Links, r.WithRIP, r.ScheduleDigest, len(r.FIBDigests))
		}
	}
}

// TestShardedReplayDeterminism: the sharded engine is a different
// deterministic baseline from the classic loop (domain RNG streams fork
// per node), so replaying the same sharded configuration must be exact
// in its own right.
func TestShardedReplayDeterminism(t *testing.T) {
	for s := int64(1); s <= 5; s++ {
		parity(t, s, []int{4, 4}, runScenario)
	}
}
