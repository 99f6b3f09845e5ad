package simtest

import (
	"strings"
	"testing"
	"time"

	"vini/internal/packet"
)

func runScenario(seed int64, workers int) (*Result, error) {
	return Run(Options{Seed: seed, Workers: workers})
}

// TestScenarios is the harness entry point: it explores -seeds seeded
// scenarios (or exactly one with -seed N) and fails on any invariant
// violation, printing the seed that reproduces it.
func TestScenarios(t *testing.T) {
	first, n := sweep(int64(*flagSeeds), int64(*flagSeeds))
	for s := first; s < first+n; s++ {
		r := run(t, s, 0, runScenario)
		if testing.Verbose() {
			t.Logf("seed %d: nodes=%d links=%d rip=%v events=%d reconv=%v digest=%016x",
				s, r.Nodes, r.Links, r.WithRIP, len(r.EventLog), r.Reconvergences, r.Digest)
		}
	}
}

// TestReplayDeterminism runs the same seeds twice on the classic engine
// and demands byte-identical digest bundles: the scenario digest covers
// the event schedule, every quiescent FIB fingerprint, and every
// violation, so equality means the whole run replays exactly.
func TestReplayDeterminism(t *testing.T) {
	for s := int64(1); s <= 5; s++ {
		parity(t, s, []int{0, 0}, runScenario)
	}
}

// TestDistinctSeedsDiverge is the generator sanity check: different
// seeds must explore different worlds.
func TestDistinctSeedsDiverge(t *testing.T) {
	digests := map[uint64]int64{}
	same := 0
	for s := int64(1); s <= 8; s++ {
		r, err := Run(Options{Seed: s})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if _, dup := digests[r.Digest]; dup {
			same++
		}
		digests[r.Digest] = s
	}
	if same > 0 {
		t.Errorf("%d of 8 seeds produced duplicate digests — generator is not consuming the seed", same)
	}
}

// TestReconvergenceBounded checks invariant 4's reporting path: every
// recorded reconvergence must be finite and under the budget.
func TestReconvergenceBounded(t *testing.T) {
	r, err := Run(Options{Seed: 7, Events: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("seed 7 violated invariants:\n%s", r)
	}
	if len(r.Reconvergences) != 4 {
		t.Fatalf("expected 4 reconvergence samples, got %d", len(r.Reconvergences))
	}
	for i, d := range r.Reconvergences {
		if d < 0 || d > maxConverge {
			t.Errorf("event %d: reconvergence %v out of bounds", i, d)
		}
	}
}

// TestQuiesceWithoutFixedPoint: a fingerprint that changes on every
// call never reaches a fixed point, and quiesce must record that as a
// violation whatever its caller does with the returned flag.
func TestQuiesceWithoutFixedPoint(t *testing.T) {
	var rep Report
	w := newWorld(1, 0, &rep)
	defer w.vini.Close()
	n := uint64(0)
	if _, ok := w.quiesce("moving", func() uint64 { n++; return n }, 10*time.Second, 3); ok {
		t.Fatal("quiesce reported a fixed point for a fingerprint that never repeats")
	}
	if len(rep.Violations) != 1 || !strings.HasPrefix(rep.Violations[0], "moving: ") {
		t.Fatalf("want one violation for phase \"moving\", got %q", rep.Violations)
	}
}

// --- mutation tests: each one injects a fault the harness must catch ---

// convergedScenario builds a seed's world and runs it to its first
// quiescent point.
func convergedScenario(t *testing.T, seed int64, nodes int) *scenario {
	t.Helper()
	sc, err := buildScenario(Options{Seed: seed, MinNodes: nodes, MaxNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.vini.Close)
	if _, ok := sc.stable("warmup"); !ok {
		t.Fatal("did not converge")
	}
	if v := sc.checkLoops(); len(v) != 0 {
		t.Fatalf("clean scenario reported loop violations: %v", v)
	}
	return sc
}

// TestCatchesCompiledFIBMutation poisons one node's compiled FIB (via
// the fib package's test-only hook) and demands the differential
// oracle reports it.
func TestCatchesCompiledFIBMutation(t *testing.T) {
	sc := convergedScenario(t, 3, 4)
	sc.vnode[1].FIB.CorruptCompiledForTest()
	sample := sc.addrSample()
	var all []string
	for i := range sc.vnode {
		all = append(all, sc.checkConsistency(i, sample)...)
	}
	if len(all) == 0 {
		t.Fatal("compiled-FIB mutation went undetected by the differential oracle")
	}
	t.Logf("caught: %v", all[0])
}

// TestCatchesPacketLeak takes a pooled packet and never releases it —
// the exact bug class invariant 3 exists to catch — and the
// conservation checker must flag exactly that.
func TestCatchesPacketLeak(t *testing.T) {
	sc := convergedScenario(t, 5, 3)
	sc.baseline = packet.Stats()
	_ = packet.Get() // no Release or Escape
	sc.settle("leak check")
	if len(sc.res.Violations) == 0 {
		t.Fatal("leaked packet went undetected by the conservation checker")
	}
	t.Logf("caught: %v", sc.res.Violations[0])
}

// TestCatchesForwardingLoop installs a two-node routing loop for a
// bogus destination straight into the FIBs and demands the loop walker
// reports it.
func TestCatchesForwardingLoop(t *testing.T) {
	sc := convergedScenario(t, 11, 4)
	// Aim n0 -> n1 and n1 -> n0 for the same destination: n2's tap.
	installLoopForTest(sc, 0, 1, sc.vnode[2].TapAddr)
	v := sc.checkLoops()
	found := false
	for _, s := range v {
		if strings.HasPrefix(s, "forwarding loop") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected forwarding loop went undetected; got %v", v)
	}
	t.Logf("caught: %v", v)
}
