package simtest

import (
	"strings"
	"testing"
)

func runMigrate(seed int64, workers int) (*MigrateResult, error) {
	return RunMigrate(MigrateOptions{Seed: seed, Workers: workers})
}

// TestMigrateLossless is the headline migration property: across seeded
// scenarios, repeated live migrations under continuous painted traffic,
// substrate link flaps, and Pause/Resume/Destroy churn must lose no
// in-flight packet (clean rounds), deliver no duplicates (every round),
// keep the pool and resource ledgers balanced, and produce
// byte-identical digests for 1-worker and 4-worker sharded execution.
// CI runs it under -race at GOMAXPROCS 1 and 4.
func TestMigrateLossless(t *testing.T) {
	first, n := sweep(15, 4)
	for s := first; s < first+n; s++ {
		// 1/2/4 parity; the 2-worker leg on the first seeds only keeps
		// the full sweep affordable.
		workers := []int{1, 4}
		if s < first+2 {
			workers = []int{1, 2, 4}
		}
		for _, r := range parity(t, s, workers, runMigrate) {
			if r.Sent == 0 || r.Delivered == 0 {
				t.Errorf("seed %d workers=%d: vacuous run (sent=%d delivered=%d)",
					s, r.Workers, r.Sent, r.Delivered)
			}
			if r.Duplicates != 0 {
				t.Errorf("seed %d workers=%d: %d duplicate deliveries", s, r.Workers, r.Duplicates)
			}
		}
	}
}

// TestMigrateClassic runs the regime on the classic single-timeline
// engine (Workers=0), a different deterministic baseline.
func TestMigrateClassic(t *testing.T) {
	first, n := sweep(6, 2)
	for s := first; s < first+n; s++ {
		run(t, s, 0, runMigrate)
	}
}

// TestMigrateReplayDeterminism: the same migration seed run twice must
// match in every digest.
func TestMigrateReplayDeterminism(t *testing.T) {
	for s := int64(1); s <= 3; s++ {
		parity(t, s, []int{0, 0}, runMigrate)
	}
}

// TestMigrateMutationSuppressionChecker proves the exactly-once checker
// has teeth: sabotaging the shadow's duplicate suppression must surface
// window clones as duplicate deliveries and fail the run. (The same
// mutation discipline PR 2 applied to the original invariant checkers.)
func TestMigrateMutationSuppressionChecker(t *testing.T) {
	clean, err := RunMigrate(MigrateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.Failed() {
		t.Fatalf("clean run must pass before the mutation means anything:\n%s", clean)
	}
	broken, err := RunMigrate(MigrateOptions{Seed: 1, Sabotage: true})
	if err != nil {
		t.Fatalf("sabotaged run: %v", err)
	}
	if !broken.Failed() {
		t.Fatalf("suppression disabled but no violation reported — the duplicate checker is toothless:\n%s", broken)
	}
	if broken.Duplicates == 0 {
		t.Errorf("sabotaged run reported violations but counted no duplicates:\n%s", broken)
	}
	found := false
	for _, v := range broken.Violations {
		if strings.Contains(v, "delivered") && strings.Contains(v, "times") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("sabotaged run failed for the wrong reason:\n%s", broken)
	}
}
