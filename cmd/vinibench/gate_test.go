package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckBaseline pins the one baseline gate every BENCH report goes
// through: the max-worker row passes at 0.86x the baseline's events/sec
// and fails at 0.84x, and a baseline of another scenario — or one
// without a max-worker row — is skipped however slow the run looks.
func TestCheckBaseline(t *testing.T) {
	par := func(slices int, eps float64) parallelReport {
		return parallelReport{Slices: slices, Rows: []parallelRow{{Workers: 1, EventsPerSec: 1}, {Workers: 4, EventsPerSec: eps}}}
	}
	scale := func(slices, nodes int, eps float64) scaleReport {
		return scaleReport{Slices: slices, Nodes: nodes, Rows: []scaleRow{{Workers: 4, EventsPerSec: eps}}}
	}
	adaptive := func(seed int64, eps float64) adaptiveReport {
		return adaptiveReport{Seed: seed, Rows: []adaptiveRow{{Workers: 4, EventsPerSec: eps}}}
	}
	for _, tc := range []struct {
		name      string
		rep, base any
		fail      bool
	}{
		{"parallel pass", par(4, 86), par(4, 100), false},
		{"parallel fail", par(4, 84), par(4, 100), true},
		{"scale pass", scale(500, 64, 86), scale(500, 64, 100), false},
		{"scale fail", scale(500, 64, 84), scale(500, 64, 100), true},
		{"scale skip other slices", scale(500, 64, 1), scale(200, 64, 100), false},
		{"scale skip other nodes", scale(500, 64, 1), scale(500, 32, 100), false},
		{"adaptive pass", adaptive(2, 86), adaptive(2, 100), false},
		{"adaptive fail", adaptive(2, 84), adaptive(2, 100), true},
		{"adaptive skip other seed", adaptive(2, 1), adaptive(3, 100), false},
		{"skip without max-worker row", adaptive(2, 1), adaptiveReport{Seed: 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := checkBaseline("test", path, tc.rep, 4); (err != nil) != tc.fail {
				t.Fatalf("checkBaseline: err = %v, want failure %v", err, tc.fail)
			}
		})
	}
}

// TestShortExperiments runs the fast experiments end to end in -short
// mode; each one checks its own paper shape or digest cross-check and
// returns an error when it fails.
func TestShortExperiments(t *testing.T) {
	*short = true
	defer func() { *short = false }()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Experiments write their BENCH_*.json reports into the working
	// directory.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, fn := range map[string]func() error{
		"table3": table3, "table5": table5, "fig7": fig7, "fig8": fig8, "fig9": fig9,
		"telemetry": telemetryExp, "churn": churnExp, "migrate": migrateExp,
	} {
		if err := fn(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
