package simtest

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"testing"

	"vini/internal/fib"
)

var (
	flagSeeds = flag.Int("seeds", 25, "number of seeded scenarios to explore")
	flagSeed  = flag.Int64("seed", -1, "replay exactly one scenario seed")
)

// regime is what every regime result offers through its embedded Report.
type regime interface {
	fmt.Stringer
	report() *Report
}

func (r *Report) report() *Report { return r }

// sweep returns the first seed and the number of seeds a test explores:
// n (short under -short), or exactly the one -seed names.
func sweep(n, short int64) (first, count int64) {
	switch {
	case *flagSeed >= 0:
		return *flagSeed, 1
	case testing.Short():
		return 1, short
	}
	return 1, n
}

// failArtifact appends a failing run's replay text to the file named by
// SIMTEST_FAIL_FILE (set in CI) so the artifact survives the run.
func failArtifact(r fmt.Stringer) {
	path := os.Getenv("SIMTEST_FAIL_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s\n", r)
}

// run executes one regime configuration: a harness error is fatal, an
// invariant violation fails the test with the line that replays it.
func run[R regime](t *testing.T, seed int64, workers int, fn func(seed int64, workers int) (R, error)) R {
	t.Helper()
	r, err := fn(seed, workers)
	if err != nil {
		t.Fatalf("seed %d workers=%d: harness error: %v", seed, workers, err)
	}
	if r.report().Failed() {
		failArtifact(r)
		t.Errorf("seed %d workers=%d: invariant violation — replay with: go test ./internal/simtest -seed %d -run %s\n%s",
			seed, workers, seed, t.Name(), r)
	}
	return r
}

// parity runs seed once per entry of workers and demands one digest
// bundle from all of them — scenario digest, event schedule, telemetry
// registry, flight recorder and JSON snapshot, compared whole. Any
// sharded worker counts must agree (a divergence is a synchronization
// bug: a message delivered across a horizon, a racy RNG draw, state
// shared between domains); a repeated worker count is the replay check.
func parity[R regime](t *testing.T, seed int64, workers []int, fn func(seed int64, workers int) (R, error)) []R {
	t.Helper()
	var out []R
	for _, w := range workers {
		r := run(t, seed, w, fn)
		if len(out) > 0 {
			a, b := out[0].report(), r.report()
			if a.Digests != b.Digests {
				failArtifact(r)
				t.Errorf("seed %d: digest bundle of workers=%d diverged from workers=%d — replay with: go test ./internal/simtest -seed %d -run %s\n"+
					"  digest %016x vs %016x, schedule %016x vs %016x, telemetry %016x vs %016x, flight %016x vs %016x, snapshot equal=%v",
					seed, b.Workers, a.Workers, seed, t.Name(), a.Digest, b.Digest, a.ScheduleDigest, b.ScheduleDigest,
					a.TelemetryDigest, b.TelemetryDigest, a.FlightDigest, b.FlightDigest, a.Telemetry == b.Telemetry)
			}
		}
		out = append(out, r)
	}
	return out
}

// installLoopForTest aims nodes a and b at each other for dst: a
// two-node forwarding loop injected straight into the FIBs, bypassing
// the control plane, so the loop walker has something real to catch.
func installLoopForTest(sc *scenario, a, b int, dst netip.Addr) {
	pfx := netip.PrefixFrom(dst, 32)
	sc.vnode[a].FIB.Add(fib.Route{
		Prefix: pfx, NextHop: sc.vnode[b].Interfaces()[0].Addr,
		OutPort: outPortEncap, Metric: 1, Owner: "mutation", Proto: "static",
	})
	sc.vnode[b].FIB.Add(fib.Route{
		Prefix: pfx, NextHop: sc.vnode[a].Interfaces()[0].Addr,
		OutPort: outPortEncap, Metric: 1, Owner: "mutation", Proto: "static",
	})
}
