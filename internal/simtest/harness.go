package simtest

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/sim"
)

// Digests is the comparable fingerprint of one run. Two runs replay
// exactly, or agree across worker counts, iff their Digests are ==.
type Digests struct {
	// Digest folds every deterministic observation the regime makes
	// (quiescent FIB fingerprints, per-round outcomes, violations).
	Digest uint64
	// ScheduleDigest is the executor's fired-event digest: a fold over
	// every fired event's (timestamp, domain, sequence) merge key. Two
	// sharded runs match iff they executed the identical event
	// schedule — the strongest replay check we have.
	ScheduleDigest uint64
	// TelemetryDigest folds the metrics registry (labels and values in
	// registration order); FlightDigest folds the merged flight-recorder
	// stream.
	TelemetryDigest uint64
	FlightDigest    uint64
	// Telemetry is the full JSON snapshot, compared byte-for-byte.
	Telemetry string
}

// Report is the part of every regime's result the harness fills in.
// Each regime's result type embeds it, so these fields and Failed are
// reachable directly on the result.
type Report struct {
	Seed    int64
	Workers int
	// Log is the human-readable run narrative (not digested).
	Log        []string
	Violations []string
	// Events counts fired executor events end to end.
	Events uint64
	Digests
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// render appends the log and the violations to a regime's replay
// header: the text a failing test prints so the run can be reproduced
// from the seed alone.
func (r *Report) render(header string) string {
	s := header
	for _, l := range r.Log {
		s += "\n  " + l
	}
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}

// world is the harness state every regime drives: the infrastructure on
// the chosen engine, the scenario RNG, the report being filled, the
// scenario digest, and the packet-pool baseline.
type world struct {
	vini     *core.VINI
	loop     *sim.Loop
	rng      *sim.RNG
	rep      *Report
	digest   hash.Hash64
	baseline packet.PoolStats
}

// newWorld builds an empty infrastructure. Workers = 0 runs the classic
// single-timeline loop; >= 1 shards every node into its own time domain
// executed by that many workers. Telemetry runs in every regime so the
// parity property also pins the metrics registry and flight recorder.
//
// The conservation baseline is taken here, before the loop ever runs:
// at this instant the world has no packet in flight, and deltas from
// here cancel out whatever earlier worlds in the same process left
// behind.
func newWorld(seed int64, workers int, rep *Report) *world {
	v := core.New(seed)
	if workers > 0 {
		v = core.NewParallel(seed, workers)
	}
	v.EnableTelemetry()
	rep.Seed, rep.Workers = seed, workers
	return &world{vini: v, loop: v.Loop(), rng: sim.NewRNG(seed), rep: rep,
		digest: fnv.New64a(), baseline: packet.Stats()}
}

// note appends one line to the run log.
func (w *world) note(format string, args ...any) {
	w.rep.Log = append(w.rep.Log, fmt.Sprintf(format, args...))
}

// violate records one invariant violation.
func (w *world) violate(format string, args ...any) {
	w.rep.Violations = append(w.rep.Violations, fmt.Sprintf(format, args...))
}

// fold hashes one observation line into the scenario digest.
func (w *world) fold(format string, args ...any) {
	fmt.Fprintf(w.digest, format+"\n", args...)
}

// quiesce advances the world until fingerprint stays unchanged for
// window consecutive 1s steps and returns the virtual time that took.
// Reaching max first is a violation, recorded here so no caller can
// drop it.
func (w *world) quiesce(phase string, fingerprint func() uint64, max time.Duration, window int) (time.Duration, bool) {
	took, ok := w.loop.RunUntilStable(time.Second, max, window, fingerprint)
	if !ok {
		w.violate("%s: FIBs did not quiesce within %v", phase, max)
	}
	return took, ok
}

// settle checks packet conservation: relative to the baseline, every
// pooled packet obtained has been released or escaped. Control traffic
// flows forever, so at any single instant a handful of packets may
// legitimately be mid-flight; a leak, by contrast, never drains.
// Sampling the ledger at closely spaced instants separates the two: a
// clean world hits a zero-in-flight instant almost immediately.
func (w *world) settle(where string) {
	for i := 0; i < 40 && packet.Stats().Sub(w.baseline).InFlight() != 0; i++ {
		w.vini.Run(w.loop.Now() + 50*time.Millisecond)
	}
	d := packet.Stats().Sub(w.baseline)
	if n := d.InFlight(); n != 0 {
		w.violate("packet conservation at %s: %d pooled packets unaccounted (gets=%d releases=%d escapes=%d)",
			where, n, d.Gets, d.Releases, d.Escapes)
	}
}

// teardown audits a world whose workloads and slices are all gone: the
// pool ledger must balance and no orphaned timer may remain in any
// domain heap.
func (w *world) teardown(where string) {
	w.settle(where)
	if p := w.loop.Pending(); p != 0 {
		w.violate("%s: %d events still pending (orphaned timers)", where, p)
	}
}

// finish folds the violations into the scenario digest and fills in
// the digest bundle and the event count. A telemetry snapshot that
// fails to encode is a harness error: two empty snapshots would pass
// any parity check.
func (w *world) finish() error {
	for _, v := range w.rep.Violations {
		w.fold("violation %s", v)
	}
	x, tel := w.vini.Executor(), w.vini.Telemetry()
	w.rep.Events = x.TotalFired()
	w.rep.Digest = w.digest.Sum64()
	w.rep.ScheduleDigest = x.ScheduleDigest()
	w.rep.TelemetryDigest = tel.Reg.Digest()
	w.rep.FlightDigest = tel.Rec.Digest()
	js, err := tel.SnapshotJSON()
	if err != nil {
		return fmt.Errorf("simtest: telemetry snapshot: %w", err)
	}
	w.rep.Telemetry = string(js)
	return nil
}
