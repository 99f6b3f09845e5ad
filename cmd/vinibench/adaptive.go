package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vini/internal/simtest"
)

// adaptivePhaseRow is one quiescent measurement point in the report:
// the controller's estimate beside the true available bandwidth.
type adaptivePhaseRow struct {
	Name         string  `json:"name"`
	AvailBps     float64 `json:"avail_bps"`
	EstimateBps  float64 `json:"estimate_bps"`
	DeliveredBps float64 `json:"delivered_bps"`
	RatioPct     float64 `json:"estimate_over_avail_pct"`
}

// adaptiveRow is one engine leg of the adaptive benchmark.
type adaptiveRow struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	TracePoints     int     `json:"controller_updates"`
	Digest          string  `json:"digest"`
	Schedule        string  `json:"schedule_digest"`
	TelemetryDigest string  `json:"telemetry_digest"`
	FlightDigest    string  `json:"flight_digest"`
	WallSeconds     float64 `json:"wall_seconds"`
}

type adaptiveReport struct {
	GoVersion          string             `json:"go_version"`
	NumCPU             int                `json:"num_cpu"`
	GOMAXPROCS         int                `json:"gomaxprocs"`
	Seed               int64              `json:"seed"`
	BottleneckBps      float64            `json:"bottleneck_bps"`
	AltBps             float64            `json:"alt_path_bps"`
	CrossBps           float64            `json:"cross_traffic_bps"`
	Phases             []adaptivePhaseRow `json:"phases"`
	Rows               []adaptiveRow      `json:"rows"`
	DigestsAgree       bool               `json:"sharded_digests_agree"`
	ReplayDigestsMatch bool               `json:"replay_digests_match"`
	Note               string             `json:"note,omitempty"`
}

// adaptiveExp drives the delay-gradient adaptive sender through the
// full simtest scenario — alone, against CBR cross-traffic, across
// overlay Pause/Resume, and through a substrate reroute — on 1, 2 and 4
// workers. Every leg must produce byte-identical digests, a same-seed
// 1-worker rerun must reproduce its digests exactly (the replay
// cross-check every benchmark here applies), and every leg must satisfy
// the convergence and teardown invariants. The per-phase estimate-vs-actual table is
// the paper-style readout; BENCH_adaptive.json is the committed
// artifact the CI baseline gate compares against.
func adaptiveExp() error {
	rep := adaptiveReport{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seedFlag,
		DigestsAgree: true,
	}
	var first *simtest.AdaptiveResult
	const maxW = 4
	fmt.Printf("%-14s %12s %14s %10s %8s\n", "engine", "events", "events/sec", "updates", "wall")
	for _, w := range []int{1, 2, maxW} {
		start := time.Now()
		r, err := simtest.RunAdaptive(simtest.AdaptiveOptions{Seed: *seedFlag, Workers: w})
		if err != nil {
			return err
		}
		if r.Failed() {
			fmt.Printf("%s\n", r)
			return fmt.Errorf("adaptive: workers=%d: %d invariant violations", w, len(r.Violations))
		}
		row := adaptiveRow{
			Name: fmt.Sprintf("domains x%d", w), Workers: w, Gomaxprocs: runtime.GOMAXPROCS(0),
			Events: r.Events, EventsPerSec: float64(r.Events) / r.RunSeconds,
			TracePoints:     r.TracePoints,
			Digest:          fmt.Sprintf("%016x", r.Digest),
			Schedule:        fmt.Sprintf("%016x", r.ScheduleDigest),
			TelemetryDigest: fmt.Sprintf("%016x", r.TelemetryDigest),
			FlightDigest:    fmt.Sprintf("%016x", r.FlightDigest),
			WallSeconds:     time.Since(start).Seconds(),
		}
		fmt.Printf("%-14s %12d %14.0f %10d %7.2fs\n",
			row.Name, row.Events, row.EventsPerSec, row.TracePoints, row.WallSeconds)
		if first == nil {
			first = r
			rep.BottleneckBps, rep.AltBps, rep.CrossBps = r.BottleneckBps, r.AltBps, r.CrossBps
			for _, p := range r.Phases {
				rep.Phases = append(rep.Phases, adaptivePhaseRow{
					Name: p.Name, AvailBps: p.AvailBps,
					EstimateBps: p.EstimateBps, DeliveredBps: p.DeliveredBps,
					RatioPct: 100 * p.EstimateBps / p.AvailBps,
				})
			}
		} else if r.Digest != first.Digest || r.ScheduleDigest != first.ScheduleDigest {
			rep.DigestsAgree = false
		}
		rep.Rows = append(rep.Rows, row)
	}
	// Replay cross-check: the same seed run again on one worker must
	// reproduce every digest byte-for-byte.
	replay, err := simtest.RunAdaptive(simtest.AdaptiveOptions{Seed: *seedFlag, Workers: 1})
	if err != nil {
		return err
	}
	rep.ReplayDigestsMatch = replay.Digest == first.Digest &&
		replay.ScheduleDigest == first.ScheduleDigest &&
		replay.TelemetryDigest == first.TelemetryDigest &&
		replay.FlightDigest == first.FlightDigest

	fmt.Printf("\nbottleneck %.2f Mb/s, alternate path %.2f Mb/s, CBR cross-traffic %.2f Mb/s\n",
		rep.BottleneckBps/1e6, rep.AltBps/1e6, rep.CrossBps/1e6)
	fmt.Printf("%-10s %12s %14s %14s %8s\n", "phase", "avail", "estimate", "delivered", "est/avail")
	for _, p := range rep.Phases {
		fmt.Printf("%-10s %9.0f kb %11.0f kb %11.0f kb %7.0f%%\n",
			p.Name, p.AvailBps/1e3, p.EstimateBps/1e3, p.DeliveredBps/1e3, p.RatioPct)
	}
	if rep.DigestsAgree {
		fmt.Printf("digest %016x / schedule %016x identical across 1/2/4 workers\n",
			first.Digest, first.ScheduleDigest)
	} else {
		fmt.Println("DETERMINISM VIOLATION: digests diverged across worker counts")
	}
	if rep.ReplayDigestsMatch {
		fmt.Println("replay cross-check: second seeded 1-worker run reproduced every digest")
	} else {
		rep.Note = "replay digest mismatch: seeded reruns diverged"
		fmt.Println("WARNING: " + rep.Note)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_adaptive.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_adaptive.json")
	switch {
	case !rep.DigestsAgree:
		return fmt.Errorf("adaptive: digests diverged across worker counts")
	case !rep.ReplayDigestsMatch:
		return fmt.Errorf("adaptive: replay digests diverged")
	}
	if *baselineFlag != "" {
		if err := checkBaseline("adaptive", *baselineFlag, rep, maxW); err != nil {
			return err
		}
	}
	return nil
}
