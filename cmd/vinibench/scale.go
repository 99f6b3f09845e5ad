package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"vini/internal/simtest"
)

// scaleRow is one engine configuration's measurement in the
// BENCH_scale.json report.
type scaleRow struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	BuildSeconds float64 `json:"build_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Sent         uint64  `json:"sent"`
	Delivered    uint64  `json:"delivered"`
	Digest       string  `json:"digest"`
	Schedule     string  `json:"schedule_digest"`
}

type scaleReport struct {
	Topology   string     `json:"topology"`
	Nodes      int        `json:"nodes"`
	Links      int        `json:"links"`
	Slices     int        `json:"slices"`
	VNodes     int        `json:"vnodes"`
	Flows      int        `json:"flows"`
	OfferedBps float64    `json:"offered_bps"`
	GoVersion  string     `json:"go_version"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []scaleRow `json:"rows"`
	// DigestsAgree reports whether every sharded worker count produced
	// byte-identical scenario and schedule digests.
	DigestsAgree bool   `json:"sharded_digests_agree"`
	Note         string `json:"note,omitempty"`
}

// scaleExp runs the scale-regime scenario — hundreds of slices on a
// REPETITA topology, far past the old 126-slice ceiling — across the
// classic loop and 1/2/4-worker sharded engines, checks digest parity,
// and writes BENCH_scale.json. External REPETITA files plug in via
// -topo/-demands; otherwise the pinned synthetic topology is used.
func scaleExp() error {
	opts := simtest.ScaleOptions{
		Seed:   *seedFlag,
		Nodes:  *scaleNodes,
		Slices: count(*scaleSlices, 150),
	}
	if *topoFlag != "" {
		g, err := os.ReadFile(*topoFlag)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		opts.GraphText = string(g)
		if *demandsFlag == "" {
			return fmt.Errorf("scale: -topo requires -demands")
		}
		d, err := os.ReadFile(*demandsFlag)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		opts.DemandsText = string(d)
	}
	maxW := *parallelFlag
	if maxW < 1 {
		maxW = 1
	}
	workerCounts := []int{0, 1}
	for w := 2; w <= maxW; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	rep := scaleReport{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DigestsAgree: true,
		Topology:     "synthetic",
	}
	if *topoFlag != "" {
		rep.Topology = *topoFlag
	}
	fmt.Printf("scale regime: %d slices, seed %d\n", opts.Slices, opts.Seed)
	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-14s %8s %8s %12s %14s %10s %12s\n",
		"engine", "build", "run", "events", "events/sec", "sent", "delivered")
	shardDigest, shardSchedule := "", ""
	for _, w := range workerCounts {
		o := opts
		o.Workers = w
		r, err := simtest.RunScale(o)
		if err != nil {
			return fmt.Errorf("scale: workers=%d: %w", w, err)
		}
		if r.Failed() {
			fmt.Printf("%s\n", r)
			return fmt.Errorf("scale: workers=%d: %d invariant violations", w, len(r.Violations))
		}
		name := "classic-loop"
		if w > 0 {
			name = fmt.Sprintf("domains x%d", w)
		}
		row := scaleRow{
			Name: name, Workers: w, Gomaxprocs: runtime.GOMAXPROCS(0),
			BuildSeconds: r.BuildSeconds, RunSeconds: r.RunSeconds,
			Events: r.Events, EventsPerSec: float64(r.Events) / r.RunSeconds,
			Sent: r.Sent, Delivered: r.Delivered,
			Digest:   fmt.Sprintf("%016x", r.Digest),
			Schedule: fmt.Sprintf("%016x", r.ScheduleDigest),
		}
		fmt.Printf("%-14s %7.2fs %7.2fs %12d %14.0f %10d %12d\n",
			row.Name, row.BuildSeconds, row.RunSeconds, row.Events,
			row.EventsPerSec, row.Sent, row.Delivered)
		rep.Nodes, rep.Links, rep.Slices = r.Nodes, r.Links, r.Slices
		rep.VNodes, rep.Flows, rep.OfferedBps = r.VNodes, r.Flows, r.OfferedBps
		if w > 0 {
			if shardDigest == "" {
				shardDigest, shardSchedule = row.Digest, row.Schedule
			} else if row.Digest != shardDigest || row.Schedule != shardSchedule {
				rep.DigestsAgree = false
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if !rep.DigestsAgree {
		fmt.Println("DETERMINISM VIOLATION: sharded digests diverged across worker counts")
	} else {
		fmt.Printf("sharded scenario digest %s / schedule %s identical across all worker counts\n",
			shardDigest, shardSchedule)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		rep.Note = "single-CPU host: worker goroutines time-share one core, so no " +
			"wall-clock speedup is possible here"
		fmt.Println("note: " + rep.Note)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_scale.json")
	if !rep.DigestsAgree {
		return fmt.Errorf("scale: digests diverged across worker counts")
	}
	if *baselineFlag != "" {
		if err := checkBaseline("scale", *baselineFlag, rep, maxW); err != nil {
			return err
		}
	}
	return nil
}
