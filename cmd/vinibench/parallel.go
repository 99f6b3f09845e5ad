package main

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// parallelRow is one engine configuration's measurement in the
// BENCH_parallel.json report.
type parallelRow struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	WallSeconds float64 `json:"wall_seconds"`
	// Events counts fired events. Since cross-domain hand-offs became
	// typed deliveries (no wrapper events on either path), a fired
	// event means the same thing in classic and sharded mode: one
	// semantic action. Residual differences between the modes are real
	// workload divergence — the engines fork RNG streams differently
	// and are separate deterministic baselines — not accounting noise.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Deliveries is reported separately: cross-domain typed messages
	// delivered into a destination heap (0 in classic mode, where every
	// hop is a local event).
	Deliveries uint64 `json:"deliveries"`
	// Rounds counts coordinator quiescence epochs (classic: events).
	Rounds    uint64 `json:"rounds"`
	Windows   uint64 `json:"windows"`
	Fallbacks uint64 `json:"fallbacks"`
	Trains    uint64 `json:"trains"`
	TrainMsgs uint64 `json:"train_msgs"`
	// Steals is wall-clock/interleaving dependent (diagnostic only).
	Steals         uint64 `json:"steals"`
	ScheduleDigest string `json:"schedule_digest"`
	// PerDomain maps domain label -> fired event count; the full
	// counter set prints under -v.
	PerDomain map[string]uint64 `json:"per_domain_fired,omitempty"`
}

type parallelReport struct {
	Topology     string        `json:"topology"`
	Slices       int           `json:"slices"`
	VirtualSecs  float64       `json:"virtual_seconds"`
	GoVersion    string        `json:"go_version"`
	NumCPU       int           `json:"num_cpu"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Rows         []parallelRow `json:"rows"`
	Speedup      float64       `json:"speedup_4w_over_1w"`
	DigestsAgree bool          `json:"sharded_digests_agree"`
	Note         string        `json:"note,omitempty"`
}

// cbrPairs are the per-slice cross-country flows; each slice gets one,
// so traffic load spreads over distinct source/sink domains.
var cbrPairs = [][2]string{
	{topology.Washington, topology.Seattle},
	{topology.NewYork, topology.LosAngeles},
	{topology.Chicago, topology.Houston},
	{topology.Atlanta, topology.Sunnyvale},
}

// buildParallelWorld assembles the benchmark scenario: the 11-PoP
// Abilene substrate (minimum link propagation delay 2.25 ms — the
// conservative executor's lookahead floor) carrying 4 IIAS slices, each
// mirroring the physical topology with its own OSPF instance and one
// cross-country UDP CBR flow. workers == 0 builds on the classic
// single-timeline loop; workers >= 1 shards each PoP into its own time
// domain.
func buildParallelWorld(seed int64, workers int) (*core.VINI, error) {
	v := core.New(seed)
	if workers > 0 {
		v = core.NewParallel(seed, workers)
	}
	g := topology.Abilene()
	for _, pop := range g.Nodes() {
		addr, _ := topology.AbilenePublicAddr(pop)
		if _, err := v.AddNode(pop, netip.MustParseAddr(addr),
			netem.PlanetLabProfile(), sched.Options{}); err != nil {
			return nil, err
		}
	}
	for _, l := range g.Links() {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B,
			Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			return nil, err
		}
	}
	v.ComputeRoutes()
	for i := 0; i < len(cbrPairs); i++ {
		s, err := v.CreateSlice(core.SliceConfig{
			Name: fmt.Sprintf("slice%d", i), CPUShare: 0.2})
		if err != nil {
			return nil, err
		}
		for _, pop := range g.Nodes() {
			if _, err := s.AddVirtualNode(pop); err != nil {
				return nil, err
			}
		}
		for _, l := range g.Links() {
			if _, err := s.ConnectVirtual(l.A, l.B, l.CostAB); err != nil {
				return nil, err
			}
		}
		s.StartOSPF(5*time.Second, 10*time.Second)
		src, _ := s.VirtualNode(cbrPairs[i][0])
		dst, _ := s.VirtualNode(cbrPairs[i][1])
		if _, err := traffic.StartUDPCBR(v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
			RateBps: 10e6, Port: uint16(5001 + i),
			SrcAddr: src.TapAddr, DstAddr: dst.TapAddr}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// runParallelBench measures one engine configuration end to end.
func runParallelBench(workers int, window time.Duration) (parallelRow, []sim.DomainStats, error) {
	name := "classic-loop"
	if workers > 0 {
		name = fmt.Sprintf("domains x%d", workers)
	}
	row := parallelRow{Name: name, Workers: workers}
	v, err := buildParallelWorld(*seedFlag, workers)
	if err != nil {
		return row, nil, err
	}
	defer v.Close()
	start := time.Now()
	v.Run(window)
	row.WallSeconds = time.Since(start).Seconds()
	x := v.Executor()
	row.Gomaxprocs = runtime.GOMAXPROCS(0)
	row.Events = x.TotalFired()
	row.EventsPerSec = float64(row.Events) / row.WallSeconds
	row.Deliveries = x.Deliveries()
	row.Rounds = x.Rounds()
	row.Windows = x.Windows()
	row.Fallbacks = x.Fallbacks()
	row.Trains, row.TrainMsgs = x.TrainStats()
	row.Steals = x.Steals()
	row.ScheduleDigest = fmt.Sprintf("%016x", x.ScheduleDigest())
	stats := x.Stats()
	if workers > 0 {
		row.PerDomain = make(map[string]uint64, len(stats))
		for _, s := range stats {
			row.PerDomain[s.Label] = s.Fired
		}
	}
	return row, stats, nil
}

// parallelExp benchmarks the sharded conservative executor against the
// classic loop on the 4-slice Abilene scenario, checks that every
// sharded worker count executes the byte-identical event schedule, and
// writes BENCH_parallel.json.
func parallelExp() error {
	window := dur(60*time.Second, 20*time.Second)
	maxW := *parallelFlag
	if maxW < 1 {
		maxW = 1
	}
	workerCounts := []int{0, 1}
	for w := 2; w <= maxW; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	fmt.Printf("4-slice Abilene (11 PoPs, min link delay 2.25ms), %v virtual time\n", window)
	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-14s %10s %12s %14s %12s %8s %10s %10s %10s\n",
		"engine", "wall", "events", "events/sec", "deliveries", "rounds", "trains", "steals", "fallbacks")
	rep := parallelReport{
		Topology: "abilene", Slices: len(cbrPairs),
		VirtualSecs: window.Seconds(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DigestsAgree: true,
	}
	var wall1, wall4 float64
	shardDigest := ""
	for _, w := range workerCounts {
		row, stats, err := runParallelBench(w, window)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %9.2fs %12d %14.0f %12d %8d %10d %10d %10d\n",
			row.Name, row.WallSeconds, row.Events, row.EventsPerSec,
			row.Deliveries, row.Rounds, row.Trains, row.Steals, row.Fallbacks)
		if *verbose && w > 0 {
			fmt.Printf("  %-14s %10s %10s %10s %10s %10s %10s %8s\n",
				"domain", "scheduled", "sent", "delivered", "fired", "cancelled", "recycled", "stalls")
			for _, s := range stats {
				fmt.Printf("  %-14s %10d %10d %10d %10d %10d %10d %8d\n",
					s.Label, s.Scheduled, s.Sent, s.Delivered, s.Fired, s.Cancelled, s.Recycled, s.Stalls)
			}
		}
		if w > 0 {
			if shardDigest == "" {
				shardDigest = row.ScheduleDigest
			} else if row.ScheduleDigest != shardDigest {
				rep.DigestsAgree = false
			}
		}
		if w == 1 {
			wall1 = row.WallSeconds
		}
		if w == maxW {
			wall4 = row.WallSeconds
		}
		rep.Rows = append(rep.Rows, row)
	}
	if wall1 > 0 && wall4 > 0 {
		rep.Speedup = wall1 / wall4
		fmt.Printf("speedup (%d workers vs 1): %.2fx\n", maxW, rep.Speedup)
	}
	if !rep.DigestsAgree {
		fmt.Println("DETERMINISM VIOLATION: sharded schedule digests diverged across worker counts")
	} else {
		fmt.Printf("sharded schedule digest %s identical across all worker counts\n", shardDigest)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		rep.Note = "single-CPU host: worker goroutines time-share one core, so no " +
			"wall-clock speedup is possible here; see DESIGN.md \"Time domains & " +
			"conservative synchronization\" for the multi-core profile"
		fmt.Println("note: " + rep.Note)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_parallel.json")
	if !rep.DigestsAgree {
		return fmt.Errorf("parallel: schedule digests diverged across worker counts")
	}
	if *baselineFlag != "" {
		if err := checkBaseline("parallel", *baselineFlag, rep, maxW); err != nil {
			return err
		}
	}
	return nil
}

// gateReport is what the baseline gate reads from any BENCH_*.json
// report: the fields that identify its scenario and, per row, the
// engine and its throughput. Every report names these fields alike;
// one a report lacks reads as zero on both sides.
type gateReport struct {
	Slices int       `json:"slices"`
	Nodes  int       `json:"nodes"`
	Seed   int64     `json:"seed"`
	Rows   []gateRow `json:"rows"`
}

type gateRow struct {
	Workers      int     `json:"workers"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// checkBaseline compares the max-worker leg's throughput against a
// committed prior report of experiment exp and fails on a regression of
// more than 15%. The committed baseline records whatever host class
// generated it, so the gate is a floor, not a race: a faster runner
// passes trivially, while dropping 15% below even the baseline host
// signals a real regression. A baseline of a different scenario (slice
// or node count, seed) or without a max-worker row is skipped.
func checkBaseline(exp, path string, rep any, maxW int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s: baseline: %w", exp, err)
	}
	var cur, base gateReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: baseline %s: %w", exp, path, err)
	}
	js, err := json.Marshal(rep)
	if err == nil {
		err = json.Unmarshal(js, &cur)
	}
	if err != nil {
		return fmt.Errorf("%s: report: %w", exp, err)
	}
	pick := func(rows []gateRow) *gateRow {
		for i := range rows {
			if rows[i].Workers == maxW {
				return &rows[i]
			}
		}
		return nil
	}
	c, p := pick(cur.Rows), pick(base.Rows)
	if c == nil || p == nil || p.EventsPerSec <= 0 ||
		base.Slices != cur.Slices || base.Nodes != cur.Nodes || base.Seed != cur.Seed {
		fmt.Printf("baseline %s has no comparable %d-worker row; skipping throughput gate\n", path, maxW)
		return nil
	}
	ratio := c.EventsPerSec / p.EventsPerSec
	fmt.Printf("baseline gate: %d-worker %.0f events/sec vs baseline %.0f (%.2fx, floor 0.85x; baseline host GOMAXPROCS=%d, this host %d)\n",
		maxW, c.EventsPerSec, p.EventsPerSec, ratio, p.Gomaxprocs, c.Gomaxprocs)
	if ratio < 0.85 {
		return fmt.Errorf("%s: %d-worker events/sec regressed %.0f%% below baseline %s",
			exp, maxW, (1-ratio)*100, path)
	}
	return nil
}
