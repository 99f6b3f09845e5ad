package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one iteration's measurement.
type sample struct {
	// setup and run are wall seconds of set-up and of the measured
	// window; cpu is process user+sys seconds over the window.
	setup, run, cpu float64
	// peakHeap is the largest post-GC live heap seen, in bytes: from
	// forced GCs at the phase edges where the workload sees them,
	// otherwise from gcWatch.
	peakHeap float64
	// mallocs counts heap allocations over the window; pkts counts the
	// application packets delivered to receivers in it.
	mallocs, pkts uint64
	// wall is the iteration's wall time, teardown included; stealS is
	// the CPU time the host stole over it, summed over CPUs.
	wall, stealS float64
	// layers holds the traced iteration's per-layer values.
	layers map[string]float64
	// profile is the CPU profile of the traced window, if any.
	profile string
	// err is why the iteration failed: an error from the program, a
	// failed output check, or a reported invariant violation.
	err error
}

func (s *sample) allocsPerPkt() float64 {
	if s.pkts == 0 {
		return 0
	}
	return float64(s.mallocs) / float64(s.pkts)
}

// stealShare is the share of the iteration's CPU time, over all CPUs,
// that the host stole.
func (s *sample) stealShare() float64 {
	if s.wall <= 0 {
		return 0
	}
	return s.stealS / (s.wall * float64(runtime.NumCPU()))
}

// metricDef names a reported metric and how a sample yields it.
type metricDef struct {
	name, unit string
	get        func(*sample) float64
}

// endToEnd are the host costs a user of the simulator pays per run.
var endToEnd = []metricDef{
	{"setup_s", "s", func(s *sample) float64 { return s.setup }},
	{"run_s", "s", func(s *sample) float64 { return s.run }},
	{"run_cpu_s", "s", func(s *sample) float64 { return s.cpu }},
	{"peak_heap_mb", "MB", func(s *sample) float64 { return s.peakHeap / 1e6 }},
	{"allocs_per_pkt", "count", (*sample).allocsPerPkt},
}

// perLayer lists every metric the traced run reports. A layer a
// workload never reaches through a public call reports 0.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count"},
	{name: "sim.events_per_s", unit: "1/s"},
	{name: "sim.windows_per_event", unit: "ratio"},
	{name: "sim.deliveries", unit: "count"},
	{name: "sim.trains", unit: "count"},
	{name: "sim.steals", unit: "count"},
	{name: "sim.park_s", unit: "s"},
	{name: "sim.domain_imbalance", unit: "ratio"},
	{name: "packet.gets_per_pkt", unit: "count"},
	{name: "packet.escape_ratio", unit: "ratio"},
	{name: "packet.in_flight_after_close", unit: "count"},
	{name: "packet.build_udp_ns", unit: "ns"},
	{name: "packet.build_udp_allocs", unit: "count"},
	{name: "click.forward_ns", unit: "ns"},
	{name: "click.forward_allocs", unit: "count"},
	{name: "click.forward_ns_64b", unit: "ns"},
	{name: "click.forward_allocs_64b", unit: "count"},
	{name: "fib.lookup_ns", unit: "ns"},
	{name: "fib.lookup_allocs", unit: "count"},
	{name: "fib.miss_lookup_ns", unit: "ns"},
	{name: "fib.cache_hit_ratio", unit: "ratio"},
	{name: "netem.link_pkts", unit: "count"},
	{name: "netem.link_drops", unit: "count"},
	{name: "traffic.loss_ratio", unit: "ratio"},
	{name: "ospf.warmup_s", unit: "s"},
	{name: "ospf.route_installs", unit: "count"},
	{name: "ospf.convergence_ms", unit: "ms"},
	{name: "core.build_s", unit: "s"},
	{name: "core.embed_s", unit: "s"},
	{name: "core.close_s", unit: "s"},
	{name: "topology.shortest_paths_ns", unit: "ns"},
	{name: "topology.shortest_paths_allocs", unit: "count"},
	{name: "simtest.build_s", unit: "s"},
	{name: "simtest.run_s", unit: "s"},
	{name: "gc.cycles", unit: "count"},
	{name: "gc.cpu_frac", unit: "ratio"},
	{name: "heap.alloc_mb", unit: "MB"},
	{name: "cpu.sim", unit: "ratio"},
	{name: "cpu.netem", unit: "ratio"},
	{name: "cpu.click", unit: "ratio"},
	{name: "cpu.packet", unit: "ratio"},
	{name: "cpu.fib", unit: "ratio"},
	{name: "cpu.sched", unit: "ratio"},
	{name: "cpu.ospf", unit: "ratio"},
	{name: "cpu.tcpm", unit: "ratio"},
	{name: "cpu.traffic", unit: "ratio"},
	{name: "cpu.telemetry", unit: "ratio"},
	{name: "cpu.core", unit: "ratio"},
	{name: "cpu.simtest", unit: "ratio"},
	{name: "cpu.gc", unit: "ratio"},
	{name: "cpu.other", unit: "ratio"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "trace.spans", unit: "count"},
	{name: "host.steal_s", unit: "s"},
}

// hostClock is a point on the host's clocks and allocation counters.
type hostClock struct {
	wall    time.Time
	cpu     float64
	mallocs uint64
	alloc   uint64
	numGC   uint32
	gcCPU   float64
	allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readClock() hostClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return hostClock{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs,
		alloc: ms.TotalAlloc, numGC: ms.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(), allCPU: cpuSamples[1].Value.Float64()}
}

// processCPU returns the process's user+sys CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// closeWindow fills the window's end-to-end values into s and the
// runtime's per-layer values into layers (when traced).
func closeWindow(s *sample, from hostClock, layers map[string]float64) hostClock {
	to := readClock()
	s.run = to.wall.Sub(from.wall).Seconds()
	s.cpu = to.cpu - from.cpu
	s.mallocs = to.mallocs - from.mallocs
	if layers != nil {
		layers["gc.cycles"] = float64(to.numGC - from.numGC)
		if d := to.allCPU - from.allCPU; d > 0 {
			layers["gc.cpu_frac"] = (to.gcCPU - from.gcCPU) / d
		}
		layers["heap.alloc_mb"] = float64(to.alloc-from.alloc) / 1e6
	}
	return to
}

// liveHeapAfterGC forces a GC and returns the live heap it found. A
// background cycle's reading also counts what was allocated while it
// marked, which swings with host speed when the heap is small and the
// allocation rate high; a forced cycle at a phase edge does not.
func liveHeapAfterGC() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64())
}

// gcWatch records the largest live heap seen after any GC cycle, read
// from runtime/metrics by a finalizer that re-arms itself every cycle.
// It measures workloads whose phases run inside one opaque call.
var gcWatch = newHeapWatch()

type heapWatch struct {
	mu  sync.Mutex
	max uint64
}

type gcSentinel struct{ next *gcSentinel }

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func newHeapWatch() *heapWatch {
	h := &heapWatch{}
	var arm func(*gcSentinel)
	arm = func(s *gcSentinel) {
		h.observe()
		runtime.SetFinalizer(s, arm)
	}
	runtime.SetFinalizer(&gcSentinel{}, arm)
	return h
}

func (h *heapWatch) observe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(liveSample)
	if v := liveSample[0].Value.Uint64(); v > h.max {
		h.max = v
	}
}

func (h *heapWatch) reset() {
	h.mu.Lock()
	h.max = 0
	h.mu.Unlock()
}

func (h *heapWatch) peak() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max)
}

// hostInfo records the host noise next to every run's result.
type hostInfo struct {
	Seed       int64   `json:"seed"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	WallS      float64 `json:"wall_s"`
	StealS     float64 `json:"steal_s"`
	StealShare float64 `json:"steal_share"`
	RunSMin    float64 `json:"run_s_min"`
	RunSMax    float64 `json:"run_s_max"`
	FailedFrac float64 `json:"failed_frac"`
	// Used counts the iterations the end-to-end medians come from, and
	// Excluded the more-stolen ones left out; Noisy is set when a used
	// iteration lost more than quietSteal of its CPU time to steal.
	Used     int  `json:"used_iterations"`
	Excluded int  `json:"excluded_iterations"`
	Noisy    bool `json:"noisy"`
	steal0   float64
}

func readHost(seed int64) *hostInfo {
	return &hostInfo{Seed: seed, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), steal0: readSteal()}
}

// finish closes the record over all iterations of a run, the measured
// ones and those of them used for the end-to-end medians.
func (h *hostInfo) finish(start time.Time, ss, measured, used []*sample) {
	h.WallS = time.Since(start).Seconds()
	h.StealS = readSteal() - h.steal0
	// Steal is counted per CPU, so its share is of all CPUs' wall time.
	h.StealShare = h.StealS / (h.WallS * float64(h.NumCPU))
	failed := 0
	for _, s := range ss {
		if s.err != nil {
			failed++
		}
	}
	for i, s := range measured {
		if i == 0 || s.run < h.RunSMin {
			h.RunSMin = s.run
		}
		if s.run > h.RunSMax {
			h.RunSMax = s.run
		}
	}
	if len(ss) > 0 {
		h.FailedFrac = float64(failed) / float64(len(ss))
	}
	h.Used, h.Excluded = len(used), len(measured)-len(used)
	for _, s := range used {
		if s.stealShare() > quietSteal {
			h.Noisy = true
		}
	}
}

func (h *hostInfo) json() string {
	b, _ := json.Marshal(h)
	return string(b)
}

// readSteal returns the host's cumulative CPU steal in seconds, summed
// over CPUs, from the aggregate line of /proc/stat (0 where absent).
func readSteal() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			// Field 8 is steal, in USER_HZ ticks, which Linux fixes at 100/s.
			v, _ := strconv.ParseFloat(fields[8], 64)
			return v / 100
		}
	}
	return 0
}
