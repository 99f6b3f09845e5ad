package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends.
// A nil tracer records nothing, so untraced iterations pay only a nil
// check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// span opens a span as a child of the innermost open one and returns
// the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// sum totals the durations, in seconds, of the spans named name that
// started at or after index from.
func (t *tracer) sum(name string, from int) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// mark returns the index the next span will take.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profiler takes a CPU profile of one traced measured window.
type profiler struct {
	f *os.File
}

func startProfile(dir, name string) (*profiler, error) {
	f, err := os.CreateTemp(dir, name+"-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f: f}, nil
}

func (p *profiler) stop() (string, error) {
	pprof.StopCPUProfile()
	return p.f.Name(), p.f.Close()
}

// cpuLayers are the packages whose share of CPU samples the traced run
// reports; every other frame counts as cpu.other.
var cpuLayers = []string{"sim", "netem", "click", "packet", "fib", "sched",
	"ospf", "tcpm", "traffic", "telemetry", "core", "simtest"}

// gcFrames marks a sample as garbage collection: the background mark,
// sweep and scavenge workers, mark termination, and the mark assists
// charged to allocating goroutines.
var gcFrames = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcAssistAlloc|gcAssistAlloc1|gcMarkTermination|bgsweep|bgscavenge)$`)

var internalPkg = regexp.MustCompile(`^vini/internal/([a-z0-9]+)[.(]`)

// attributeCPU merges the traced windows' CPU profiles into merged
// with the installed `go tool pprof`, removes the window profiles, and
// attributes every sample by its leaf frame to a layer, or to cpu.gc
// when any frame is a GC worker or assist. Shares are of all samples;
// they are wall-clock observations and enter no digest.
func attributeCPU(merged string, ss []*sample) (map[string]float64, error) {
	var files []string
	for _, s := range ss {
		if s.profile != "" {
			files = append(files, s.profile)
		}
	}
	out := map[string]float64{"cpu.gc": 0, "cpu.other": 0}
	for _, l := range cpuLayers {
		out["cpu."+l] = 0
	}
	if len(files) == 0 {
		return out, nil
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-raw", "-output", merged}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	for _, f := range files {
		os.Remove(f)
	}
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	f, err := os.Open(merged)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parseRawProfile(f)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, smp := range samples {
		total += smp.value
		key := "cpu.other"
		if smp.gc {
			key = "cpu.gc"
		} else if m := internalPkg.FindStringSubmatch(smp.leaf); m != nil {
			if _, ok := out["cpu."+m[1]]; ok {
				key = "cpu." + m[1]
			}
		}
		out[key] += smp.value
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}

// rawSample is one stack of a `pprof -raw` dump: its CPU value, its
// leaf function, and whether any frame is garbage collection.
type rawSample struct {
	value float64
	leaf  string
	gc    bool
}

// parseRawProfile reads the text `go tool pprof -raw` writes: a
// "Samples:" section of "count value: loc loc ..." lines (leaf first),
// then a "Locations" section of "id: addr M=n func file:line" lines,
// where inlined frames continue on indented lines and the first listed
// function is the innermost one.
func parseRawProfile(r io.Reader) ([]rawSample, error) {
	type stack struct {
		value float64
		locs  []int
	}
	var stacks []stack
	funcs := map[int][]string{}
	section, cur := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:":
			section = "samples"
			continue
		case strings.HasPrefix(trimmed, "Locations"):
			section = "locations"
			continue
		case strings.HasPrefix(trimmed, "Mappings"):
			section = "mappings"
			continue
		}
		switch section {
		case "samples":
			vals, locs, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue
			}
			fs := strings.Fields(vals)
			if len(fs) < 2 {
				continue
			}
			v, err := strconv.ParseFloat(fs[1], 64)
			if err != nil {
				continue
			}
			st := stack{value: v}
			for _, l := range strings.Fields(locs) {
				if id, err := strconv.Atoi(l); err == nil {
					st.locs = append(st.locs, id)
				}
			}
			stacks = append(stacks, st)
		case "locations":
			fs := strings.Fields(trimmed)
			if len(fs) == 0 {
				continue
			}
			if id, ok := strings.CutSuffix(fs[0], ":"); ok {
				n, err := strconv.Atoi(id)
				if err != nil {
					continue
				}
				cur = n
				// "id: addr M=n func file:line s=n"
				if len(fs) >= 4 {
					funcs[cur] = append(funcs[cur], fs[3])
				}
			} else if len(fs) >= 1 && cur != 0 {
				// An inlined caller frame of the current location.
				funcs[cur] = append(funcs[cur], fs[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stacks) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples parsed")
	}
	out := make([]rawSample, 0, len(stacks))
	for _, st := range stacks {
		rs := rawSample{value: st.value}
		for i, loc := range st.locs {
			for j, fn := range funcs[loc] {
				if i == 0 && j == 0 {
					rs.leaf = fn
				}
				if gcFrames.MatchString(fn) {
					rs.gc = true
				}
			}
		}
		out = append(out, rs)
	}
	return out, nil
}
