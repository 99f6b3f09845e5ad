// Command vini-bench is the repository benchmark: it runs named VINI
// workloads through the public Go API of the simulator, times every
// call into a layer from outside, checks each run's simulated output,
// and prints one JSON result line. Run it from the repository root:
//
//	bash benchmark/run.sh --workload iias-tcp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// --workload all runs every workload in one process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options selects one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's spans and CPU profiles.
	outDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory for spans and profiles")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "vini-bench:", err)
		os.Exit(1)
	}
}

// run executes the selected workloads and writes the report, ending
// with the result line.
func run(w io.Writer, o options) error {
	var names []string
	if o.workload == "all" {
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	} else if _, ok := lookupWorkload(o.workload); ok {
		names = []string{o.workload}
	} else {
		return fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		wl, _ := lookupWorkload(name)
		res, err := measure(w, wl, o, iterOptions{seed: o.seed, wantDigest: new(uint64)})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(w, "result %s %s\n", name, line)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for k, m := range res.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// measure runs one workload for the time budget and reduces its
// iterations to the reported metrics: medians of the per-iteration
// values, the end-to-end ones over the least-stolen iterations
// (leastStolen). A traced run makes an untraced warm-up iteration, then
// alternates untraced and traced ones, so that the tracing overhead
// compares warm iterations run under the same host conditions; it ends
// with the layer probes. base carries the iterations' seed and output
// expectations.
func measure(w io.Writer, wl workload, o options, base iterOptions) (result, error) {
	host := readHost(o.seed)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	traced := base
	if o.trace {
		traced.tr, traced.profileDir = newTracer(), o.outDir
	}
	setupOnly := base
	setupOnly.setupOnly = true
	// measured holds the iterations the metrics come from: traced ones
	// in a traced run, untraced ones otherwise. setups holds the extra
	// set-ups of a workload with few, long iterations.
	var warmup, untraced, measured, setups []*sample
	// Start another iteration only while it would end no later than
	// half an iteration past the budget, so a run of long iterations
	// overshoots it by at most that much.
	for i := 0; ; i++ {
		t := time.Now()
		switch {
		case !o.trace:
			for r := 0; r < wl.setupReps; r++ {
				setups = append(setups, runIteration(w, wl, setupOnly, "set-up", len(setups)))
			}
			measured = append(measured, runIteration(w, wl, base, "untraced", i))
		case i == 0:
			warmup = append(warmup, runIteration(w, wl, base, "warm-up", i))
		case i%2 == 1:
			untraced = append(untraced, runIteration(w, wl, base, "untraced", i))
		default:
			measured = append(measured, runIteration(w, wl, traced, "traced", i))
		}
		if len(measured) > 0 && time.Now().Add(time.Since(t)/2).After(deadline) {
			break
		}
	}
	tr := traced.tr
	all := append(append(append(append([]*sample(nil), setups...), warmup...), untraced...), measured...)
	res := result{Metrics: map[string]metric{}}
	for _, s := range all {
		res.Attempted++
		if s.err != nil {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	used := leastStolen(measured)
	host.finish(start, all, measured, used)
	fmt.Fprintf(w, "host %s\n", host.json())
	if host.Noisy {
		fmt.Fprintf(w, "warning: %s: fewer than half the iterations lost at most %.0f%% of CPU time to steal; wall-clock figures are inflated, rerun on a quieter host\n",
			wl.name, 100*quietSteal)
	}

	if !o.trace {
		for _, m := range endToEnd {
			from := used
			if m.name == "setup_s" {
				from = leastStolen(append(append([]*sample(nil), setups...), measured...))
			}
			res.Metrics[m.name] = metric{Value: median(from, m.get), Unit: m.unit}
		}
		printMetrics(w, wl.name, res.Metrics)
		return res, nil
	}

	layers := map[string]float64{}
	keys := map[string]bool{}
	for _, s := range measured {
		for k := range s.layers {
			keys[k] = true
		}
	}
	for k := range keys {
		layers[k] = median(measured, func(s *sample) float64 { return s.layers[k] })
	}
	for k, v := range runProbes(o.seed, tr) {
		layers[k] = v
	}
	cpu, err := attributeCPU(fmt.Sprintf("%s/cpu-%s-seed%d.raw", o.outDir, wl.name, o.seed), measured)
	if err != nil {
		return res, err
	}
	for k, v := range cpu {
		layers[k] = v
	}
	runS := func(s *sample) float64 { return s.run }
	if ref := median(untraced, runS); ref > 0 {
		layers["trace.overhead_frac"] = median(measured, runS)/ref - 1
	}
	layers["host.steal_s"] = host.StealS
	spans := fmt.Sprintf("%s/spans-%s-seed%d.json", o.outDir, wl.name, o.seed)
	if err := tr.write(spans); err != nil {
		return res, err
	}
	layers["trace.spans"] = float64(len(tr.spans))
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return res, fmt.Errorf("traced run produced no %s", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	printMetrics(w, wl.name, res.Metrics)
	fmt.Fprintf(w, "spans written to %s (wall-clock, outside every digest)\n", spans)
	return res, nil
}

// quietSteal is the largest share of an iteration's CPU time that may
// be stolen by the host for the iteration to count as quiet. Wall time
// grows two to three times as fast as the stolen share, because the
// collector's stop-the-world phases and the executor's cross-worker
// synchronisation wait for a descheduled vCPU.
const quietSteal = 0.05

// leastStolen returns the iterations the end-to-end medians come from:
// every quiet one, and at least the least-stolen half, so a run that
// was stolen from only in part reports its quiet iterations.
func leastStolen(ss []*sample) []*sample {
	sorted := append([]*sample(nil), ss...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].stealShare() < sorted[j].stealShare() })
	n := (len(sorted) + 1) / 2
	for n < len(sorted) && sorted[n].stealShare() <= quietSteal {
		n++
	}
	return sorted[:n]
}

// runIteration runs one iteration with a clean heap and logs it under
// mode, so a noisy iteration shows in the output instead of vanishing
// into the median.
func runIteration(w io.Writer, wl workload, o iterOptions, mode string, i int) *sample {
	tr := o.tr
	runtime.GC()
	steal0 := readSteal()
	start := time.Now()
	end := tr.span(fmt.Sprintf("iteration %d", i))
	s, err := wl.run(o)
	end()
	if s == nil {
		s = &sample{}
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.wall = time.Since(start).Seconds()
	s.stealS = readSteal() - steal0
	status := "ok"
	if s.err != nil {
		status = "FAILED: " + s.err.Error()
	}
	fmt.Fprintf(w, "iter %s %s #%d setup_s=%.4f run_s=%.4f run_cpu_s=%.4f peak_heap_mb=%.2f allocs_per_pkt=%.2f pkts=%d steal_s=%.2f steal_share=%.3f %s\n",
		wl.name, mode, i, s.setup, s.run, s.cpu, s.peakHeap/1e6, s.allocsPerPkt(), s.pkts, s.stealS, s.stealShare(), status)
	return s
}

func printMetrics(w io.Writer, name string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %s %-28s %14.6g %s\n", name, k, ms[k].Value, ms[k].Unit)
	}
}

// median returns the median of get over the samples.
func median(ss []*sample, get func(*sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = get(s)
	}
	return medianOf(vs)
}

// medianOf returns the median of vs, reordering it; 0 if it is empty.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 1 {
		return vs[n/2]
	} else {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
}
