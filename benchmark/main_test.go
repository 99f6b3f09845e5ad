package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"vini/internal/packet"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks the metric names against the benchmark
// contract and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || !unitName.MatchString(m.unit) {
			t.Errorf("bad metric name or unit %q %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	same := func(kind string, decl []struct{ Name, Unit string }, code []metricDef) {
		if len(decl) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", kind, len(decl), len(code))
			return
		}
		for i := range decl {
			if decl[i].Name != code[i].name || decl[i].Unit != code[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s/%s, benchmark %s/%s",
					kind, i, decl[i].Name, decl[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// smoke runs one iteration of wl, after the set-up-only ones of an
// untraced run, and returns its result and the iterations it should
// have attempted.
func smoke(t *testing.T, wl string, trace bool, base iterOptions) (result, int) {
	t.Helper()
	w, ok := lookupWorkload(wl)
	if !ok {
		t.Fatalf("no workload %s", wl)
	}
	if base.seed == 0 {
		base.seed = 1
	}
	res, err := measure(logWriter{t}, w, options{workload: wl, seed: base.seed, seconds: 1e-3,
		trace: trace, outDir: t.TempDir()}, base)
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		// An untraced warm-up, an untraced reference, one traced iteration.
		return res, 3
	}
	return res, 1 + w.setupReps
}

// logWriter sends the benchmark's report lines to the test log.
type logWriter struct{ t *testing.T }

func (l logWriter) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func TestSmoke(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			if wl == "scale-flaps" && testing.Short() {
				t.Skip("about 10 s per iteration")
			}
			res, attempted := smoke(t, wl, false, iterOptions{wantDigest: new(uint64)})
			if !res.Correct || res.Attempted != attempted || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; v <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	res, attempted := smoke(t, "iias-tcp", true, iterOptions{})
	if !res.Correct || res.Attempted != attempted {
		t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"sim.events", "click.forward_ns", "fib.lookup_ns", "fib.miss_lookup_ns", "cpu.sim", "trace.spans"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["packet.in_flight_after_close"].Value; v != 0 {
		t.Errorf("packet.in_flight_after_close = %g", v)
	}
}

// TestOutputChecksHaveTeeth feeds each output check a wrong
// expectation, or leaks a packet, and requires the run to report the
// iteration as failed.
func TestOutputChecksHaveTeeth(t *testing.T) {
	wrong := uint64(0x1234)
	var leaked *packet.Packet
	defer func() {
		if leaked != nil {
			leaked.Release()
		}
	}()
	cases := []struct {
		name, workload string
		base           iterOptions
	}{
		{"goodput band", "iias-tcp", iterOptions{mbpsBand: [2]float64{500, 900}}},
		{"schedule digest", "abilene-failover", iterOptions{wantDigest: &wrong}},
		{"packet leak", "iias-tcp", iterOptions{afterRun: func() { leaked = packet.Get() }}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, attempted := smoke(t, c.workload, false, c.base)
			if res.Correct || res.Failed != 1 || res.Attempted != attempted {
				t.Fatalf("wrong expectation not reported: correct=%v attempted=%d failed=%d",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestParseRawProfile checks leaf attribution, inlined frames, and
// that a sample under a GC worker counts as GC wherever its leaf is.
func TestParseRawProfile(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          1   10000000: 1 2 
          2   20000000: 3 4 
Locations
     1: 0x10 M=1 vini/internal/fib.(*Cache).Lookup /x/fib/cache.go:40:0 s=0
             vini/internal/click.(*lookupIPRoute).Push /x/click/elements.go:447:0 s=0
     2: 0x20 M=1 vini/internal/sim.(*Domain).step /x/sim/domain.go:336:0 s=0
     3: 0x30 M=1 runtime.scanobject /go/runtime/mgcmark.go:1400:0 s=0
     4: 0x40 M=1 runtime.gcBgMarkWorker /go/runtime/mgc.go:1400:0 s=0
Mappings
1: 0x0/0x100/0x0 vini-bench  [FN]
`
	got, err := parseRawProfile(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := []rawSample{
		{value: 10000000, leaf: "vini/internal/fib.(*Cache).Lookup"},
		{value: 20000000, leaf: "runtime.scanobject", gc: true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestLeastStolen checks which iterations the end-to-end medians use:
// every quiet one, and at least the least-stolen half.
func TestLeastStolen(t *testing.T) {
	cases := []struct {
		name          string
		shares, wants []float64
	}{
		{"all quiet", []float64{0.02, 0.01, 0.05}, []float64{0.01, 0.02, 0.05}},
		{"one stolen", []float64{0.02, 0.25, 0.01}, []float64{0.01, 0.02}},
		{"all stolen", []float64{0.3, 0.2, 0.25, 0.15}, []float64{0.15, 0.2}},
		{"one iteration", []float64{0.35}, []float64{0.35}},
	}
	for _, c := range cases {
		var ss []*sample
		for _, v := range c.shares {
			ss = append(ss, &sample{wall: 1, stealS: v * float64(runtime.NumCPU())})
		}
		var got []string
		for _, s := range leastStolen(ss) {
			got = append(got, fmt.Sprintf("%.2f", s.stealShare()))
		}
		var want []string
		for _, v := range c.wants {
			want = append(want, fmt.Sprintf("%.2f", v))
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: used shares %v, want %v", c.name, got, want)
		}
	}
}
