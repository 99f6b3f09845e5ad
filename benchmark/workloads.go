package main

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/simtest"
	"vini/internal/telemetry"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// workload is one named scenario; run executes one iteration of it.
// The reasons for each workload are in README.md.
type workload struct {
	name string
	run  func(iterOptions) (*sample, error)
	// setupReps is how many set-up-only iterations an untraced run
	// makes before each measured one, so that a workload with few, long
	// iterations still takes setup_s as the median of several set-ups.
	setupReps int
}

// iterOptions parameterise one iteration. The zero values of the
// expectations select the workload's own output checks.
type iterOptions struct {
	seed int64
	tr   *tracer
	// profileDir, when set on a traced iteration, receives the CPU
	// profile of its measured window.
	profileDir string
	// mbpsBand overrides the iias-tcp goodput band.
	mbpsBand [2]float64
	// wantDigest is the abilene-failover schedule digest every
	// iteration must reproduce; 0 takes the first iteration's.
	wantDigest *uint64
	// afterRun runs after the measured window, before teardown.
	afterRun func()
	// setupOnly ends the iteration when its measured window would
	// open; a workload with setupReps honours it.
	setupOnly bool
}

var workloads = []workload{
	{"iias-tcp", runIIASTCP, 0},
	{"abilene-failover", runAbileneFailover, 4},
	{"scale-flaps", runScaleFlaps, 0},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

// Sizing of the measured windows, in virtual time.
const (
	iiasWindow = 2 * time.Second
	// Figure 8's schedule, relative to traffic start: fail at 10 s,
	// restore at 34 s, stop at 50 s.
	abileneFail, abileneRestore, abileneEnd = 10 * time.Second, 34 * time.Second, 50 * time.Second
	// abileneWarmup lets every slice's OSPF (5 s hello, 10 s dead)
	// form full adjacencies before traffic starts.
	abileneWarmup = 30 * time.Second
	// abileneSettle runs the idle overlay past the restore until it has
	// reconverged, outside the measured window.
	abileneSettle = 20 * time.Second
)

// iiasBand is the goodput range the repository's Table 2 shape test
// accepts for the IIAS arm (paper: 195 Mb/s; measured 184.1 Mb/s).
var iiasBand = [2]float64{120, 260}

// world wraps a VINI so that every call into a layer gets a span.
type world struct {
	v  *core.VINI
	tr *tracer
}

func newWorld(seed int64, workers int, tr *tracer) *world {
	end := tr.span("core.NewParallel")
	v := core.NewParallel(seed, workers)
	v.EnableTelemetry()
	end()
	return &world{v: v, tr: tr}
}

func (w *world) addNode(name string, addr netip.Addr, prof netem.Profile) (*netem.Node, error) {
	defer w.tr.span("core.AddNode")()
	return w.v.AddNode(name, addr, prof, sched.Options{})
}

func (w *world) addLink(cfg netem.LinkConfig) error {
	defer w.tr.span("core.AddLink")()
	_, err := w.v.AddLink(cfg)
	return err
}

func (w *world) computeRoutes() {
	defer w.tr.span("core.ComputeRoutes")()
	w.v.ComputeRoutes()
}

func (w *world) createSlice(cfg core.SliceConfig) (*core.Slice, error) {
	defer w.tr.span("core.CreateSlice")()
	return w.v.CreateSlice(cfg)
}

func (w *world) addVirtualNode(s *core.Slice, phys string) error {
	defer w.tr.span("core.AddVirtualNode")()
	_, err := s.AddVirtualNode(phys)
	return err
}

func (w *world) connect(s *core.Slice, a, b string, cost uint32) error {
	defer w.tr.span("core.ConnectVirtual")()
	_, err := s.ConnectVirtual(a, b, cost)
	return err
}

func (w *world) startOSPF(s *core.Slice, hello, dead time.Duration) {
	defer w.tr.span("core.StartOSPF")()
	s.StartOSPF(hello, dead)
}

func (w *world) run(until time.Duration) {
	defer w.tr.span("core.Run")()
	w.v.Run(until)
}

func (w *world) now() time.Duration { return w.v.Loop().Now() }

// probe is the per-layer state read at the edges of a measured window.
type probe struct {
	pool    packet.PoolStats
	fired   uint64
	windows uint64
	deliv   uint64
	trains  uint64
	steals  uint64
	park    time.Duration
	domains []uint64
	tel     map[string]uint64
}

func (w *world) probe() probe {
	x := w.v.Executor()
	p := probe{pool: packet.Stats(), fired: x.TotalFired(), windows: x.Windows(),
		deliv: x.Deliveries(), steals: x.Steals(), park: x.ParkTime(), tel: map[string]uint64{}}
	p.trains, _ = x.TrainStats()
	for _, d := range x.Stats() {
		p.domains = append(p.domains, d.Fired)
	}
	for _, m := range w.v.Telemetry().Reg.Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		var key string
		switch {
		case m.Slice == "phys" && strings.HasPrefix(m.Name, "link/") && strings.HasSuffix(m.Name, "/packets"):
			key = "link_pkts"
		case m.Slice == "phys" && strings.HasPrefix(m.Name, "link/") && strings.HasSuffix(m.Name, "/drops"):
			key = "link_drops"
		case m.Slice != "phys" && strings.HasSuffix(m.Name, "/lookups"):
			key = "lookups"
		case m.Slice != "phys" && (strings.HasSuffix(m.Name, "/noroute") || strings.HasSuffix(m.Name, "/misses")):
			key = "misses"
		default:
			continue
		}
		p.tel[key] += m.Value
	}
	return p
}

// layerDeltas turns two probes around a measured window into per-layer
// values. pkts is the application packets delivered in the window.
func layerDeltas(from, to probe, runS float64, pkts uint64, layers map[string]float64) {
	events := float64(to.fired - from.fired)
	layers["sim.events"] = events
	if runS > 0 {
		layers["sim.events_per_s"] = events / runS
	}
	if events > 0 {
		layers["sim.windows_per_event"] = float64(to.windows-from.windows) / events
	}
	layers["sim.deliveries"] = float64(to.deliv - from.deliv)
	layers["sim.trains"] = float64(to.trains - from.trains)
	layers["sim.steals"] = float64(to.steals - from.steals)
	layers["sim.park_s"] = (to.park - from.park).Seconds()
	var maxF, sum float64
	for i := range to.domains {
		d := float64(to.domains[i])
		if i < len(from.domains) {
			d -= float64(from.domains[i])
		}
		sum += d
		if d > maxF {
			maxF = d
		}
	}
	if sum > 0 {
		layers["sim.domain_imbalance"] = maxF / (sum / float64(len(to.domains)))
	}
	gets := to.pool.Gets - from.pool.Gets
	if pkts > 0 {
		layers["packet.gets_per_pkt"] = float64(gets) / float64(pkts)
	}
	if gets > 0 {
		layers["packet.escape_ratio"] = float64(to.pool.Escapes-from.pool.Escapes) / float64(gets)
	}
	layers["netem.link_pkts"] = float64(to.tel["link_pkts"] - from.tel["link_pkts"])
	layers["netem.link_drops"] = float64(to.tel["link_drops"] - from.tel["link_drops"])
	if l := to.tel["lookups"] - from.tel["lookups"]; l > 0 {
		layers["fib.cache_hit_ratio"] = 1 - float64(to.tel["misses"]-from.tel["misses"])/float64(l)
	}
}

// convergence folds the telemetry-derived convergence windows opened at
// or after t0 into installs and the longest window.
func convergence(v *core.VINI, t0 time.Duration, layers map[string]float64) {
	var installs int
	var longest time.Duration
	for _, c := range telemetry.Convergences(v.Telemetry().Rec.Events()) {
		if c.At < t0 {
			continue
		}
		installs += c.Installs
		if c.Duration > longest {
			longest = c.Duration
		}
	}
	layers["ospf.route_installs"] = float64(installs)
	layers["ospf.convergence_ms"] = float64(longest) / float64(time.Millisecond)
}

// iteration carries the bookkeeping every workload shares: the set-up
// clock, the traced layer map and CPU profile, and teardown with the
// packet-ledger check.
type iteration struct {
	o      iterOptions
	s      *sample
	w      *world
	start  hostClock
	pool0  packet.PoolStats
	mark   int
	layers map[string]float64
	prof   *profiler
}

func beginIteration(o iterOptions) *iteration {
	it := &iteration{o: o, s: &sample{}, pool0: packet.Stats(), mark: o.tr.mark()}
	if o.tr != nil {
		it.layers = zeroLayers()
	}
	it.start = readClock()
	return it
}

// zeroLayers starts every per-layer metric at 0, the value a layer the
// workload never reaches keeps.
func zeroLayers() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// openWindow ends set-up, samples the live heap, and opens the
// measured window.
func (it *iteration) openWindow() (hostClock, error) {
	it.s.setup = time.Since(it.start.wall).Seconds()
	it.sampleHeap()
	if err := it.startProfile(); err != nil {
		return hostClock{}, err
	}
	return readClock(), nil
}

// closeWindow closes the measured window and samples the live heap.
func (it *iteration) closeWindow(from hostClock) error {
	closeWindow(it.s, from, it.layers)
	if err := it.stopProfile(); err != nil {
		return err
	}
	it.sampleHeap()
	return nil
}

// startProfile starts the CPU profile of a traced window.
func (it *iteration) startProfile() error {
	if it.o.tr == nil || it.o.profileDir == "" {
		return nil
	}
	p, err := startProfile(it.o.profileDir, "cpu")
	it.prof = p
	return err
}

func (it *iteration) stopProfile() error {
	if it.prof == nil {
		return nil
	}
	name, err := it.prof.stop()
	it.prof = nil
	it.s.profile = name
	return err
}

// sampleHeap folds the live heap after a forced GC into the peak. The
// world is alive at both phase edges where it is called.
func (it *iteration) sampleHeap() {
	if h := liveHeapAfterGC(); h > it.s.peakHeap {
		it.s.peakHeap = h
	}
}

// finish tears the world down and checks that every pooled packet the
// iteration took came back: a packet still in flight after Close is a
// leak, and fails the iteration.
func (it *iteration) finish() {
	it.stopProfile()
	if it.w != nil {
		end := it.o.tr.span("core.Close")
		it.w.v.Close()
		end()
	}
	inFlight := packet.Stats().Sub(it.pool0).InFlight()
	if inFlight != 0 && it.s.err == nil {
		it.s.err = fmt.Errorf("packet ledger: %d packets in flight after Close", inFlight)
	}
	if it.layers != nil {
		tr := it.o.tr
		it.layers["packet.in_flight_after_close"] = float64(inFlight)
		it.layers["core.build_s"] = tr.sum("core.build", it.mark)
		it.layers["core.embed_s"] = tr.sum("core.embed", it.mark)
		it.layers["ospf.warmup_s"] = tr.sum("ospf.warmup", it.mark)
		it.layers["core.close_s"] = tr.sum("core.Close", it.mark)
		it.s.layers = it.layers
	}
}

// probe reads the per-layer state of a traced iteration's world; an
// untraced one skips the reads so its window holds only the workload.
func (it *iteration) probe() probe {
	if it.layers == nil {
		return probe{}
	}
	return it.w.probe()
}

func (it *iteration) fail(format string, args ...any) {
	if it.s.err == nil {
		it.s.err = fmt.Errorf(format, args...)
	}
}

// runIIASTCP is Table 2's IIAS arm: 20 Reno streams with 64 KB windows
// through the user-space Click forwarder on three DETER nodes, on one
// worker.
func runIIASTCP(o iterOptions) (*sample, error) {
	it := beginIteration(o)
	defer it.finish()
	tr := o.tr
	endBuild := tr.span("core.build")
	w := newWorld(o.seed, 1, tr)
	it.w = w
	prof := netem.DETERProfile()
	var nodes []*netem.Node
	for i, name := range []string{"src", "fwdr", "sink"} {
		n, err := w.addNode(name, netip.AddrFrom4([4]byte{192, 168, 1, byte(i + 1)}), prof)
		if err != nil {
			return it.s, err
		}
		nodes = append(nodes, n)
	}
	for _, l := range [][2]string{{"src", "fwdr"}, {"fwdr", "sink"}} {
		if err := w.addLink(netem.LinkConfig{A: l[0], B: l[1], Bandwidth: 1e9,
			Delay: 70 * time.Microsecond, Jitter: 45 * time.Microsecond}); err != nil {
			return it.s, err
		}
	}
	w.computeRoutes()
	endBuild()

	endEmbed := tr.span("core.embed")
	s, err := w.createSlice(core.SliceConfig{Name: "iias", CPUShare: 1.0})
	if err != nil {
		return it.s, err
	}
	for _, n := range []string{"src", "fwdr", "sink"} {
		if err := w.addVirtualNode(s, n); err != nil {
			return it.s, err
		}
	}
	for _, l := range [][2]string{{"src", "fwdr"}, {"fwdr", "sink"}} {
		if err := w.connect(s, l[0], l[1], 1); err != nil {
			return it.s, err
		}
	}
	w.startOSPF(s, time.Second, 3*time.Second)
	endEmbed()
	endWarm := tr.span("ospf.warmup")
	w.run(10 * time.Second)
	endWarm()

	a, _ := s.VirtualNode("src")
	b, _ := s.VirtualNode("sink")
	from, err := it.openWindow()
	if err != nil {
		return it.s, err
	}
	endWin := tr.span("window")
	p0 := it.probe()
	t0 := w.now()
	endStart := tr.span("traffic.StartIperfTCP")
	test, err := traffic.StartIperfTCP(w.v.Net, nodes[0], nodes[2], traffic.IperfTCPConfig{
		Streams: 20, Window: 64 << 10, SrcAddr: a.TapAddr, DstAddr: b.TapAddr})
	endStart()
	if err != nil {
		return it.s, err
	}
	w.run(t0 + iiasWindow)
	endStop := tr.span("traffic.Stop")
	test.Stop()
	endStop()
	var segs uint64
	for _, r := range test.Receivers() {
		segs += uint64(len(r.Arrivals))
	}
	it.s.pkts = segs
	if err := it.closeWindow(from); err != nil {
		return it.s, err
	}
	endWin()
	if it.layers != nil {
		layerDeltas(p0, it.probe(), it.s.run, segs, it.layers)
		convergence(w.v, t0, it.layers)
		if segs > 0 {
			it.layers["traffic.loss_ratio"] = float64(test.Retransmits()) / float64(segs)
		}
	}
	if o.afterRun != nil {
		o.afterRun()
	}

	band := iiasBand
	if o.mbpsBand != [2]float64{} {
		band = o.mbpsBand
	}
	if mbps := test.Mbps(); mbps < band[0] || mbps > band[1] {
		it.fail("iias-tcp goodput %.1f Mb/s outside Table 2 band [%g, %g]", mbps, band[0], band[1])
	}
	// Let the segments and ACKs still on the wire land before teardown.
	w.run(w.now() + 100*time.Millisecond)
	endClose := tr.span("traffic.Close")
	test.Close()
	endClose()
	return it.s, nil
}

// abileneFlows are the per-slice cross-country CBR flows, each at
// BENCH_parallel's 10 Mb/s: two at the smallest payload, where
// per-packet cost dominates, and two at the paper's 1430 B.
var abileneFlows = []struct {
	src, dst string
	payload  int
	rateBps  float64
}{
	{topology.Washington, topology.Seattle, 64, 10e6},
	{topology.NewYork, topology.LosAngeles, 64, 10e6},
	{topology.Chicago, topology.Houston, 1430, 10e6},
	{topology.Atlanta, topology.Sunnyvale, 1430, 10e6},
}

// runAbileneFailover runs four IIAS slices, each mirroring Abilene with
// its own OSPF, one CBR flow per slice, and fails then restores the
// Denver-Kansas City virtual link in every slice at Figure 8's offsets,
// on two workers.
func runAbileneFailover(o iterOptions) (*sample, error) {
	it := beginIteration(o)
	defer it.finish()
	tr := o.tr
	endBuild := tr.span("core.build")
	w := newWorld(o.seed, 2, tr)
	it.w = w
	g := topology.Abilene()
	for _, pop := range g.Nodes() {
		addr, _ := topology.AbilenePublicAddr(pop)
		if _, err := w.addNode(pop, netip.MustParseAddr(addr), netem.PlanetLabProfile()); err != nil {
			return it.s, err
		}
	}
	for _, l := range g.Links() {
		if err := w.addLink(netem.LinkConfig{A: l.A, B: l.B,
			Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			return it.s, err
		}
	}
	w.computeRoutes()
	endBuild()

	endEmbed := tr.span("core.embed")
	var slices []*core.Slice
	var dkc []*core.VirtualLink
	for i := range abileneFlows {
		s, err := w.createSlice(core.SliceConfig{Name: fmt.Sprintf("slice%d", i), CPUShare: 0.2})
		if err != nil {
			return it.s, err
		}
		for _, pop := range g.Nodes() {
			if err := w.addVirtualNode(s, pop); err != nil {
				return it.s, err
			}
		}
		for _, l := range g.Links() {
			if err := w.connect(s, l.A, l.B, l.CostAB); err != nil {
				return it.s, err
			}
		}
		w.startOSPF(s, 5*time.Second, 10*time.Second)
		vl, ok := s.FindVirtualLink(topology.Denver, topology.KansasCity)
		if !ok {
			return it.s, fmt.Errorf("slice %s has no Denver-Kansas City virtual link", s.Name())
		}
		slices = append(slices, s)
		dkc = append(dkc, vl)
	}
	endEmbed()
	endWarm := tr.span("ospf.warmup")
	w.run(abileneWarmup)
	endWarm()
	before := fibPrints(slices)

	from, err := it.openWindow()
	if err != nil || o.setupOnly {
		return it.s, err
	}
	endWin := tr.span("window")
	p0 := it.probe()
	t0 := w.now()
	var flows []*traffic.UDPCBR
	for i, f := range abileneFlows {
		src, _ := slices[i].VirtualNode(f.src)
		dst, _ := slices[i].VirtualNode(f.dst)
		endStart := tr.span("traffic.StartUDPCBR")
		cbr, err := traffic.StartUDPCBR(w.v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
			RateBps: f.rateBps, Payload: f.payload, Port: uint16(5001 + i),
			SrcAddr: src.TapAddr, DstAddr: dst.TapAddr})
		endStart()
		if err != nil {
			return it.s, err
		}
		flows = append(flows, cbr)
	}
	setFailed := func(v bool) {
		defer tr.span("core.VirtualLink.SetFailed")()
		for _, vl := range dkc {
			vl.SetFailed(v)
		}
	}
	w.run(t0 + abileneFail)
	setFailed(true)
	w.run(t0 + abileneRestore)
	setFailed(false)
	w.run(t0 + abileneEnd)
	var sent, recv uint64
	for _, f := range flows {
		endStop := tr.span("traffic.Stop")
		f.Stop()
		endStop()
		sent += uint64(f.Sent())
		recv += uint64(f.Received())
	}
	it.s.pkts = recv
	if err := it.closeWindow(from); err != nil {
		return it.s, err
	}
	endWin()
	if it.layers != nil {
		layerDeltas(p0, it.probe(), it.s.run, recv, it.layers)
		convergence(w.v, t0, it.layers)
		if sent > 0 {
			it.layers["traffic.loss_ratio"] = 1 - float64(recv)/float64(sent)
		}
	}
	if o.afterRun != nil {
		o.afterRun()
	}

	// Output checks: the schedule replays exactly for the seed, and
	// every slice's forwarding state returns to its pre-failure routes.
	digest := w.v.Executor().ScheduleDigest()
	if o.wantDigest != nil {
		if *o.wantDigest == 0 {
			*o.wantDigest = digest
		} else if digest != *o.wantDigest {
			it.fail("abilene-failover schedule digest %016x, want %016x for seed %d", digest, *o.wantDigest, o.seed)
		}
	}
	w.run(w.now() + abileneSettle)
	after := fibPrints(slices)
	for i := range slices {
		if after[i] != before[i] {
			it.fail("slice %s did not reconverge to its pre-failure routes after the restore", slices[i].Name())
		}
		for _, name := range slices[i].VirtualNodes() {
			vn, _ := slices[i].VirtualNode(name)
			if err := vn.RIB().Verify(); err != nil {
				it.fail("slice %s %s: RIB vs FIB: %v", slices[i].Name(), name, err)
			}
		}
	}
	if recv == 0 {
		it.fail("abilene-failover delivered no datagrams")
	}
	for _, f := range flows {
		endClose := tr.span("traffic.Close")
		f.Close()
		endClose()
	}
	return it.s, nil
}

// fibPrints fingerprints each slice's forwarding tables.
func fibPrints(slices []*core.Slice) []uint64 {
	out := make([]uint64, len(slices))
	for i, s := range slices {
		h := fnv.New64a()
		for _, name := range s.VirtualNodes() {
			vn, _ := s.VirtualNode(name)
			for _, r := range vn.FIB.Routes() {
				fmt.Fprintln(h, r.String())
			}
			h.Write([]byte{0})
		}
		out[i] = h.Sum64()
	}
	return out
}

// Scale regime sizing: 200 slices on a 64-node REPETITA graph with two
// virtual-link flaps, on two workers. scaleDemandKbps is the total
// demand, the generator's mean for 200 pairs.
const (
	scaleNodes, scaleSlices, scaleFlaps = 64, 200, 2
	scaleDemandKbps                     = 55000
)

// scaleInputs generates the seed's graph and demand matrix, then
// rescales the demand rates to a fixed total. The seed varies the graph
// and which pairs talk, not how much traffic flows; left free, the
// total swings the delivered-datagram count, and with it every
// per-packet figure, by several percent between seeds.
func scaleInputs(seed int64) (graph, demands string, err error) {
	graph, demands = topology.SynthRepetita(scaleNodes, scaleSlices, seed)
	lines := strings.Split(strings.TrimSpace(demands), "\n")
	if len(lines) < 3 {
		return "", "", fmt.Errorf("scale demands: %d lines", len(lines))
	}
	// Two header lines ("DEMANDS k", column labels), then one
	// "name src dst kbps" line per demand.
	rows := make([][]string, 0, len(lines)-2)
	var total float64
	for _, l := range lines[2:] {
		f := strings.Fields(l)
		if len(f) != 4 {
			return "", "", fmt.Errorf("scale demands: bad line %q", l)
		}
		kbps, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return "", "", fmt.Errorf("scale demands: %w", err)
		}
		total += kbps
		rows = append(rows, f)
	}
	var b strings.Builder
	b.WriteString(lines[0] + "\n" + lines[1] + "\n")
	for _, f := range rows {
		kbps, _ := strconv.ParseFloat(f[3], 64)
		fmt.Fprintf(&b, "%s %s %s %.3f\n", f[0], f[1], f[2], kbps*scaleDemandKbps/total)
	}
	return graph, b.String(), nil
}

// runScaleFlaps drives simtest.RunScale on a graph and demand matrix
// the benchmark generates from its seed (scaleInputs). The regime's own build/run
// split becomes setup_s/run_s; process CPU, allocations and the peak
// heap are taken around the whole call, the only boundary visible from
// outside.
func runScaleFlaps(o iterOptions) (*sample, error) {
	graph, demands, err := scaleInputs(o.seed)
	if err != nil {
		return nil, err
	}
	it := beginIteration(o)
	defer it.finish()
	gcWatch.reset()
	if err := it.startProfile(); err != nil {
		return it.s, err
	}
	from := readClock()
	end := o.tr.span("simtest.RunScale")
	res, err := simtest.RunScale(simtest.ScaleOptions{Seed: o.seed, Slices: scaleSlices,
		Workers: 2, Flaps: scaleFlaps, GraphText: graph, DemandsText: demands})
	end()
	closeWindow(it.s, from, it.layers)
	it.s.peakHeap = gcWatch.peak()
	if perr := it.stopProfile(); perr != nil {
		return it.s, perr
	}
	if err != nil {
		return it.s, err
	}
	call := it.s.run
	it.s.setup, it.s.run = res.BuildSeconds, res.RunSeconds
	it.s.pkts = res.Delivered
	if o.afterRun != nil {
		o.afterRun()
	}
	if res.Failed() {
		it.fail("scale-flaps: %d invariant violations, first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Sent == 0 || res.Delivered != res.Sent {
		it.fail("scale-flaps: delivered %d of %d demand datagrams", res.Delivered, res.Sent)
	}
	// The regime's own split must account for the benchmark's timing of
	// the call; only parsing and Close fall outside it.
	if sum := res.BuildSeconds + res.RunSeconds; sum > call || call-sum > 0.1*call+0.05 {
		it.fail("scale-flaps: build %.3fs + run %.3fs does not match the call's %.3fs", res.BuildSeconds, res.RunSeconds, call)
	}
	if it.layers != nil {
		it.layers["simtest.build_s"] = res.BuildSeconds
		it.layers["simtest.run_s"] = res.RunSeconds
		it.layers["sim.events"] = float64(res.Events)
		if res.RunSeconds > 0 {
			it.layers["sim.events_per_s"] = float64(res.Events) / res.RunSeconds
		}
		if res.Sent > 0 {
			it.layers["traffic.loss_ratio"] = 1 - float64(res.Delivered)/float64(res.Sent)
		}
	}
	return it.s, nil
}
