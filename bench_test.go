package vini_test

// One benchmark per table and figure of the paper's evaluation
// (Section 5), each reporting the headline quantity as a custom metric
// so `go test -bench=. -benchmem` regenerates the evaluation:
//
//	BenchmarkTable2_*    Mb/s and forwarder CPU on the DETER testbed
//	BenchmarkTable3_*    ping RTT on DETER
//	BenchmarkTable4_*    Mb/s on PlanetLab (native / default share / PL-VINI)
//	BenchmarkTable5_*    ping RTT on PlanetLab
//	BenchmarkTable6_*    jitter on PlanetLab
//	BenchmarkFigure6_*   UDP loss at 45 Mb/s
//	BenchmarkFigure8     OSPF convergence (seconds of outage; RTTs)
//	BenchmarkFigure9     TCP through the failure (MB transferred)
//
// Plus microbenchmarks of the substrate hot paths.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"vini/internal/click"
	"vini/internal/experiment"
	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sim"
)

func benchThroughput(b *testing.B, fn func(seed int64) (experiment.ThroughputResult, error)) {
	b.Helper()
	var mbps, cpu float64
	for i := 0; i < b.N; i++ {
		r, err := fn(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		mbps += r.Mbps
		cpu += r.CPU
	}
	b.ReportMetric(mbps/float64(b.N), "Mb/s")
	b.ReportMetric(100*cpu/float64(b.N), "fwdrCPU%")
}

func benchPing(b *testing.B, fn func(seed int64) (experiment.PingResult, error)) {
	b.Helper()
	var avg, mdev float64
	for i := 0; i < b.N; i++ {
		r, err := fn(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		avg += r.Avg
		mdev += r.Mdev
	}
	b.ReportMetric(avg/float64(b.N), "avg-ms")
	b.ReportMetric(mdev/float64(b.N), "mdev-ms")
}

// --- Table 2: TCP throughput on DETER (paper: 940 vs 195 Mb/s) ---

func BenchmarkTable2_Network(b *testing.B) {
	benchThroughput(b, func(seed int64) (experiment.ThroughputResult, error) {
		return experiment.Table2(seed, false, 3*time.Second)
	})
}

func BenchmarkTable2_IIAS(b *testing.B) {
	benchThroughput(b, func(seed int64) (experiment.ThroughputResult, error) {
		return experiment.Table2(seed, true, 3*time.Second)
	})
}

// --- Table 3: ping on DETER (paper: 0.414 vs 0.547 ms) ---

func BenchmarkTable3_Network(b *testing.B) {
	benchPing(b, func(seed int64) (experiment.PingResult, error) {
		return experiment.Table3(seed, false, 2000)
	})
}

func BenchmarkTable3_IIAS(b *testing.B) {
	benchPing(b, func(seed int64) (experiment.PingResult, error) {
		return experiment.Table3(seed, true, 2000)
	})
}

// --- Table 4: TCP on PlanetLab (paper: 90.8 / 22.5 / 86.2 Mb/s) ---

func benchTable4(b *testing.B, mode experiment.Mode) {
	benchThroughput(b, func(seed int64) (experiment.ThroughputResult, error) {
		return experiment.Table4(seed, mode, 5*time.Second)
	})
}

func BenchmarkTable4_Network(b *testing.B)      { benchTable4(b, experiment.ModeNative) }
func BenchmarkTable4_DefaultShare(b *testing.B) { benchTable4(b, experiment.ModeDefaultShare) }
func BenchmarkTable4_PLVINI(b *testing.B)       { benchTable4(b, experiment.ModePLVINI) }

// --- Table 5: ping on PlanetLab (paper avg: 24.5 / 27.7 / 25.1 ms) ---

func benchTable5(b *testing.B, mode experiment.Mode) {
	benchPing(b, func(seed int64) (experiment.PingResult, error) {
		return experiment.Table5(seed, mode, 800)
	})
}

func BenchmarkTable5_Network(b *testing.B)      { benchTable5(b, experiment.ModeNative) }
func BenchmarkTable5_DefaultShare(b *testing.B) { benchTable5(b, experiment.ModeDefaultShare) }
func BenchmarkTable5_PLVINI(b *testing.B)       { benchTable5(b, experiment.ModePLVINI) }

// --- Table 6: jitter on PlanetLab (paper mean: 0.27 / 2.4 / 1.3 ms) ---

func benchTable6(b *testing.B, mode experiment.Mode) {
	var jitter float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table6(int64(i+1), mode)
		if err != nil {
			b.Fatal(err)
		}
		jitter += r.Mean
	}
	b.ReportMetric(jitter/float64(b.N), "jitter-ms")
}

func BenchmarkTable6_Network(b *testing.B)      { benchTable6(b, experiment.ModeNative) }
func BenchmarkTable6_DefaultShare(b *testing.B) { benchTable6(b, experiment.ModeDefaultShare) }
func BenchmarkTable6_PLVINI(b *testing.B)       { benchTable6(b, experiment.ModePLVINI) }

// --- Figure 6: loss vs rate (paper: ~14% at 45 Mb/s on default share) ---

func benchFigure6(b *testing.B, mode experiment.Mode) {
	var loss45 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Figure6(int64(i+1), mode, []float64{45}, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		loss45 += pts[0].LossPct
	}
	b.ReportMetric(loss45/float64(b.N), "loss45Mbps-%")
}

func BenchmarkFigure6_DefaultShare(b *testing.B) { benchFigure6(b, experiment.ModeDefaultShare) }
func BenchmarkFigure6_PLVINI(b *testing.B)       { benchFigure6(b, experiment.ModePLVINI) }

// --- Figure 8: OSPF convergence (paper: outage 10s->17s, 76->93 ms) ---

func BenchmarkFigure8(b *testing.B) {
	var outage, preRTT, postRTT float64
	for i := 0; i < b.N; i++ {
		e, err := experiment.NewAbilene(int64(i + 2))
		if err != nil {
			b.Fatal(err)
		}
		pts, err := e.Figure8()
		e.V.Close()
		if err != nil {
			b.Fatal(err)
		}
		firstLost, firstAfter := -1.0, -1.0
		var pre, post sim.Stats
		for _, p := range pts {
			switch {
			case p.Lost && firstLost < 0:
				firstLost = p.T
			case !p.Lost && p.T > firstLost && firstLost > 0 && firstAfter < 0:
				firstAfter = p.T
			}
			if !p.Lost && p.T < 10 {
				pre.Add(p.RTTms)
			}
			if !p.Lost && p.T > 25 && p.T < 33 {
				post.Add(p.RTTms)
			}
		}
		outage += firstAfter - firstLost
		preRTT += pre.Mean()
		postRTT += post.Mean()
	}
	b.ReportMetric(outage/float64(b.N), "outage-s")
	b.ReportMetric(preRTT/float64(b.N), "preRTT-ms")
	b.ReportMetric(postRTT/float64(b.N), "postRTT-ms")
}

// --- Figure 9: TCP across the failure (paper: stall 10-18s) ---

func BenchmarkFigure9(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		e, err := experiment.NewAbilene(int64(i + 2))
		if err != nil {
			b.Fatal(err)
		}
		arr, err := e.Figure9()
		e.V.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(arr) > 0 {
			total += arr[len(arr)-1].MB
		}
	}
	b.ReportMetric(total/float64(b.N), "MB-in-50s")
}

// --- substrate microbenchmarks ---

func BenchmarkFIBLookup(b *testing.B) {
	t := fib.New()
	for i := 0; i < 1024; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0})
		t.Add(fib.Route{Prefix: netip.PrefixFrom(a, 20)})
	}
	dst := netip.MustParseAddr("10.1.2.3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(dst)
	}
}

// BenchmarkFIBCacheLookup measures the per-consumer version-stamped cache
// in front of the table (the LookupIPRoute element's hot path).
func BenchmarkFIBCacheLookup(b *testing.B) {
	t := fib.New()
	for i := 0; i < 1024; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0})
		t.Add(fib.Route{Prefix: netip.PrefixFrom(a, 20)})
	}
	c := fib.NewCache(t)
	dst := netip.MustParseAddr("10.1.2.3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(dst)
	}
}

func BenchmarkIPv4ParseMarshal(b *testing.B) {
	src := netip.MustParseAddr("10.1.1.2")
	dst := netip.MustParseAddr("10.1.2.3")
	d := packet.BuildUDP(src, dst, 1, 2, 64, make([]byte, 1400))
	b.SetBytes(int64(len(d)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h packet.IPv4
		if _, err := h.Parse(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	b.SetBytes(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packet.Checksum(buf)
	}
}

// BenchmarkClickForward pushes packets through the full IIAS element
// graph (classify, check, TTL, FIB lookup, encap).
func BenchmarkClickForward(b *testing.B) {
	loop := sim.NewLoop(1)
	ctx := &click.Context{
		Clock: loop, RNG: loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   tunnelDiscard{},
		Tap:       tapDiscard{},
		LocalAddr: packet.Flow{Src: netip.MustParseAddr("10.1.0.1")},
	}
	nh := netip.MustParseAddr("10.1.128.2")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nh, OutPort: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh, Remote: netip.MustParseAddr("198.32.154.41"), Port: 33000})
	r, err := click.ParseConfig(ctx, `
		fromtun :: FromTunnel;
		chk :: CheckIPHeader;
		dec :: DecIPTTL;
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		fromtun -> chk; chk[0] -> dec; dec[0] -> rt; rt[0] -> encap;
	`)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Initialize(); err != nil {
		b.Fatal(err)
	}
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7"), 1, 2, 64, make([]byte, 1400))
	b.SetBytes(int64(len(tmpl)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.New(append([]byte(nil), tmpl...))
		r.Push("fromtun", 0, p)
	}
}

// BenchmarkClickForwardPooled is the same element graph driven with pooled
// packets and a releasing tunnel sink that re-encapsulates in headroom —
// the configuration the zero-alloc guard (TestForwardingFastPathZeroAlloc)
// pins at 0 allocs/op.
func BenchmarkClickForwardPooled(b *testing.B) {
	r, _, tmpl := buildFastPath(b)
	b.SetBytes(int64(len(tmpl)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.Get()
		copy(p.Extend(len(tmpl)), tmpl)
		r.Push("fromtun", 0, p)
	}
}

type tunnelDiscard struct{}

func (tunnelDiscard) SendTunnel(fib.EncapEntry, *packet.Packet) {}

type tapDiscard struct{}

func (tapDiscard) DeliverTap(*packet.Packet) {}

// BenchmarkSimLoop measures raw event throughput of the kernel.
func BenchmarkSimLoop(b *testing.B) {
	loop := sim.NewLoop(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			loop.Schedule(time.Microsecond, tick)
		}
	}
	loop.Schedule(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	loop.RunAll()
	if n < b.N {
		b.Fatal("loop ended early")
	}
}

// TestBenchmarksCompile keeps the fmt import honest and documents where
// captured results live.
func TestBenchmarksCompile(t *testing.T) {
	_ = fmt.Sprintf("see EXPERIMENTS.md for paper-vs-measured tables")
}

// --- ablation benchmarks (DESIGN.md design-choice studies) ---

func BenchmarkAblationCPUIsolation(b *testing.B) {
	var gainMbps, mdevRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.CPUIsolationAblation(int64(i+3), 12*time.Second, 300)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]experiment.IsolationRow{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		gainMbps += byName["reservation + RT (PL-VINI)"].Mbps - byName["default share"].Mbps
		if m := byName["reservation + RT (PL-VINI)"].PingMdev; m > 0 {
			mdevRatio += byName["default share"].PingMdev / m
		}
	}
	b.ReportMetric(gainMbps/float64(b.N), "plvini-gain-Mb/s")
	b.ReportMetric(mdevRatio/float64(b.N), "mdev-improvement-x")
}

func BenchmarkAblationSocketBuffer(b *testing.B) {
	var knee float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.SocketBufferAblation(int64(i+4), []int{32, 128, 1024}, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		knee += rows[0].LossPct - rows[2].LossPct
	}
	b.ReportMetric(knee/float64(b.N), "loss32KB-minus-1MB-%")
}

func BenchmarkAblationPacketSize(b *testing.B) {
	var kpps64 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.PacketSizeAblation(int64(i+5), []int{64, 1400}, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		kpps64 += rows[0].KppsMeasured
	}
	b.ReportMetric(kpps64/float64(b.N), "64B-kpps")
}

func BenchmarkAblationBGPMux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BGPMuxAblation(8); err != nil {
			b.Fatal(err)
		}
	}
}
