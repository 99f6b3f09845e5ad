package main

import (
	"net/netip"
	"runtime"
	"time"

	"vini/internal/click"
	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/topology"
)

// probeReps is how many timed repetitions each probe makes; the
// reported figure is their median.
const probeReps = 5

// probeRepTime is the wall time one repetition aims for.
const probeRepTime = 20 * time.Millisecond

// timeOp calibrates op to about probeRepTime per repetition, then
// returns the median ns per call and allocations per call.
func timeOp(op func(i int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		if d := time.Since(start); d >= probeRepTime/4 || n >= 1<<24 {
			if d > 0 {
				n = int(float64(n) * float64(probeRepTime) / float64(d))
			}
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	var ns, allocs []float64
	var ms runtime.MemStats
	for r := 0; r < probeReps; r++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(ms.Mallocs-m0)/float64(n))
	}
	return medianOf(ns), medianOf(allocs)
}

// runProbes times the public hot-path functions in isolation.
func runProbes(seed int64, tr *tracer) map[string]float64 {
	out := map[string]float64{}

	end := tr.span("probe click.Router.Push")
	for _, c := range []struct {
		payload int
		suffix  string
	}{{1430, ""}, {64, "_64b"}} {
		r, tmpl := iiasChain(c.payload)
		out["click.forward_ns"+c.suffix], out["click.forward_allocs"+c.suffix] = timeOp(func(int) {
			p := packet.Get()
			copy(p.Extend(len(tmpl)), tmpl)
			r.Push("fromtun", 0, p)
		})
	}
	end()

	end = tr.span("probe fib.Cache.Lookup")
	t := fib.New()
	for i := 0; i < 1024; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0})
		t.Add(fib.Route{Prefix: netip.PrefixFrom(a, 20), NextHop: a.Next()})
	}
	// The hit figure repeats one destination, so every call after the
	// first is served from the cache whichever slot it maps to. The
	// miss figure times the table lookup behind every cache miss: the
	// trie walk over the 1024 routes, for destinations spread across
	// them.
	rng := sim.NewRNG(seed)
	dsts := make([]netip.Addr, 64)
	for i := range dsts {
		k := rng.Intn(1024)
		dsts[i] = netip.AddrFrom4([4]byte{10, byte(k >> 4), byte(k<<4) | byte(rng.Intn(16)), byte(rng.Intn(256))})
	}
	cache := fib.NewCache(t)
	out["fib.lookup_ns"], out["fib.lookup_allocs"] = timeOp(func(int) {
		cache.Lookup(dsts[0])
	})
	out["fib.miss_lookup_ns"], _ = timeOp(func(i int) {
		t.Lookup(dsts[i&63])
	})
	end()

	end = tr.span("probe packet.BuildUDP")
	src, dst := netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7")
	payload := make([]byte, 64)
	out["packet.build_udp_ns"], out["packet.build_udp_allocs"] = timeOp(func(int) {
		packet.BuildUDP(src, dst, 6001, 5001, 64, payload)
	})
	end()

	end = tr.span("probe topology.Graph.ShortestPaths")
	graph, _ := topology.SynthRepetita(scaleNodes, scaleSlices, seed)
	if g, names, err := topology.ParseRepetita(graph); err == nil {
		out["topology.shortest_paths_ns"], out["topology.shortest_paths_allocs"] = timeOp(func(i int) {
			g.ShortestPaths(names[i%len(names)], nil)
		})
	}
	end()
	return out
}

// tunnelOut re-encapsulates in headroom and recycles the packet: the
// substrate's hand-off, minus the wire.
type tunnelOut struct{ local netip.Addr }

func (t tunnelOut) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	packet.EncapUDP(p, t.local, e.Remote, 33000, e.Port)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: t.local, Dst: e.Remote})
	p.Release()
}

type tapDrop struct{}

func (tapDrop) DeliverTap(p *packet.Packet) { p.Release() }

// iiasChain builds the IIAS forwarding chain (tunnel in, header check,
// TTL, FIB lookup, encapsulation, tunnel out) and a datagram template
// with the given UDP payload size.
func iiasChain(payload int) (*click.Router, []byte) {
	loop := sim.NewLoop(1)
	ctx := &click.Context{
		Clock: loop, RNG: loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   tunnelOut{local: netip.MustParseAddr("198.32.154.40")},
		Tap:       tapDrop{},
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
		panic(err) // the configuration is a constant
	}
	if err := r.Initialize(); err != nil {
		panic(err)
	}
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7"),
		1, 2, 64, make([]byte, payload))
	return r, tmpl
}
