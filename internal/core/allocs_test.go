package core

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/allocguard"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/tcpm"
	"vini/internal/traffic"
)

// Workload-level zero-allocation guards: whole application flows over a
// one-slice IIAS world, end to end through the host model — sender,
// kernel tap route, the Click process (socket queue, CPU grain, typed
// hand-off), tunnel, physical link, the peer's Click process, tap
// delivery and the kernel listener. Each cycle runs a warm flow and
// drains it, so the world is quiescent at every cycle boundary (what
// the race-build ledger audit of allocguard needs).

// iiasPair builds two PlanetLab nodes joined by one physical link and a
// slice with a virtual node on each, routed statically (no routing
// protocol, so no control traffic runs while the guards measure).
func iiasPair(t *testing.T) (v *VINI, a, b *VirtualNode) {
	t.Helper()
	v = NewParallel(5, 1)
	t.Cleanup(v.Close)
	for i, n := range []string{"west", "east"} {
		addr := netip.AddrFrom4([4]byte{198, 32, 154, byte(40 + i)})
		if _, err := v.AddNode(n, addr, netem.PlanetLabProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "west", B: "east", Bandwidth: 1e9, Delay: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(SliceConfig{Name: "iias"})
	if err != nil {
		t.Fatal(err)
	}
	if a, err = s.AddVirtualNode("west"); err != nil {
		t.Fatal(err)
	}
	if b, err = s.AddVirtualNode("east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConnectVirtual("west", "east", 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]*VirtualNode{{a, b}, {b, a}} {
		from, to := p[0], p[1]
		from.RIB().SetRoutes("static", fea.DistStatic, []fib.Route{{
			Prefix: netip.PrefixFrom(to.TapAddr, 32), NextHop: from.Interfaces()[0].PeerAddr,
			OutPort: portEncap, Metric: 1,
		}})
	}
	return v, a, b
}

// guardCycles warms cycle, then hands it to the shared guard.
func guardCycles(t *testing.T, what string, pkts int, cycle func()) {
	t.Helper()
	for i := 0; i < 5; i++ {
		cycle()
	}
	allocguard.PerPacket(t, what, 40, pkts, 0, cycle)
}

func TestCBRFlowZeroAlloc(t *testing.T) {
	v, a, b := iiasPair(t)
	// 1430-byte datagrams every 1 ms: ten per cycle, each drained
	// before the cycle ends.
	cbr, err := traffic.StartUDPCBR(v.Net, a.Phys(), b.Phys(), traffic.UDPCBRConfig{
		RateBps: 1458 * 8 * 1000, Payload: 1430, SrcAddr: a.TapAddr, DstAddr: b.TapAddr})
	if err != nil {
		t.Fatal(err)
	}
	const perCycle = 10
	var until time.Duration
	cycle := func() {
		cbr.Start()
		until += perCycle*time.Millisecond - time.Microsecond
		v.Run(until)
		cbr.Stop()
		until += 20 * time.Millisecond
		v.Run(until)
	}
	guardCycles(t, "CBR flow", perCycle, cycle)
	if cbr.Sent() == 0 || cbr.Received() != cbr.Sent() {
		t.Fatalf("CBR delivered %d of %d datagrams", cbr.Received(), cbr.Sent())
	}
}

func TestRenoTransferZeroAlloc(t *testing.T) {
	v, a, b := iiasPair(t)
	const dport, sport = 5001, 6001
	cfg := tcpm.Config{}
	wp, ep := a.Phys(), b.Phys()
	rcv := tcpm.NewReceiver(ep.Clock(), cfg, b.TapAddr, dport, ep.StackSendPacket)
	if err := ep.StackListenTCP(dport, rcv.Deliver); err != nil {
		t.Fatal(err)
	}
	snd := tcpm.NewSender(wp.Clock(), cfg, a.TapAddr, sport, b.TapAddr, dport, wp.StackSendPacket)
	if err := wp.StackListenTCP(sport, snd.Deliver); err != nil {
		t.Fatal(err)
	}
	// A bounded 64 KB transfer per cycle (44 segments plus handshake and
	// ACKs), run to completion and past the delayed-ACK timer.
	const total = 64 << 10
	var until time.Duration
	cycle := func() {
		snd.Start(total)
		until += 300 * time.Millisecond
		v.Run(until)
	}
	guardCycles(t, "Reno transfer", total/1448, cycle)
	if snd.Acked() != total || rcv.Bytes != total {
		t.Fatalf("transfer acked %d, received %d of %d bytes", snd.Acked(), rcv.Bytes, total)
	}
}

func TestPingZeroAlloc(t *testing.T) {
	v, a, b := iiasPair(t)
	host := traffic.NewICMPHost(a.Phys())
	defer host.Close()
	responder := traffic.NewICMPHost(b.Phys())
	defer responder.Close()
	p := host.StartPing(traffic.PingConfig{Src: a.TapAddr, Dst: b.TapAddr, Interval: time.Millisecond})
	// Ten echoes per cycle, stopped after the last reply and before
	// the next tick, so no echo is outstanding between cycles.
	const perCycle = 10
	var until time.Duration
	cycle := func() {
		p.Start()
		until += perCycle*time.Millisecond - 100*time.Microsecond
		v.Run(until)
		p.Stop()
		until += 20 * time.Millisecond
		v.Run(until)
	}
	guardCycles(t, "ping", perCycle, cycle)
	if p.Sent == 0 || p.Lost != 0 || len(p.Timeline) != p.Sent {
		t.Fatalf("ping: %d sent, %d lost, %d answered", p.Sent, p.Lost, len(p.Timeline))
	}
}
