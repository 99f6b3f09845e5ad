package core

import (
	"testing"
	"time"

	"vini/internal/topology"
	"vini/internal/traffic"
)

// TestTracerouteAcrossOverlay walks the virtual Abilene hop by hop: each
// transit Click's ICMPError element answers with its tap address, so the
// trace reads out exactly the embedded default path of Figure 7.
func TestTracerouteAcrossOverlay(t *testing.T) {
	v := buildAbilene(t, 12, 1)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	h := traffic.NewICMPHost(wash.Phys())
	tr := h.StartTraceroute(traffic.TracerouteConfig{
		Src: wash.TapAddr, Dst: sea.TapAddr})
	v.Run(v.Loop().Now() + 60*time.Second)
	if !tr.Done {
		t.Fatalf("traceroute incomplete: %+v", tr.Hops)
	}
	// Expected transit tap addresses along the Figure 7 default path.
	want := []string{topology.NewYork, topology.Chicago, topology.Indianapolis,
		topology.KansasCity, topology.Denver, topology.Seattle}
	if len(tr.Hops) != len(want) {
		t.Fatalf("hops = %d (%+v), want %d", len(tr.Hops), tr.Hops, len(want))
	}
	for i, name := range want {
		vn, _ := s.VirtualNode(name)
		if tr.Hops[i].Addr != vn.TapAddr {
			t.Fatalf("hop %d = %v, want %s (%v)", i+1, tr.Hops[i].Addr, name, vn.TapAddr)
		}
		if tr.Hops[i].RTT <= 0 {
			t.Fatalf("hop %d has no RTT", i+1)
		}
	}
	// RTTs grow along the path.
	if tr.Hops[0].RTT >= tr.Hops[len(tr.Hops)-1].RTT {
		t.Fatalf("RTTs not increasing: %v vs %v", tr.Hops[0].RTT, tr.Hops[len(tr.Hops)-1].RTT)
	}
}

// TestPingAndTracerouteOnFourWorkers: ping and traceroute time their
// probes on the source node's own clock, so on a world whose nodes run
// on four workers they still report the path's round-trip times. (The
// control domain's clock stands still while node domains run, so
// timing on it would record 0 ms.)
func TestPingAndTracerouteOnFourWorkers(t *testing.T) {
	v := buildAbilene(t, 12, 4)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	traffic.NewICMPHost(sea.Phys())
	h := traffic.NewICMPHost(wash.Phys())
	p := h.StartPing(traffic.PingConfig{Src: wash.TapAddr, Dst: sea.TapAddr,
		Interval: 500 * time.Millisecond, Count: 10})
	tr := h.StartTraceroute(traffic.TracerouteConfig{Src: wash.TapAddr, Dst: sea.TapAddr})
	v.Run(v.Loop().Now() + 60*time.Second)
	// The Figure 7 default path's RTT is 76 ms.
	if p.Sent != 10 || p.LossRate() != 0 || p.RTTs.Min() < 75 || p.RTTs.Max() > 80 {
		t.Fatalf("ping over four workers: %v, want 10 echoes at ~76 ms", p)
	}
	if !tr.Done || len(tr.Hops) != 6 {
		t.Fatalf("traceroute over four workers: done=%v hops=%+v, want 6 hops", tr.Done, tr.Hops)
	}
	for i, hop := range tr.Hops {
		if i > 0 && hop.RTT <= tr.Hops[i-1].RTT {
			t.Fatalf("hop %d RTT %v not above hop %d's %v", i+1, hop.RTT, i, tr.Hops[i-1].RTT)
		}
	}
	if last := tr.Hops[5].RTT; last < 75*time.Millisecond || last > 80*time.Millisecond {
		t.Fatalf("last hop RTT %v, want ~76 ms", last)
	}
}
