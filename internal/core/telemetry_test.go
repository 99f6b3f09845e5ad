package core

import (
	"strings"
	"testing"
	"time"

	"vini/internal/packet"
	"vini/internal/telemetry"
	"vini/internal/topology"
)

func findMetric(snap []telemetry.MetricValue, slice, node, name string) (telemetry.MetricValue, bool) {
	for _, m := range snap {
		if m.Slice == slice && m.Node == node && m.Name == name {
			return m, true
		}
	}
	return telemetry.MetricValue{}, false
}

// TestTelemetryCountersAndTimeline drives the Section 5.2 failure
// experiment with telemetry enabled and checks the registry and flight
// recorder captured the layers the paper instruments by hand: Click
// element counters, substrate link counters, OSPF adjacency events,
// route installs, and the convergence window around a link failure.
func TestTelemetryCountersAndTimeline(t *testing.T) {
	v := buildAbilene(t, 3, 1)
	tel := v.EnableTelemetry()
	if v.EnableTelemetry() != tel {
		t.Fatal("EnableTelemetry is not idempotent")
	}
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)

	vl, ok := s.FindVirtualLink(topology.Denver, topology.KansasCity)
	if !ok {
		t.Fatal("no Denver-KC virtual link")
	}
	vl.SetFailed(true)
	v.Run(60 * time.Second)

	snap := tel.Snapshot()
	// Click data-plane counters: OSPF floods traverse the per-tunnel
	// chains, so tunnel counters must be nonzero on every node.
	m, ok := findMetric(snap.Metrics, "iias", topology.Denver, "click/encap/sent")
	if !ok || m.Value == 0 {
		t.Fatalf("click/encap/sent missing or zero on Denver: %+v", m)
	}
	if m.Kind != "counter" {
		t.Fatalf("encap/sent kind = %q, want counter", m.Kind)
	}
	// Substrate link counters under the reserved "phys" slice.
	if m, ok = findMetric(snap.Metrics, "phys", topology.Denver, "link/"+topology.KansasCity+"/packets"); !ok || m.Value == 0 {
		t.Fatalf("phys link counter missing or zero: %+v", m)
	}
	// Scheduler instrumentation: the Click forwarder consumed CPU.
	if m, ok = findMetric(snap.Metrics, "iias", topology.Denver, "proc/cpu_ns"); !ok || m.Value == 0 {
		t.Fatalf("proc/cpu_ns missing or zero: %+v", m)
	}
	if m, ok = findMetric(snap.Metrics, "phys", topology.Denver, "cpu/busy_ns"); !ok || m.Value == 0 {
		t.Fatalf("cpu/busy_ns missing or zero: %+v", m)
	}

	var sawNeighbor, sawRoute, sawLink bool
	for _, ev := range snap.Events {
		switch ev.Kind {
		case telemetry.EvNeighbor:
			sawNeighbor = true
		case telemetry.EvRoute:
			sawRoute = true
		case telemetry.EvLink:
			sawLink = true
		}
	}
	if !sawNeighbor || !sawRoute || !sawLink {
		t.Fatalf("timeline incomplete: neighbor=%v route=%v link=%v",
			sawNeighbor, sawRoute, sawLink)
	}

	// Convergence-after-failure is a first-class query: the failure
	// window must contain route installs and close within the run.
	var conv *telemetry.Convergence
	for i := range snap.Convergences {
		c := &snap.Convergences[i]
		if c.Down && c.Link == topology.Denver+"-"+topology.KansasCity {
			conv = c
			break
		}
	}
	if conv == nil {
		t.Fatalf("no convergence window for the failed link; got %+v", snap.Convergences)
	}
	if conv.Installs == 0 || conv.Duration <= 0 {
		t.Fatalf("degenerate convergence window: %+v", *conv)
	}
	// OSPF with a 3 s dead interval cannot converge faster than the dead
	// timer; generous upper bound for flooding + SPF delay.
	if conv.Duration < 2*time.Second || conv.Duration > 30*time.Second {
		t.Fatalf("convergence duration %v outside [2s, 30s]", conv.Duration)
	}

	// The Prometheus exposition renders without error and includes the
	// slice label.
	var b strings.Builder
	if err := tel.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `slice="iias"`) {
		t.Fatal("prometheus exposition missing slice label")
	}
}

// TestTelemetryPacketPathTrace paints one packet and follows it
// hop-by-hop: Click elements on the ingress node, substrate link
// transmissions and receives along the physical path, and Click again
// on the egress node — the life-of-a-packet view, ordered by the
// deterministic merge key.
func TestTelemetryPacketPathTrace(t *testing.T) {
	v := buildAbilene(t, 7, 1)
	tel := v.EnableTelemetry()
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)

	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	before := len(telemetry.PacketPath(tel.Rec.Events()))
	v.Loop().Schedule(0, func() {
		dgram := packet.BuildUDP(wash.TapAddr, sea.TapAddr, 9000, 9000, 64, []byte("trace-me"))
		p := packet.New(dgram)
		p.Anno.Paint = telemetry.TracePaint
		wash.Router.Push("fromtap", 0, p)
	})
	v.Run(35 * time.Second)

	hops := telemetry.PacketPath(tel.Rec.Events())[before:]
	if len(hops) == 0 {
		t.Fatal("painted packet left no trace")
	}
	var sawIngress, sawSubstrate, sawEgress bool
	for i, h := range hops {
		if i > 0 && hops[i-1].At > h.At {
			t.Fatalf("hops out of travel order: %+v then %+v", hops[i-1], h)
		}
		switch {
		case h.Slice == "iias" && h.Node == topology.Washington && h.Elem == "rt":
			sawIngress = true
		case h.Slice == "phys" && h.Elem == "link-tx":
			sawSubstrate = true
		case h.Slice == "iias" && h.Node == topology.Seattle && h.Elem == "totap":
			sawEgress = true
		}
	}
	if !sawIngress || !sawSubstrate || !sawEgress {
		t.Fatalf("path incomplete: ingress=%v substrate=%v egress=%v; hops=%+v",
			sawIngress, sawSubstrate, sawEgress, hops)
	}
}
