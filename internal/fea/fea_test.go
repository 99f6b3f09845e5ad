package fea

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"vini/internal/fib"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestAdminDistanceWins(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), Metric: 1, OutPort: 9}})
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), Metric: 100, OutPort: 2}})
	r, ok := tbl.Lookup(addr("10.1.2.3"))
	if !ok || r.Proto != "ospf" || r.OutPort != 2 {
		t.Fatalf("winner = %+v, want ospf despite higher metric", r)
	}
}

func TestMetricBreaksTies(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 5, OutPort: 1},
	})
	rib.SetRoutes("ospf2", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 3, OutPort: 2},
	})
	r, _ := tbl.Lookup(addr("10.1.0.1"))
	if r.OutPort != 2 {
		t.Fatalf("lower metric lost: %+v", r)
	}
}

func TestFullReplaceWithdrawsStale(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16")},
		{Prefix: pfx("10.2.0.0/16")},
	})
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16")},
	})
	if _, ok := tbl.Lookup(addr("10.2.0.1")); ok {
		t.Fatal("stale route survived full replace")
	}
	if _, ok := tbl.Lookup(addr("10.1.0.1")); !ok {
		t.Fatal("kept route missing")
	}
}

func TestRemoveProtocolFallsBack(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 1}})
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 2}})
	rib.RemoveProtocol("ospf")
	r, ok := tbl.Lookup(addr("10.1.0.1"))
	if !ok || r.Proto != "rip" {
		t.Fatalf("fallback = %+v ok=%v", r, ok)
	}
}

func TestConnectedBeatsEverything(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("bgp", DistEBGP, []fib.Route{{Prefix: pfx("10.1.1.0/30"), OutPort: 5}})
	rib.SetRoutes("connected", DistConnected, []fib.Route{{Prefix: pfx("10.1.1.0/30"), OutPort: 0}})
	r, _ := tbl.Lookup(addr("10.1.1.2"))
	if r.Proto != "connected" {
		t.Fatalf("winner = %+v", r)
	}
}

func TestDistinctPrefixesCoexist(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16")}})
	rib.SetRoutes("bgp", DistEBGP, []fib.Route{{Prefix: pfx("192.0.2.0/24")}})
	if len(rib.Routes()) != 2 {
		t.Fatalf("routes = %v", rib.Routes())
	}
}

func TestPreferOverridesDistance(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 1}})
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 2}})
	rib.SetRoutes("connected", DistConnected, []fib.Route{{Prefix: pfx("10.1.9.0/30"), OutPort: 0}})
	rib.Prefer("rip")
	r, _ := tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "rip" {
		t.Fatalf("preferred rip lost: %+v", r)
	}
	// Connected routes still beat the preference.
	r, _ = tbl.Lookup(addr("10.1.9.1"))
	if r.Proto != "connected" {
		t.Fatalf("connected lost to preference: %+v", r)
	}
	// Switching back and clearing restores distance order.
	rib.Prefer("ospf")
	r, _ = tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "ospf" {
		t.Fatalf("switch back failed: %+v", r)
	}
	rib.Prefer("")
	r, _ = tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "ospf" {
		t.Fatalf("normal selection failed: %+v", r)
	}
}

// TestPrefixTextOrderMatchesString pins sortByPrefixText to the order
// the RIB has always installed routes in — sorting by Prefix.String —
// on random prefix sets that mix prefix lengths and octet widths, where
// text order and numeric order disagree (10.0.10.0/24 < 10.0.2.0/24).
func TestPrefixTextOrderMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	octet := func() byte {
		switch rng.Intn(3) {
		case 0:
			return byte(rng.Intn(10))
		case 1:
			return byte(10 + rng.Intn(90))
		default:
			return byte(100 + rng.Intn(156))
		}
	}
	for trial := 0; trial < 200; trial++ {
		seen := make(map[netip.Prefix]bool)
		var routes []fib.Route
		for len(routes) < 1+rng.Intn(60) {
			a := netip.AddrFrom4([4]byte{octet(), octet(), octet(), octet()})
			p := netip.PrefixFrom(a, rng.Intn(33)).Masked()
			if seen[p] {
				continue
			}
			seen[p] = true
			routes = append(routes, fib.Route{Prefix: p, OutPort: len(routes)})
		}
		want := append([]fib.Route(nil), routes...)
		sort.Slice(want, func(i, j int) bool {
			return want[i].Prefix.String() < want[j].Prefix.String()
		})
		sortByPrefixText(routes)
		for i := range want {
			if routes[i] != want[i] {
				t.Fatalf("trial %d: position %d holds %v, String order wants %v",
					trial, i, routes[i].Prefix, want[i].Prefix)
			}
		}
	}
}
