package simtest

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
)

// genTopology draws a random connected virtual topology: a uniform
// random spanning tree over n nodes plus a few extra edges, every
// choice taken from the scenario RNG so the whole shape replays from
// the seed.
type genLink struct {
	a, b int
	cost uint32
}

func genTopology(rng *sim.RNG, n int) []genLink {
	var links []genLink
	seen := make(map[[2]int]bool)
	add := func(a, b int, cost uint32) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			return false
		}
		seen[k] = true
		links = append(links, genLink{a: a, b: b, cost: cost})
		return true
	}
	// Random attachment tree keeps every node reachable.
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i), 1+uint32(rng.Intn(10)))
	}
	// Extra edges create the alternate paths failures reroute onto.
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n), 1+uint32(rng.Intn(10)))
	}
	return links
}

// genSubstrate builds a seeded physical substrate on the world: nodes
// n0..n<n-1> at 192.168.<octet>.x, a genTopology link set of 1 Gb/s
// links with 1..maxDelayMs ms delays, and substrate routes.
func (w *world) genSubstrate(n int, octet byte, maxDelayMs int) ([]string, []genLink, error) {
	prof := netem.DETERProfile()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
		addr := netip.AddrFrom4([4]byte{192, 168, octet + byte(i/200), byte(1 + i%200)})
		if _, err := w.vini.AddNode(nodes[i], addr, prof, sched.Options{}); err != nil {
			return nil, nil, err
		}
	}
	links := genTopology(w.rng, n)
	for _, l := range links {
		if _, err := w.vini.AddLink(netem.LinkConfig{
			A: nodes[l.a], B: nodes[l.b],
			Bandwidth: 1e9, Delay: time.Duration(1+w.rng.Intn(maxDelayMs)) * time.Millisecond,
		}); err != nil {
			return nil, nil, err
		}
	}
	w.vini.ComputeRoutes()
	return nodes, links, nil
}

// scenario is one generated world: substrate, slice, mirrors of every
// virtual link, and per-node delivery counters for the traffic probes.
type scenario struct {
	*world
	opts  Options
	slice *core.Slice
	nodes []string
	vnode []*core.VirtualNode
	links []genLink
	vls   []*core.VirtualLink
	// crashed marks nodes whose every incident link is failed.
	crashed []bool
	// withRIP runs RIP alongside OSPF, enabling route-flip events.
	withRIP bool
	// window is the quiescence settle window in 1s steps.
	window int
	// addrOwner maps every virtual interface and tap address to the
	// owning node index, for next-hop graph walks.
	addrOwner map[netip.Addr]int
	// delivered counts probe datagrams that reached each node's stack.
	delivered []int
	// probeSent sequences probe source ports so every probe is distinct.
	probeSent int
	res       *Result
}

// buildScenario constructs the world for a seed. Every random draw
// comes from a single RNG stream, so construction order is the replay
// discipline: never reorder these calls without a compatibility note.
func buildScenario(opts Options) (*scenario, error) {
	sc := &scenario{opts: opts, addrOwner: make(map[netip.Addr]int), res: &Result{}}
	sc.world = newWorld(opts.Seed, opts.Workers, &sc.res.Report)
	n := opts.MinNodes + sc.rng.Intn(opts.MaxNodes-opts.MinNodes+1)
	sc.crashed, sc.delivered = make([]bool, n), make([]int, n)
	var err error
	if sc.nodes, sc.links, err = sc.genSubstrate(n, 1, 10); err != nil {
		return nil, err
	}

	s, err := sc.vini.CreateSlice(core.SliceConfig{Name: "simtest", CPUShare: 1.0})
	if err != nil {
		return nil, err
	}
	sc.slice = s
	for i, name := range sc.nodes {
		vn, err := s.AddVirtualNode(name)
		if err != nil {
			return nil, err
		}
		sc.vnode = append(sc.vnode, vn)
		sc.addrOwner[vn.TapAddr] = i
	}
	for _, l := range sc.links {
		vl, err := s.ConnectVirtual(sc.nodes[l.a], sc.nodes[l.b], l.cost)
		if err != nil {
			return nil, err
		}
		sc.vls = append(sc.vls, vl)
	}
	for i, vn := range sc.vnode {
		for _, ifc := range vn.Interfaces() {
			sc.addrOwner[ifc.Addr] = i
		}
	}
	// Every node listens for probe datagrams on its kernel stack.
	for i, vn := range sc.vnode {
		i := i
		if err := vn.Phys().StackListenUDP(probePort, func([]byte) { sc.delivered[i]++ }); err != nil {
			return nil, err
		}
	}
	sc.withRIP = sc.rng.Bool(0.4)
	// RIP only notices a dead route when its Timeout (6 updates = 30s at
	// the 5s period) expires, and until then the FIB can sit on a stale
	// plateau that looks converged — so scenarios running RIP must
	// demand a stability window longer than that plateau.
	sc.window = 5
	s.StartOSPF(time.Second, 3*time.Second)
	if sc.withRIP {
		sc.window = 36
		s.StartRIP(5 * time.Second)
	}
	sc.res.Nodes, sc.res.Links, sc.res.WithRIP = n, len(sc.links), sc.withRIP
	return sc, nil
}

// event kinds drawn by the failure/recovery schedule.
const (
	evFailLink = iota
	evRestoreLink
	evCrashNode
	evRestoreNode
	evRouteFlip
	evKinds
)

// nextEvent mutates the world with one random failure/recovery step and
// returns its log line. It retries draws that are no-ops in the current
// state (e.g. restoring when nothing is failed).
func (sc *scenario) nextEvent() string {
	for attempt := 0; attempt < 16; attempt++ {
		switch sc.rng.Intn(evKinds) {
		case evFailLink:
			i := sc.rng.Intn(len(sc.vls))
			if sc.vls[i].Failed() {
				continue
			}
			sc.vls[i].SetFailed(true)
			return fmt.Sprintf("fail-link %s-%s", sc.nodes[sc.links[i].a], sc.nodes[sc.links[i].b])
		case evRestoreLink:
			i := sc.rng.Intn(len(sc.vls))
			l := sc.links[i]
			// Links into a crashed node stay down until the node restores.
			if !sc.vls[i].Failed() || sc.crashed[l.a] || sc.crashed[l.b] {
				continue
			}
			sc.vls[i].SetFailed(false)
			return fmt.Sprintf("restore-link %s-%s", sc.nodes[l.a], sc.nodes[l.b])
		case evCrashNode:
			i := sc.rng.Intn(len(sc.nodes))
			if sc.crashed[i] {
				continue
			}
			sc.crashed[i] = true
			for j, l := range sc.links {
				if l.a == i || l.b == i {
					sc.vls[j].SetFailed(true)
				}
			}
			return fmt.Sprintf("crash-node %s", sc.nodes[i])
		case evRestoreNode:
			i := sc.rng.Intn(len(sc.nodes))
			if !sc.crashed[i] {
				continue
			}
			sc.crashed[i] = false
			for j, l := range sc.links {
				if l.a == i || l.b == i {
					// The far end may itself be crashed.
					if sc.crashed[l.a] || sc.crashed[l.b] {
						continue
					}
					sc.vls[j].SetFailed(false)
				}
			}
			return fmt.Sprintf("restore-node %s", sc.nodes[i])
		case evRouteFlip:
			if !sc.withRIP {
				continue
			}
			proto := "rip"
			if sc.rng.Bool(0.5) {
				proto = "ospf"
			}
			sc.slice.SwitchProtocol(proto)
			return fmt.Sprintf("route-flip %s", proto)
		}
	}
	return "no-op"
}

// components labels nodes by connected component over unfailed virtual
// links — the ground truth the reachability checks compare against.
func (sc *scenario) components() []int {
	parent := make([]int, len(sc.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, l := range sc.links {
		if !sc.vls[i].Failed() {
			parent[find(l.a)] = find(l.b)
		}
	}
	out := make([]int, len(sc.nodes))
	for i := range out {
		out[i] = find(i)
	}
	return out
}
