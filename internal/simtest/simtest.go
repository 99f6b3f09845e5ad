// Package simtest is a deterministic simulation-testing harness for the
// VINI stack, in the style FoundationDB made famous: a single seed
// drives a scenario generator (random virtual topology, traffic matrix,
// failure/recovery schedule), the whole world runs on the discrete
// event loop, and after every quiescent point an invariant engine
// checks properties that must hold in any reachable state:
//
//  1. no forwarding loops — the FIB next-hop graph is acyclic per
//     destination, and reachability matches the live link components;
//  2. control-plane/data-plane consistency — protocol RIB == FEA RIB ==
//     installed FIB == compiled stride-8 FIB == Click element caches;
//  3. packet conservation — every pooled packet obtained is released,
//     escaped to a retaining consumer, or still in flight; nothing
//     leaks (checked via the pool's Gets/Releases/Escapes ledger);
//  4. bounded reconvergence — after every injected failure the control
//     plane reaches a new fixed point within the scenario budget.
//
// Differential oracles ride along: the compiled FIB and per-element
// caches are audited against the reference binary trie, and live
// traffic probes check that the data plane agrees with the control
// plane walk. Any divergence reproduces exactly from the printed seed.
package simtest

import (
	"fmt"
	"time"

	"vini/internal/packet"
)

// Options configures one simulation run. The zero value of every field
// except Seed selects a sensible default, so tests can sweep seeds with
// Options{Seed: s}.
type Options struct {
	Seed int64
	// MinNodes..MaxNodes bounds the drawn topology size (defaults 3..8).
	MinNodes, MaxNodes int
	// Events fixes the number of failure/recovery events; 0 draws
	// 2..5 from the scenario RNG.
	Events int
	// Workers selects the execution engine: 0 runs the classic
	// single-timeline loop; >= 1 shards every node into its own time
	// domain executed by that many workers under conservative
	// synchronization. Any Workers >= 1 must produce byte-identical
	// results (that is the worker-parity property the CI matrix
	// asserts); Workers = 0 is a different — also deterministic —
	// baseline, because domain RNG streams fork differently.
	Workers int
}

// Result is everything one scenario produced. Its Digest is a replay
// fingerprint covering the event schedule, every quiescent FIB state,
// and every violation, so any divergence anywhere in the run changes it.
type Result struct {
	Report
	Nodes, Links   int
	WithRIP        bool
	EventLog       []string
	Reconvergences []time.Duration
	// FIBDigests records the quiescent FIB fingerprint at warmup and
	// after each event, for fine-grained divergence reports.
	FIBDigests []uint64
}

// String renders a replay header plus violations, the text a failing
// test prints so the run can be reproduced from the seed alone.
func (r *Result) String() string {
	s := fmt.Sprintf("seed=%d nodes=%d links=%d rip=%v events=%d digest=%016x",
		r.Seed, r.Nodes, r.Links, r.WithRIP, len(r.EventLog), r.Digest)
	for _, e := range r.EventLog {
		s += "\n  event: " + e
	}
	return r.render(s)
}

// maxConverge bounds every quiescence wait (invariant 4).
const maxConverge = 300 * time.Second

// Run executes one seeded scenario end to end and returns its Result.
// It only returns an error for scenario-construction failures (which
// indicate harness bugs, not system-under-test bugs); invariant
// violations land in Result.Violations.
func Run(opts Options) (*Result, error) {
	if opts.MinNodes == 0 {
		opts.MinNodes = 3
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 8
	}
	if opts.MaxNodes < opts.MinNodes {
		return nil, fmt.Errorf("simtest: MaxNodes %d < MinNodes %d", opts.MaxNodes, opts.MinNodes)
	}
	sc, err := buildScenario(opts)
	if err != nil {
		return nil, err
	}
	defer sc.vini.Close()
	res := sc.res
	quiescent := func(label string) {
		sc.checkpoint()
		fp := fibFingerprint(sc.vnode)
		res.FIBDigests = append(res.FIBDigests, fp)
		sc.fold("%s fib=%016x", label, fp)
	}

	sc.stable("initial convergence")
	quiescent("warmup")
	events := opts.Events
	if events == 0 {
		events = 2 + sc.rng.Intn(4)
	}
	for e := 0; e < events; e++ {
		line := sc.nextEvent()
		res.EventLog = append(res.EventLog, line)
		sc.fold("event %s", line)
		elapsed, ok := sc.stable(fmt.Sprintf("reconvergence after %q", line))
		if !ok {
			continue
		}
		// The settle tail is quiet by definition; the reconvergence
		// time is what came before it.
		res.Reconvergences = append(res.Reconvergences,
			max(elapsed-time.Duration(sc.window)*time.Second, 0))
		quiescent("quiescent")
	}
	if err := sc.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// stable advances the event loop until the network-wide FIB contents
// stop changing for the scenario's settle window (FIB versions tick on
// every periodic protocol update even when routes are unchanged, so
// quiescence is defined over contents).
func (sc *scenario) stable(phase string) (time.Duration, bool) {
	return sc.quiesce(phase, func() uint64 { return fibFingerprint(sc.vnode) }, maxConverge, sc.window)
}

// checkpoint runs the full invariant suite at one quiescent point.
func (sc *scenario) checkpoint() {
	v := &sc.res.Violations
	*v = append(*v, sc.checkLoops()...)
	sample := sc.addrSample()
	for i := range sc.vnode {
		*v = append(*v, sc.checkConsistency(i, sample)...)
	}
	*v = append(*v, sc.runProbes()...)
	sc.settle(fmt.Sprintf("t=%v", sc.loop.Now()))
}

// runProbes injects a small traffic matrix — real UDP datagrams through
// the pooled data plane — and checks exact delivery counts against the
// link-component ground truth: same-component pairs deliver every
// probe, cross-component pairs deliver none.
func (sc *scenario) runProbes() []string {
	const perPair = 2
	comp := sc.components()
	before := append([]int(nil), sc.delivered...)
	expected := make([]int, len(sc.vnode))
	for s, svn := range sc.vnode {
		for d, dvn := range sc.vnode {
			if s == d {
				continue
			}
			n := 1 // cross-component probes still exercise drop paths
			if comp[s] == comp[d] {
				n = perPair
				expected[d] += perPair
			}
			for k := 0; k < n; k++ {
				sc.probeSent++
				sport := uint16(41000 + sc.probeSent%1000)
				svn.Phys().StackSend(packet.BuildUDP(svn.TapAddr, dvn.TapAddr,
					sport, probePort, 64, []byte("simtest-probe")))
			}
		}
	}
	// Drain: worst-case path is diameter x (propagation + forwarder
	// scheduling), far under a virtual second; give it two.
	sc.vini.Run(sc.loop.Now() + 2*time.Second)
	var out []string
	for d := range sc.vnode {
		got := sc.delivered[d] - before[d]
		if got != expected[d] {
			out = append(out, fmt.Sprintf("probe delivery at n%d: got %d datagrams, expected %d",
				d, got, expected[d]))
		}
	}
	return out
}
