package simtest

import (
	"fmt"
	"time"

	"vini/internal/core"
)

// ChurnOptions configures a slice-churn scenario: one long-lived
// substrate over which slices are repeatedly created, run, paused,
// re-embedded, and destroyed. The churn property is the lifecycle
// counterpart of the steady-state invariants in Run: after every
// teardown the substrate must be exactly as clean as before the slice
// existed — pool ledger balanced, no timers left in any domain heap,
// no telemetry series under the dead slice's label — and the whole
// schedule must replay byte-identically for any worker count.
type ChurnOptions struct {
	Seed int64
	// Rounds is the number of create/run/pause/reembed/destroy cycles
	// (default 4).
	Rounds int
	// Workers selects the execution engine, exactly as in Options.
	Workers int
}

// ChurnResult is everything one churn scenario produced. Its Digest
// folds every per-round observation: slice identities, quiescent FIB
// fingerprints, re-embedding outcomes.
type ChurnResult struct {
	Report
	Rounds int
	Nodes  int
}

func (r *ChurnResult) String() string {
	return r.render(fmt.Sprintf("churn seed=%d workers=%d rounds=%d nodes=%d digest=%016x",
		r.Seed, r.Workers, r.Rounds, r.Nodes, r.Digest))
}

// churnSlices is the number of concurrent slices per round; with it the
// id-recycling bound: destroyed ids must be reissued, so the id space
// never grows past the concurrency high-water mark.
const churnSlices = 2

// RunChurn executes one seeded churn scenario end to end.
func RunChurn(opts ChurnOptions) (*ChurnResult, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 4
	}
	res := &ChurnResult{Rounds: opts.Rounds}
	w := newWorld(opts.Seed, opts.Workers, &res.Report)
	defer w.vini.Close()
	rng, vini, loop := w.rng, w.vini, w.loop
	res.Nodes = 4 + rng.Intn(3)
	nodes, links, err := w.genSubstrate(res.Nodes, 2, 5)
	if err != nil {
		return nil, err
	}

	for round := 0; round < opts.Rounds; round++ {
		// Create this round's slices on the running substrate.
		var slices []*core.Slice
		var vnodes [][]*core.VirtualNode
		for i := 0; i < churnSlices; i++ {
			cfg := core.SliceConfig{
				Name:     fmt.Sprintf("churn-r%d-s%d", round, i),
				CPUShare: 0.25,
				RT:       rng.Bool(0.5),
				// The first slice sees substrate failures so ReEmbed has
				// real state transitions to exercise.
				ExposePhysicalFailures: i == 0,
			}
			s, err := vini.CreateSlice(cfg)
			if err != nil {
				return nil, err
			}
			// Recycling bound: with churnSlices concurrent slices ever
			// alive, destroyed ids must be reissued rather than burned.
			if s.ID() > churnSlices {
				w.violate("round %d: slice id %d exceeds concurrency bound %d (ids not recycled)",
					round, s.ID(), churnSlices)
			}
			var vns []*core.VirtualNode
			for _, name := range nodes {
				vn, err := s.AddVirtualNode(name)
				if err != nil {
					return nil, err
				}
				vns = append(vns, vn)
			}
			for _, l := range links {
				if _, err := s.ConnectVirtual(nodes[l.a], nodes[l.b], l.cost); err != nil {
					return nil, err
				}
			}
			s.StartOSPF(time.Second, 3*time.Second)
			w.fold("round %d slice %s id=%d port=%d prefix=%s",
				round, cfg.Name, s.ID(), s.BasePort(), s.Prefix())
			slices = append(slices, s)
			vnodes = append(vnodes, vns)
		}
		w.note("round %d: created %d slices", round, len(slices))
		vini.Run(loop.Now() + 12*time.Second)
		for i := range slices {
			w.fold("round %d converged s%d fib=%016x", round, i, fibFingerprint(vnodes[i]))
		}

		// Pause one slice across the OSPF dead interval, then resume and
		// let it reconverge; the sibling slice must be undisturbed.
		paused := rng.Intn(len(slices))
		if err := slices[paused].Pause(); err != nil {
			w.violate("round %d: pause: %v", round, err)
		}
		vini.Run(loop.Now() + 5*time.Second)
		sibling := (paused + 1) % len(slices)
		if !reachesPeer(vnodes[sibling]) {
			w.violate("round %d: sibling slice lost routes while s%d was paused", round, paused)
		}
		if err := slices[paused].Resume(); err != nil {
			w.violate("round %d: resume: %v", round, err)
		}
		vini.Run(loop.Now() + 15*time.Second)
		if !reachesPeer(vnodes[paused]) {
			w.violate("round %d: slice s%d did not reconverge after resume", round, paused)
		}
		w.fold("round %d resumed s%d fib=%016x", round, paused, fibFingerprint(vnodes[paused]))

		// Fail one substrate link, re-embed the exposed slice around it,
		// then restore and re-embed back.
		l := links[rng.Intn(len(links))]
		if err := vini.FailLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		vini.Run(loop.Now() + 2*time.Second)
		moved, err := slices[0].ReEmbed()
		if err != nil {
			w.violate("round %d: reembed: %v", round, err)
		}
		vini.Run(loop.Now() + 5*time.Second)
		if err := vini.RestoreLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		vini.Run(loop.Now() + 2*time.Second)
		back, err := slices[0].ReEmbed()
		if err != nil {
			w.violate("round %d: reembed back: %v", round, err)
		}
		w.fold("round %d fail %s-%s moved=%d back=%d", round, nodes[l.a], nodes[l.b], moved, back)
		w.note("round %d: reembed moved %d, back %d", round, moved, back)

		// Teardown in creation order, then audit the wreckage.
		for i, s := range slices {
			name := fmt.Sprintf("churn-r%d-s%d", round, i)
			if err := s.Destroy(); err != nil {
				w.violate("round %d: destroy %s: %v", round, name, err)
				continue
			}
			if err := s.Audit(); err != nil {
				w.violate("round %d: audit %s: %v", round, name, err)
			}
			if live := vini.Telemetry().Reg.Series(name); live != 0 {
				w.violate("round %d: %d telemetry series survive %s", round, live, name)
			}
		}
		// Drain in-flight deliveries, then audit the clean substrate.
		vini.Run(loop.Now() + 3*time.Second)
		w.teardown(fmt.Sprintf("round %d teardown", round))
		w.fold("round %d clean pending=%d", round, loop.Pending())
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// reachesPeer reports whether the first virtual node holds a FIB route
// to the last one's tap — the minimal "this slice's control plane is
// alive" probe.
func reachesPeer(vns []*core.VirtualNode) bool {
	if len(vns) < 2 {
		return true
	}
	_, ok := vns[0].FIB.Lookup(vns[len(vns)-1].TapAddr)
	return ok
}
