package simtest

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/telemetry"
)

// migProbePort is the UDP port the migration regime's painted probes
// target (distinct from the steady-state regime's probePort so the two
// regimes can never cross-count).
const migProbePort = 40001

// MigrateOptions configures one migration scenario: a seeded substrate
// with one spare node, a slice embedded on the rest, and repeated live
// migrations under continuous traffic, substrate link flaps, and
// Pause/Resume/Destroy churn.
type MigrateOptions struct {
	Seed int64
	// Rounds is the number of migration rounds (default 4).
	Rounds int
	// Workers selects the execution engine, exactly as in Options.
	Workers int
	// Sabotage disables duplicate suppression on every shadow — the
	// mutation hook proving the exactly-once checker has teeth. A
	// sabotaged run MUST report duplicate-delivery violations.
	Sabotage bool
}

// MigrateResult is everything one migration scenario produced. Every
// probe is painted with its round number and tracked per (destination,
// sequence), so loss and duplication are attributable to the exact
// in-flight packet, not just aggregate counters. Its Digest folds every
// per-round observation (op, migration phase, clone counts, probe
// ledger, FIB fingerprints).
type MigrateResult struct {
	Report
	Rounds int
	Nodes  int
	// Sent/Delivered/Duplicates aggregate the painted-probe ledger:
	// Delivered counts probes that arrived at least once, Duplicates
	// those that arrived more than once (must be 0).
	Sent, Delivered, Duplicates int
}

func (r *MigrateResult) String() string {
	return r.render(fmt.Sprintf("migrate seed=%d workers=%d rounds=%d nodes=%d sent=%d delivered=%d dups=%d digest=%016x",
		r.Seed, r.Workers, r.Rounds, r.Nodes, r.Sent, r.Delivered, r.Duplicates, r.Digest))
}

// migWorld is one generated migration scenario: the substrate, the
// slice under test, the rotating spare node, and the painted-probe
// delivery ledger.
type migWorld struct {
	*world
	opts     MigrateOptions
	slice    *core.Slice
	name     string // current slice name (changes across destroy/rebuild)
	nodes    []string
	subLinks []genLink
	members  []string // phys nodes currently hosting the slice
	spare    string   // the one free phys node, rotated by migrations
	vlinks   []genLink
	// tap maps each member to its vnode's tap address (the address is
	// the vnode's identity and survives migration).
	tap map[string]netip.Addr
	// delivered is the painted-probe ledger: per-node maps from probe
	// key to delivery count. Each physical node's stack listener writes
	// only its own map (listeners run on the node's time domain under
	// the sharded executor), and the driver merges them at barriers —
	// the same single-writer discipline as scenario.delivered.
	delivered []map[string]uint32
	seq       uint32
	res       *MigrateResult
}

// RunMigrate executes one seeded migration scenario end to end. Like
// Run, it returns an error only for harness bugs; every system-under-
// test failure lands in Result.Violations.
func RunMigrate(opts MigrateOptions) (*MigrateResult, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 4
	}
	w := &migWorld{opts: opts, res: &MigrateResult{Rounds: opts.Rounds}}
	w.world = newWorld(opts.Seed, opts.Workers, &w.res.Report)
	defer w.vini.Close()
	n := 4 + w.rng.Intn(3)
	w.res.Nodes = n
	var err error
	if w.nodes, w.subLinks, err = w.genSubstrate(n, 3, 5); err != nil {
		return nil, err
	}
	w.members = append([]string(nil), w.nodes[:n-1]...)
	w.spare = w.nodes[n-1]
	w.vlinks = genTopology(w.rng, n-1)
	// Every physical node — including the spare — listens for painted
	// probes, so a duplicate surfacing anywhere is counted.
	w.delivered = make([]map[string]uint32, n)
	for i, name := range w.nodes {
		w.delivered[i] = make(map[string]uint32)
		ledger := w.delivered[i]
		node, _ := w.vini.Net.Node(name)
		if err := node.StackListenUDP(migProbePort, func(d []byte) {
			if k, ok := probeKey(d); ok {
				ledger[k]++
			}
		}); err != nil {
			return nil, err
		}
	}

	if err := w.buildSlice("mig0"); err != nil {
		return nil, err
	}
	w.stable("initial convergence")

	for round := 0; round < opts.Rounds; round++ {
		// Round 0 is always a clean migration so every seed exercises
		// the double-delivery window (and the sabotage arm has a target).
		op := 0
		if round > 0 {
			switch d := w.rng.Intn(8); {
			case d < 4:
				op = 0
			case d < 6:
				op = 1
			case d == 6:
				op = 2
			default:
				op = 3
			}
		}
		var err error
		var line string
		switch op {
		case 0:
			line, err = w.roundMigrate(round, false)
		case 1:
			line, err = w.roundMigrate(round, true)
		case 2:
			line, err = w.roundPauseAbort(round)
		case 3:
			line, err = w.roundPauseDestroy(round)
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d round %d: %w", opts.Seed, round, err)
		}
		w.note("round %d: %s", round, line)
		w.fold("round %d %s fib=%016x", round, line, w.fingerprint())
	}

	// Final teardown: the substrate must come out exactly as clean as it
	// went in.
	if err := w.slice.Destroy(); err != nil {
		w.violate("final destroy: %v", err)
	}
	if err := w.slice.Audit(); err != nil {
		w.violate("final audit: %v", err)
	}
	w.vini.Run(w.loop.Now() + 3*time.Second)
	w.teardown("final teardown")
	if err := w.finish(); err != nil {
		return nil, err
	}
	return w.res, nil
}

// roundMigrate is the core arm: continuous painted traffic through (and
// to) the migrating vnode across the whole window, with zero loss and
// exactly-once delivery demanded afterwards. With flap set, a substrate
// link fails mid-window and restores after the retirement — loss is
// then legitimate (packets die on the dead physical link) but
// duplicates and ledger imbalance still are not.
func (w *migWorld) roundMigrate(round int, flap bool) (string, error) {
	victimIdx := w.rng.Intn(len(w.members))
	victim := w.members[victimIdx]
	target := w.spare
	var keys []string
	paint := byte(round)
	for i := 0; i < 3; i++ {
		w.step(&keys, "", paint)
	}
	migStart := w.loop.Now()
	m, err := w.slice.Migrate(victim, target, core.MigrateOptions{
		Window: 800 * time.Millisecond, Drain: 400 * time.Millisecond})
	if err != nil {
		return "", fmt.Errorf("migrate %s->%s: %w", victim, target, err)
	}
	if w.opts.Sabotage {
		m.Shadow().BreakDupSuppressionForTest()
	}
	var failed *genLink
	for i := 0; i < 16; i++ {
		if flap && i == 2 {
			l := w.subLinks[w.rng.Intn(len(w.subLinks))]
			failed = &l
			if err := w.vini.FailLink(w.nodes[l.a], w.nodes[l.b], 100*time.Millisecond); err != nil {
				return "", err
			}
		}
		w.step(&keys, victim, paint)
	}
	w.vini.Run(w.loop.Now() + 2*time.Second)
	if m.Phase() != core.MigDone {
		w.violate("round %d: migration %s->%s stuck in %s", round, victim, target, m.Phase())
	}
	clones, drops := m.ClonesSent(), m.CloneDrops()
	if clones == 0 {
		w.violate("round %d: no clones sent — the double-delivery window never carried traffic", round)
	}
	if failed != nil {
		if err := w.vini.RestoreLink(w.nodes[failed.a], w.nodes[failed.b], 100*time.Millisecond); err != nil {
			return "", err
		}
	}
	// Rotate: the vacated node is the next spare.
	w.members[victimIdx] = target
	w.tap[target] = w.tap[victim]
	delete(w.tap, victim)
	w.spare = victim
	w.stable(fmt.Sprintf("round %d", round))
	// Bounded control-plane disruption: a clean migration transplants
	// OSPF state, so no neighbor FSM transition may occur anywhere.
	if !flap {
		if nev := w.neighborEventsSince(migStart); nev != 0 {
			w.violate("round %d: %d OSPF neighbor transitions during a clean migration (adjacencies reset)",
				round, nev)
		}
	}
	w.checkRound(round, keys, !flap)
	if err := w.slice.Audit(); err != nil {
		w.violate("round %d: audit: %v", round, err)
	}
	op := "migrate"
	if flap {
		op = "migrate+flap"
	}
	w.fold("%s %s->%s clones=%d drops=%d", op, victim, target, clones, drops)
	return fmt.Sprintf("%s %s->%s probes=%d clones=%d", op, victim, target, len(keys), clones), nil
}

// roundPauseAbort drives Pause into the double-delivery window: the
// migration must abort, the shadow's handles must all drop, and after
// Resume the old instance must still forward with exactly-once
// delivery.
func (w *migWorld) roundPauseAbort(round int) (string, error) {
	victim := w.members[w.rng.Intn(len(w.members))]
	target := w.spare
	var keys []string
	paint := byte(round)
	for i := 0; i < 2; i++ {
		w.step(&keys, "", paint)
	}
	m, err := w.slice.Migrate(victim, target, core.MigrateOptions{
		Window: 5 * time.Second, Drain: 400 * time.Millisecond})
	if err != nil {
		return "", fmt.Errorf("migrate %s->%s: %w", victim, target, err)
	}
	for i := 0; i < 4; i++ {
		w.step(&keys, victim, paint)
	}
	w.vini.Run(w.loop.Now() + time.Second) // drain in-flight probes
	if err := w.slice.Pause(); err != nil {
		w.violate("round %d: pause mid-migration: %v", round, err)
	}
	if m.Phase() != core.MigAborted {
		w.violate("round %d: pause left migration in %s, want Aborted", round, m.Phase())
	}
	if node, ok := w.vini.Net.Node(target); ok && node.HasAddr(w.tap[victim]) {
		w.violate("round %d: aborted shadow still answers for %v on %s", round, w.tap[victim], target)
	}
	if err := w.slice.Audit(); err != nil {
		w.violate("round %d: audit after abort: %v", round, err)
	}
	w.vini.Run(w.loop.Now() + time.Second)
	if err := w.slice.Resume(); err != nil {
		w.violate("round %d: resume after abort: %v", round, err)
	}
	w.stable(fmt.Sprintf("round %d", round))
	for i := 0; i < 4; i++ {
		w.step(&keys, "", paint)
	}
	// The stale cutover timer (scheduled for the 5s window) must be
	// inert; run past it before judging the ledger.
	w.vini.Run(w.loop.Now() + 6*time.Second)
	w.checkRound(round, keys, true)
	w.fold("pause-abort %s->%s", victim, target)
	return fmt.Sprintf("pause-abort %s->%s probes=%d", victim, target, len(keys)), nil
}

// roundPauseDestroy is the Pause -> Destroy interleaving: destroying a
// slice whose migration was aborted by the pause must release every
// shadow handle, retire every telemetry series, and leave no orphaned
// timers; the arm then rebuilds the slice so later rounds keep running.
func (w *migWorld) roundPauseDestroy(round int) (string, error) {
	victim := w.members[w.rng.Intn(len(w.members))]
	target := w.spare
	var keys []string
	paint := byte(round)
	for i := 0; i < 2; i++ {
		w.step(&keys, "", paint)
	}
	m, err := w.slice.Migrate(victim, target, core.MigrateOptions{
		Window: 5 * time.Second, Drain: 400 * time.Millisecond})
	if err != nil {
		return "", fmt.Errorf("migrate %s->%s: %w", victim, target, err)
	}
	for i := 0; i < 3; i++ {
		w.step(&keys, victim, paint)
	}
	w.vini.Run(w.loop.Now() + time.Second) // drain in-flight probes
	if err := w.slice.Pause(); err != nil {
		w.violate("round %d: pause mid-migration: %v", round, err)
	}
	if m.Phase() != core.MigAborted {
		w.violate("round %d: pause left migration in %s, want Aborted", round, m.Phase())
	}
	oldName := w.name
	if err := w.slice.Destroy(); err != nil {
		w.violate("round %d: destroy paused mid-migration slice: %v", round, err)
	}
	if err := w.slice.Audit(); err != nil {
		w.violate("round %d: audit after destroy: %v", round, err)
	}
	if node, ok := w.vini.Net.Node(target); ok && node.HasAddr(w.tap[victim]) {
		w.violate("round %d: destroyed shadow still answers for %v on %s", round, w.tap[victim], target)
	}
	if live := w.vini.Telemetry().Reg.Series(oldName); live != 0 {
		w.violate("round %d: %d telemetry series survive destroyed slice %s", round, live, oldName)
	}
	w.vini.Run(w.loop.Now() + 6*time.Second) // past the stale cutover timer
	w.teardown(fmt.Sprintf("round %d destroy", round))
	// Rebuild on the same members so later rounds have a slice to move.
	if err := w.buildSlice(fmt.Sprintf("mig%d", round+1)); err != nil {
		return "", err
	}
	w.stable(fmt.Sprintf("round %d", round))
	w.checkRound(round, keys, true)
	w.fold("pause-destroy %s->%s rebuilt=%s", victim, target, w.name)
	return fmt.Sprintf("pause-destroy %s->%s probes=%d rebuilt=%s", victim, target, len(keys), w.name), nil
}

// buildSlice embeds the slice on the current members and starts OSPF.
func (w *migWorld) buildSlice(name string) error {
	s, err := w.vini.CreateSlice(core.SliceConfig{Name: name, CPUShare: 0.5, RT: true})
	if err != nil {
		return err
	}
	for _, m := range w.members {
		if _, err := s.AddVirtualNode(m); err != nil {
			return err
		}
	}
	for _, l := range w.vlinks {
		if _, err := s.ConnectVirtual(w.members[l.a], w.members[l.b], l.cost); err != nil {
			return err
		}
	}
	s.StartOSPF(time.Second, 3*time.Second)
	w.slice, w.name = s, name
	w.tap = make(map[string]netip.Addr)
	for _, m := range w.members {
		vn, _ := s.VirtualNode(m)
		w.tap[m] = vn.TapAddr
	}
	return nil
}

// step injects one painted traffic slice: two random member-to-member
// probes plus — while a migration is in flight (victim non-empty) — one
// probe pinned at the migrating vnode itself, then advances 100ms.
// The victim is never a source (its tap capture dies at retirement
// mid-burst) but always remains a destination: its tap address is
// exactly what must survive the move.
func (w *migWorld) step(keys *[]string, victim string, paint byte) {
	avoid := func(i int) int {
		if victim != "" && w.members[i] == victim {
			return (i + 1) % len(w.members)
		}
		return i
	}
	for k := 0; k < 2; k++ {
		si := avoid(w.rng.Intn(len(w.members)))
		di := w.rng.Intn(len(w.members))
		if di == si {
			di = (di + 1) % len(w.members)
		}
		w.send(w.members[si], w.tap[w.members[di]], keys, paint)
	}
	if victim != "" {
		si := avoid(w.rng.Intn(len(w.members)))
		w.send(w.members[si], w.tap[victim], keys, paint)
	}
	w.vini.Run(w.loop.Now() + 100*time.Millisecond)
}

// send paints and injects one probe from src's kernel stack into the
// overlay and records its ledger key.
func (w *migWorld) send(src string, dst netip.Addr, keys *[]string, paint byte) {
	vn, ok := w.slice.VirtualNode(src)
	if !ok {
		return
	}
	w.seq++
	var pay [5]byte
	binary.BigEndian.PutUint32(pay[:4], w.seq)
	pay[4] = paint
	vn.Phys().StackSend(packet.BuildUDP(vn.TapAddr, dst,
		uint16(41000+w.seq%1000), migProbePort, 64, pay[:]))
	*keys = append(*keys, fmt.Sprintf("%s#%d", dst, w.seq))
}

// probeKey attributes a delivered probe datagram back to its ledger key.
func probeKey(d []byte) (string, bool) {
	var ip packet.IPv4
	seg, err := ip.Parse(d)
	if err != nil {
		return "", false
	}
	var u packet.UDP
	pay, err := u.Parse(seg)
	if err != nil || len(pay) < 5 {
		return "", false
	}
	return fmt.Sprintf("%s#%d", ip.Dst, binary.BigEndian.Uint32(pay[:4])), true
}

// deliveries merges the per-node ledgers for one probe key. Driver-time
// only (barrier).
func (w *migWorld) deliveries(k string) uint32 {
	var n uint32
	for _, m := range w.delivered {
		n += m[k]
	}
	return n
}

// checkRound settles the pool ledger and then judges this round's
// painted probes: exactly-once when lossless, at-most-once always.
func (w *migWorld) checkRound(round int, keys []string, lossless bool) {
	w.settle(fmt.Sprintf("round %d", round))
	losses, dups := 0, 0
	for _, k := range keys {
		switch c := w.deliveries(k); {
		case c == 0:
			if lossless {
				losses++
				if losses <= 5 {
					w.violate("round %d: probe %s lost in flight", round, k)
				}
			}
		case c > 1:
			dups++
			if dups <= 5 {
				w.violate("round %d: probe %s delivered %d times (duplicate leaked past cutover)",
					round, k, c)
			}
			w.res.Delivered++
		default:
			w.res.Delivered++
		}
	}
	if losses > 5 {
		w.violate("round %d: ... %d probes lost in total", round, losses)
	}
	if dups > 5 {
		w.violate("round %d: ... %d duplicated probes in total", round, dups)
	}
	w.res.Sent += len(keys)
	w.res.Duplicates += dups
}

// stable runs the loop until every member FIB's contents stop changing.
func (w *migWorld) stable(phase string) {
	w.quiesce(phase, w.fingerprint, 120*time.Second, 5)
}

// fingerprint hashes the FIBs of the current members, in member order.
func (w *migWorld) fingerprint() uint64 {
	var vns []*core.VirtualNode
	for _, m := range w.members {
		if vn, ok := w.slice.VirtualNode(m); ok {
			vns = append(vns, vn)
		}
	}
	return fibFingerprint(vns)
}

// neighborEventsSince counts OSPF neighbor FSM transitions recorded at
// or after the given instant — the convergence-timeline measure of
// control-plane disruption.
func (w *migWorld) neighborEventsSince(since time.Duration) int {
	n := 0
	for _, ev := range w.vini.Telemetry().Rec.Events() {
		if ev.Kind == telemetry.EvNeighbor && ev.At >= since {
			n++
		}
	}
	return n
}
