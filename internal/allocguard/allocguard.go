// Package allocguard is the shared harness of the zero-allocation
// guards. In a plain build a guard is a testing.AllocsPerRun over a
// warm steady-state cycle. Under the race detector, whose runtime drops
// sync.Pool items on purpose, an allocation count measures the detector
// rather than the program, so the same cycles are audited through the
// pooled-packet ledger instead: they must escape no packet from the
// pool and leave none in flight.
package allocguard

import (
	"runtime/debug"
	"testing"

	"vini/internal/packet"
)

// PerPacket runs cycle, which moves pkts pooled packets through the
// path under test and leaves the path warm and quiescent, runs times.
// In a plain build it fails t if the cycles allocate more than bound
// objects per packet on average (bound 0 is an exact guard); the
// garbage collector is off while measuring, so a pool drain cannot be
// charged to the path. Under -race it fails t if the cycles took no
// pooled packet, escaped one, or left one in flight.
func PerPacket(t testing.TB, what string, runs, pkts int, bound float64, cycle func()) {
	t.Helper()
	if Race {
		cycle() // the warm-up run AllocsPerRun would make
		before := packet.Stats()
		for i := 0; i < runs; i++ {
			cycle()
		}
		d := packet.Stats().Sub(before)
		if d.Gets == 0 {
			t.Fatalf("%s: the measured cycles took no pooled packet", what)
		}
		if d.Escapes != 0 || d.InFlight() != 0 {
			t.Fatalf("%s: pool ledger over %d cycles: %d gets, %d escapes, %d still in flight; want 0 escapes and 0 in flight",
				what, runs, d.Gets, d.Escapes, d.InFlight())
		}
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(runs, cycle)
	if per := avg / float64(pkts); per > bound {
		t.Fatalf("%s: %.3f allocs/packet (%.1f per %d-packet cycle), want <= %g",
			what, per, avg, pkts, bound)
	}
}
