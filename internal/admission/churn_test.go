package admission

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

// TestQuickChurnInvariants drives random join/leave churn through the
// protocol and checks global invariants afterwards: the RM's mode
// equals its active count, no client is left stopped, admissions plus
// rejections account for every activation attempt, and the engine
// drains (no protocol deadlock).
func TestQuickChurnInvariants(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		eng := sim.NewEngine()
		mesh, err := noc.New(eng, noc.DefaultConfig())
		if err != nil {
			return false
		}
		sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, sym(1.6))
		if err != nil {
			return false
		}
		rnd := sim.NewRand(seed)
		const nApps = 5
		clients := make([]*Client, nApps)
		for i := 0; i < nApps; i++ {
			cl, err := sys.Client(noc.Coord{X: i % 4, Y: (i / 4) % 4})
			if err != nil {
				return false
			}
			if err := cl.Register(fmt.Sprintf("app%d", i), Criticality(i%2), Requirement{}); err != nil {
				return false
			}
			clients[i] = cl
		}
		// Random interleaving of submits and terminates.
		steps := int(n8%40) + 10
		for s := 0; s < steps; s++ {
			i := rnd.Intn(nApps)
			at := sim.Duration(s) * sim.Microsecond
			eng.At(at, func() {
				name := fmt.Sprintf("app%d", i)
				if clients[i].AppActive(name) && rnd.Intn(2) == 0 {
					_ = clients[i].Terminate(name)
					return
				}
				_ = clients[i].Submit(name, &noc.Packet{
					Dst: noc.Coord{X: 3, Y: 3}, Bytes: 32,
				})
			})
		}
		eng.Run() // must drain: protocol cannot deadlock

		active := 0
		for i := 0; i < nApps; i++ {
			if clients[i].AppActive(fmt.Sprintf("app%d", i)) {
				active++
			}
			if clients[i].Stopped() {
				return false // left blocked after the last reconfiguration
			}
		}
		if sys.RM().Mode() != active {
			return false
		}
		if len(sys.RM().Active()) != active {
			return false
		}
		st := sys.Stats()
		// Every stop eventually paired with a conf (plus one conf per
		// rejection-free activation cycle); at minimum confs >= stops.
		return st.Messages[ConfMsg] >= st.Messages[StopMsg]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTerminateDuringReconfiguration exercises the pending-event queue:
// a termination arriving while an activation's stop/conf cycle is in
// flight must be processed afterwards, in order.
func TestTerminateDuringReconfiguration(t *testing.T) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, sym(1))
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := sys.Client(noc.Coord{X: 1, Y: 1})
	cb, _ := sys.Client(noc.Coord{X: 2, Y: 2})
	if err := ca.Register("a", BestEffort, Requirement{}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Register("b", BestEffort, Requirement{}); err != nil {
		t.Fatal(err)
	}
	_ = ca.Submit("a", &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 32})
	eng.Run()
	// Fire b's activation and a's termination back to back, so the
	// terMsg lands while b's cycle may still be reconfiguring.
	_ = cb.Submit("b", &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 32})
	_ = ca.Terminate("a")
	eng.Run()
	if got := sys.RM().Mode(); got != 1 {
		t.Fatalf("mode = %d, want 1 (b active, a terminated)", got)
	}
	act := sys.RM().Active()
	if len(act) != 1 || act[0].Name != "b" {
		t.Fatalf("active = %v", act)
	}
}
