package rmserver

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDifferentialSimVsService runs one serialized op stream through
// the simulated RM protocol (admission.System on a NoC) and through the
// service fleet, under both policies: the admit/reject sequence, the
// mode, and every admitted app's assigned rate must agree. The
// simulated run lets each op's stop/configure cycle complete before the
// next, so both sides see the same serialized order.
func TestDifferentialSimVsService(t *testing.T) {
	for _, spec := range []PlatformSpec{
		{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100},
		{Policy: "non-symmetric", TotalBytesPerNS: 1, CriticalBytesPerNS: 0.3, FloorBytesPerNS: 0.02, ServiceLatencyNS: 100},
	} {
		t.Run(spec.Policy, func(t *testing.T) { differential(t, spec) })
	}
}

func differential(t *testing.T, spec PlatformSpec) {
	const nApps = 10
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet := New(Config{Shards: 1, DefaultPlatform: spec}, telemetry.NewRegistry())
	defer fleet.Drain()

	// Each app has one fixed contract (the simulated client binds it
	// at registration); bursts and deadlines put the feasibility edge
	// at modes 2 to 6.
	bursts := []float64{64, 128, 256}
	deadlines := []float64{0, 400, 700, 1500, 3000}
	apps := make([]Op, nApps)
	clients := make([]*admission.Client, nApps)
	for i := range apps {
		apps[i] = Op{Kind: OpRegister, Platform: "p", App: fmt.Sprintf("app%d", i),
			BurstBytes: bursts[i%len(bursts)], DeadlineNS: deadlines[i%len(deadlines)]}
		if i%3 == 0 {
			apps[i].Crit = admission.Critical
		}
		cl, err := sys.Client(noc.Coord{X: i % 4, Y: (i / 4) % 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(apps[i].App, apps[i].Crit, apps[i].app().Req); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}

	rnd := sim.NewRand(7)
	admitted, rejected := 0, 0
	for step := 0; step < 300; step++ {
		i := rnd.Intn(nApps)
		name, cl := apps[i].App, clients[i]
		op := apps[i]
		var simOK bool
		if cl.AppActive(name) || rnd.Intn(4) == 0 {
			// Withdraw; an inactive app's is refused by both sides.
			op = Op{Kind: OpWithdraw, Platform: "p", App: name}
			simOK = cl.Terminate(name) == nil
		} else {
			if err := cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 32}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if op.Kind == OpRegister {
			simOK = cl.AppActive(name)
		}
		d := fleet.Do([]Op{op})[0]
		if d.OK != simOK || d.Mode != sys.RM().Mode() {
			t.Fatalf("step %d %s %s: service ok=%v mode=%d (%s), simulation ok=%v mode=%d",
				step, op.Kind, name, d.OK, d.Mode, d.Reason, simOK, sys.RM().Mode())
		}
		if op.Kind != OpRegister {
			continue
		}
		if !d.OK {
			rejected++
			continue
		}
		admitted++
		if rate, _ := cl.Rate(name); rate != d.RateBytesPerNS {
			t.Fatalf("step %d %s: service rate %v, simulation rate %v", step, name, d.RateBytesPerNS, rate)
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("stream never crossed the feasibility edge: %d admitted, %d rejected", admitted, rejected)
	}
	t.Logf("%s: %d admitted, %d rejected, final mode %d", spec.Policy, admitted, rejected, sys.RM().Mode())
}
