// Admission control walkthrough (Section V, Figs. 6-7): applications
// activate and terminate on a mesh; every event drives the Resource
// Manager through a stop/configure cycle that renegotiates injection
// rates. The example contrasts the symmetric policy (everyone degrades
// uniformly) with the non-symmetric one (critical flows keep their
// guarantee) by measuring each application's achieved throughput.
package main

import (
	"fmt"
	"log"

	"repro/internal/admission"
	"repro/internal/noc"
	"repro/internal/sim"
)

func main() {
	fmt.Println("== symmetric policy ==")
	runScenario(admission.Spec{Policy: "symmetric", TotalBytesPerNS: 1.6})
	fmt.Println()
	fmt.Println("== non-symmetric policy (crit guaranteed 0.8 B/ns) ==")
	runScenario(admission.Spec{
		Policy:             "non-symmetric",
		TotalBytesPerNS:    1.6,
		CriticalBytesPerNS: 0.8,
		FloorBytesPerNS:    0.05,
	})
}

func runScenario(spec admission.Spec) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := admission.NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, spec)
	if err != nil {
		log.Fatal(err)
	}

	type appDef struct {
		name  string
		node  noc.Coord
		crit  admission.Criticality
		start sim.Duration
		stop  sim.Duration // 0 = never terminates
	}
	defs := []appDef{
		{"brake-ctrl", noc.Coord{X: 1, Y: 1}, admission.Critical, 0, 0},
		{"nav", noc.Coord{X: 2, Y: 1}, admission.BestEffort, 20 * sim.Microsecond, 0},
		{"media", noc.Coord{X: 1, Y: 2}, admission.BestEffort, 40 * sim.Microsecond, 160 * sim.Microsecond},
		{"ota", noc.Coord{X: 2, Y: 2}, admission.BestEffort, 60 * sim.Microsecond, 0},
	}

	clients := make(map[string]*admission.Client)
	for _, d := range defs {
		cl, err := sys.Client(d.node)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.Register(d.name, d.crit, admission.Requirement{}); err != nil {
			log.Fatal(err)
		}
		clients[d.name] = cl
	}
	for _, d := range defs {
		d := d
		eng.At(sim.Time(d.start), func() {
			// Saturating sender: 2000 packets of 64B.
			for k := 0; k < 2000; k++ {
				_ = clients[d.name].Submit(d.name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
			}
		})
		if d.stop > 0 {
			eng.At(sim.Time(d.stop), func() {
				if err := clients[d.name].Terminate(d.name); err != nil {
					log.Printf("terminate %s: %v", d.name, err)
				}
			})
		}
	}
	eng.RunUntil(200 * sim.Microsecond)

	fmt.Printf("%-12s %-12s %-14s %-10s\n", "app", "class", "sent (bytes)", "B/ns")
	horizonNS := 200_000.0
	for _, d := range defs {
		sent := clients[d.name].Sent(d.name)
		fmt.Printf("%-12s %-12s %-14d %.3f\n", d.name, d.crit, sent, float64(sent)/horizonNS)
	}
	st := sys.Stats()
	fmt.Printf("mode changes %d (mean latency %.0f ns), final mode %d\n",
		st.ModeChanges, st.MeanModeChangeLatencyNS(), sys.RM().Mode())
}
