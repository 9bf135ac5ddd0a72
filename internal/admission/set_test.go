package admission

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// testSet is an empty set under spec with a private operator cache.
func testSet(spec Spec) *Set { return NewSet(spec, netcalc.NewCache(0)) }

// contract registers name with a (burst, deadline) requirement.
func contract(name string, crit Criticality, burst, deadline float64) AppRef {
	return AppRef{Name: name, Crit: crit, Req: Requirement{BurstBytes: burst, DeadlineNS: deadline}}
}

// TestDelayBoundCheckAccepts: Set's delay-bound test admits an app
// whose rate-latency bound meets its deadline.
func TestDelayBoundCheckAccepts(t *testing.T) {
	s := testSet(Spec{Policy: "symmetric", TotalBytesPerNS: 0.8, ServiceLatencyNS: 100})
	// d = 100 + 64/0.8 = 180ns < 1000ns.
	rate, reason := s.Register(contract("crit", Critical, 64, 1000))
	if reason != "" || rate != 0.8 {
		t.Errorf("feasible admission: rate %v, reason %q", rate, reason)
	}
}

func TestDelayBoundCheckRejectsDeadlineViolation(t *testing.T) {
	s := testSet(Spec{Policy: "symmetric", TotalBytesPerNS: 0.1, ServiceLatencyNS: 100})
	// d = 100 + 64/0.1 = 740ns > 150ns.
	if _, reason := s.Register(contract("crit", Critical, 64, 150)); !strings.Contains(reason, "exceeds deadline") {
		t.Errorf("deadline violation: reason %q", reason)
	}
	if s.Len() != 0 {
		t.Errorf("rejected app left in the set: mode %d", s.Len())
	}
	// Zero rate is always a violation for a guaranteed app: the
	// critical share eats the whole budget and the floor is 0.
	s = testSet(Spec{Policy: "non-symmetric", TotalBytesPerNS: 1, CriticalBytesPerNS: 1, ServiceLatencyNS: 100})
	if _, reason := s.Register(contract("c", Critical, 0, 0)); reason != "" {
		t.Fatal(reason)
	}
	if _, reason := s.Register(contract("be", BestEffort, 64, 1e9)); !strings.Contains(reason, "no bandwidth") {
		t.Errorf("zero-rate assignment: reason %q", reason)
	}
}

func TestDelayBoundCheckIgnoresBestEffort(t *testing.T) {
	s := testSet(Spec{Policy: "non-symmetric", TotalBytesPerNS: 1, CriticalBytesPerNS: 1, ServiceLatencyNS: 100})
	for i := 0; i < 4; i++ {
		// Best effort gets rate 0 once the critical app is in, but a
		// deadline-free app has nothing to check.
		crit := Criticality(i % 2)
		if _, reason := s.Register(contract(fmt.Sprintf("be%d", i), crit, 1e9, 0)); reason != "" {
			t.Errorf("app without a requirement rejected: %s", reason)
		}
	}
}

// TestSetDuplicateUnknownAndCap covers the non-bound rejections.
func TestSetDuplicateUnknownAndCap(t *testing.T) {
	s := testSet(Spec{Policy: "symmetric", TotalBytesPerNS: 1, MaxApps: 2})
	for _, name := range []string{"a", "b"} {
		if _, reason := s.Register(contract(name, BestEffort, 1, 1e6)); reason != "" {
			t.Fatal(reason)
		}
	}
	if _, reason := s.Register(contract("c", BestEffort, 1, 1e6)); reason != "platform full" {
		t.Errorf("over cap: reason %q", reason)
	}
	if reason := s.Withdraw("b"); reason != "" {
		t.Fatal(reason)
	}
	if _, reason := s.Register(contract("a", BestEffort, 1, 1e6)); reason != "duplicate registration" {
		t.Errorf("duplicate: reason %q", reason)
	}
	if reason := s.Withdraw("ghost"); reason != "not registered" {
		t.Errorf("ghost withdraw: reason %q", reason)
	}
	if reason := s.SetSpec(Spec{Policy: "symmetric", TotalBytesPerNS: 1, MaxApps: 1}); reason != "" {
		t.Errorf("cap at the current mode refused: %s", reason)
	}
	if reason := s.SetSpec(Spec{Policy: "bogus", TotalBytesPerNS: 1}); !strings.Contains(reason, "unknown policy") {
		t.Errorf("invalid spec: reason %q", reason)
	}
}

// TestSetModeChangeRollback: a spec change that would break an
// admitted guarantee is refused and leaves the old spec in force.
func TestSetModeChangeRollback(t *testing.T) {
	s := testSet(Spec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100})
	if _, reason := s.Register(contract("v", BestEffort, 100, 350)); reason != "" {
		t.Fatal(reason)
	}
	// 100 + 100/1 = 200 ns; a 300 ns latency pushes it to 400 > 350.
	reason := s.SetSpec(Spec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 300})
	if want := "mode change would violate v delay bound 400.0 ns exceeds deadline 350.0 ns"; reason != want {
		t.Errorf("violating mode change: reason %q, want %q", reason, want)
	}
	// The old spec is still in force: a second app gets 1/2.
	if rate, reason := s.Register(contract("w", BestEffort, 0, 0)); reason != "" || rate != 0.5 {
		t.Errorf("spec not rolled back: rate %v, reason %q", rate, reason)
	}
	if rate, ok := s.Rate("v"); !ok || rate != 0.5 {
		t.Errorf("rate after rollback = %v, %v", rate, ok)
	}
}

// TestOnlineAdmissionRejection runs the full protocol: a system whose
// symmetric budget supports two guaranteed apps rejects the third,
// which would dilute everyone below the deadline.
func TestOnlineAdmissionRejection(t *testing.T) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0},
		Spec{Policy: "symmetric", TotalBytesPerNS: 1.0, ServiceLatencyNS: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Deadline 260ns, burst 64B: needs rate >= 64/(260-100) = 0.4 B/ns.
	// Mode 2 gives 0.5 (ok), mode 3 gives 0.333 (violation).
	req := Requirement{BurstBytes: 64, DeadlineNS: 260}
	clients := make([]*Client, 3)
	for i := 0; i < 3; i++ {
		cl, err := sys.Client(noc.Coord{X: 1 + i, Y: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(fmt.Sprintf("app%d", i), Critical, req); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	for i := 0; i < 3; i++ {
		i := i
		eng.At(sim.Duration(i)*sim.Microsecond, func() {
			_ = clients[i].Submit(fmt.Sprintf("app%d", i),
				&noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
		})
	}
	eng.Run()

	if !clients[0].AppActive("app0") || !clients[1].AppActive("app1") {
		t.Fatal("first two apps should be admitted")
	}
	if clients[2].AppActive("app2") {
		t.Fatal("third app admitted despite violating the analytic bound")
	}
	if !clients[2].AppRejected("app2") {
		t.Error("rejection not recorded at the client")
	}
	if sys.RM().Mode() != 2 {
		t.Errorf("mode = %d, want 2", sys.RM().Mode())
	}
	if got := sys.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestRejectedAppCanRetryAfterCapacityFrees is the dynamic half: after
// a guaranteed app terminates, the previously rejected one is admitted
// on retry.
func TestRejectedAppCanRetryAfterCapacityFrees(t *testing.T) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0},
		Spec{Policy: "symmetric", TotalBytesPerNS: 1.0, ServiceLatencyNS: 100})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, x int) *Client {
		cl, err := sys.Client(noc.Coord{X: x, Y: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(name, Critical, Requirement{BurstBytes: 64, DeadlineNS: 260}); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	ca, cb, cc := mk("a", 0), mk("b", 1), mk("c", 2)
	submit := func(cl *Client, name string) {
		_ = cl.Submit(name, &noc.Packet{Dst: noc.Coord{X: 3, Y: 3}, Bytes: 64})
	}
	submit(ca, "a")
	submit(cb, "b")
	eng.Run()
	submit(cc, "c") // mode 3 would violate: rejected
	eng.Run()
	if !cc.AppRejected("c") {
		t.Fatal("c should have been rejected at mode 3")
	}
	if err := ca.Terminate("a"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	submit(cc, "c") // retry at mode 2: fits now
	eng.Run()
	if !cc.AppActive("c") {
		t.Fatal("c not admitted after capacity freed")
	}
	if cc.AppRejected("c") {
		t.Error("stale rejection flag after successful retry")
	}
}

// TestRequirementValidate is the contract table: a negative or
// non-finite burst and a non-finite deadline are refused, while a
// non-positive finite deadline still declares best effort.
func TestRequirementValidate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		burst, deadline float64
		ok              bool
	}{
		{64, 600, true},
		{0, 600, true},
		{64, 0, true},
		{64, -5, true},
		{-512, 600, false},
		{nan, 600, false},
		{inf, 600, false},
		{-inf, 600, false},
		{64, nan, false},
		{64, inf, false},
		{64, -inf, false},
	} {
		err := Requirement{BurstBytes: c.burst, DeadlineNS: c.deadline}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(burst %v, deadline %v) = %v, want ok=%v", c.burst, c.deadline, err, c.ok)
		}
	}
	// The in-sim carrier refuses a bad contract at registration.
	eng := sim.NewEngine()
	mesh, _ := noc.New(eng, noc.DefaultConfig())
	sys, err := NewSystem(eng, mesh, noc.Coord{X: 0, Y: 0}, sym(1))
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := sys.Client(noc.Coord{X: 1, Y: 1})
	if err := cl.Register("a", Critical, Requirement{BurstBytes: -512, DeadlineNS: 600}); err == nil {
		t.Error("negative burst registered")
	}
}
