package admission

import (
	"fmt"
	"testing"

	"repro/internal/netcalc"
)

// TestEventQueueFIFO pins FIFO order through the head-indexed queue's
// compaction path: keep the queue non-empty for long enough that the
// dead-prefix compaction triggers and check nothing is lost or
// reordered.
func TestEventQueueFIFO(t *testing.T) {
	var q eventQueue
	next, want := 0, 0
	push := func() {
		q.push(event{app: AppRef{Name: fmt.Sprintf("app%d", next)}})
		next++
	}
	pop := func() {
		ev := q.pop()
		if got := fmt.Sprintf("app%d", want); ev.app.Name != got {
			t.Fatalf("pop = %q, want %q", ev.app.Name, got)
		}
		want++
	}
	// Phase 1: grow a backlog, then drain past the compaction threshold
	// (head > 32 with a live tail).
	for i := 0; i < 100; i++ {
		push()
	}
	for i := 0; i < 60; i++ {
		pop()
	}
	// Phase 2: steady churn with a standing backlog.
	for i := 0; i < 500; i++ {
		push()
		pop()
	}
	// Drain.
	for !q.empty() {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d events, pushed %d", want, next)
	}
}

// TestEventQueueAllocFlat checks the satellite fix: a long
// activation/termination churn cycle through the RM's pending queue
// must not reallocate per event. The old `pending = pending[1:]`
// reslice kept the dead prefix alive so every cycle grew the backing
// array; the head-indexed queue reuses it.
func TestEventQueueAllocFlat(t *testing.T) {
	var q eventQueue
	ev := event{typ: ActMsg, app: AppRef{Name: "app"}}
	// Warm up: let the buffer reach its steady-state capacity.
	for i := 0; i < 64; i++ {
		q.push(ev)
		q.pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.push(ev)
		q.pop()
	})
	if avg != 0 {
		t.Fatalf("push/pop churn allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDelayBoundCheckIncremental verifies the bound memo: a decision
// that re-evaluates (burst, rate) pairs it has seen does no curve
// arithmetic, apps sharing a contract and a rate share one entry, and a
// service-latency change flushes the memo.
func TestDelayBoundCheckIncremental(t *testing.T) {
	cache := netcalc.NewCache(0)
	s := NewSet(Spec{Policy: "symmetric", TotalBytesPerNS: 1.2, ServiceLatencyNS: 100}, cache)
	for _, name := range []string{"a", "b", "c"} {
		if _, reason := s.Register(contract(name, BestEffort, 64, 1e6)); reason != "" {
			t.Fatal(reason)
		}
	}
	// Modes 1, 2, 3: rates 1.2, 0.6, 0.4, one memo entry each.
	if len(s.bounds) != 3 {
		t.Fatalf("memo entries = %d, want 3 (one per distinct rate)", len(s.bounds))
	}
	misses := cache.Stats().Misses

	// Same mode again: a fresh decision must be free.
	if reason := s.Withdraw("c"); reason != "" {
		t.Fatal(reason)
	}
	if _, reason := s.Register(contract("c", BestEffort, 64, 1e6)); reason != "" {
		t.Fatal(reason)
	}
	if got := cache.Stats().Misses; got != misses || len(s.bounds) != 3 {
		t.Fatalf("repeat decision recomputed: misses %d -> %d, memo %d", misses, got, len(s.bounds))
	}

	// A new burst at a known rate is one new entry.
	if reason := s.Withdraw("c"); reason != "" {
		t.Fatal(reason)
	}
	if _, reason := s.Register(contract("c", BestEffort, 128, 1e6)); reason != "" {
		t.Fatal(reason)
	}
	if len(s.bounds) != 4 {
		t.Fatalf("memo entries = %d, want 4", len(s.bounds))
	}

	// A latency change invalidates every entry; revalidation refills
	// only the current mode's two (burst, rate) pairs.
	if reason := s.SetSpec(Spec{Policy: "symmetric", TotalBytesPerNS: 1.2, ServiceLatencyNS: 150}); reason != "" {
		t.Fatal(reason)
	}
	if len(s.bounds) != 2 {
		t.Fatalf("memo entries after latency change = %d, want 2", len(s.bounds))
	}
}

// TestDelayBoundCheckMatchesUncached pins bit-identical decisions: the
// memoized Set must agree with the uncached reference on every step of
// a churn sequence that sweeps the rate across the feasibility
// boundary in both directions, including rejections.
func TestDelayBoundCheckMatchesUncached(t *testing.T) {
	spec := Spec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100}
	s, ref := testSet(spec), newRefSet(spec)
	reqs := []AppRef{
		contract("a", BestEffort, 256, 2200),
		contract("b", Critical, 512, 2400),
		contract("c", BestEffort, 1024, 2600),
		contract("d", BestEffort, 64, 0),
	}
	for step := 0; step < 200; step++ {
		app := reqs[step%len(reqs)]
		var got, want string
		switch step % 3 {
		case 0, 1:
			var gr, wr float64
			gr, got = s.Register(app)
			wr, want = ref.register(app)
			if gr != wr {
				t.Fatalf("step %d: rate %v, reference %v", step, gr, wr)
			}
		default:
			got, want = s.Withdraw(app.Name), ref.withdraw(app.Name)
		}
		if got != want || s.Len() != len(ref.apps) {
			t.Fatalf("step %d: reason %q mode %d, reference %q mode %d", step, got, s.Len(), want, len(ref.apps))
		}
		if step%7 == 0 {
			spec.TotalBytesPerNS = 0.2 + 0.05*float64(step%20)
			if got, want := s.SetSpec(spec), ref.setSpec(spec); got != want {
				t.Fatalf("step %d: mode change %q, reference %q", step, got, want)
			}
		}
	}
}
