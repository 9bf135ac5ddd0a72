package sim

import (
	"container/heap"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
)

// This file benchmarks the pooled, specialized-heap kernel against a
// test-only copy of the engine it replaced (container/heap over
// *scheduled pointers, one allocation per Push plus interface boxing).
// The copy exists so the speedup claim in BENCH_kernel.json is an
// honest apples-to-apples measurement, not a guess against git
// history. See docs/PERFORMANCE.md.

// ---- baseline: the previous container/heap engine ----

type oldScheduled struct {
	at       Time
	seq      uint64
	fn       Event
	canceled bool
}

type oldEventHeap []*oldScheduled

func (h oldEventHeap) Len() int { return len(h) }
func (h oldEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oldEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oldEventHeap) Push(x interface{}) { *h = append(*h, x.(*oldScheduled)) }
func (h *oldEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

type oldEngine struct {
	now   Time
	queue oldEventHeap
	seq   uint64
	fired uint64
}

func (e *oldEngine) At(t Time, fn Event) {
	ev := &oldScheduled{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
}

func (e *oldEngine) After(d Duration, fn Event) { e.At(e.now+d, fn) }

func (e *oldEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oldScheduled)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

func (e *oldEngine) Run() {
	for e.Step() {
	}
}

// ---- workload ----

// benchFanout mimics the simulator's event mix: a few self-propagating
// activities, each firing re-arms itself and spawns a burst of near-term
// one-shots (packet hops, completions) at mixed offsets so the heap
// sees both FIFO ties and interleaved timestamps.
const (
	benchActivities = 16
	benchBurst      = 4
)

func benchWorkloadNew(e *Engine, events int) {
	remaining := events
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		for i := 0; i < benchBurst; i++ {
			if remaining <= 0 {
				break
			}
			remaining--
			e.After(Duration(1+i), func() {})
		}
		e.After(10, tick)
	}
	for a := 0; a < benchActivities; a++ {
		e.At(Time(a), tick)
	}
	e.Run()
}

func benchWorkloadOld(e *oldEngine, events int) {
	remaining := events
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		for i := 0; i < benchBurst; i++ {
			if remaining <= 0 {
				break
			}
			remaining--
			e.After(Duration(1+i), func() {})
		}
		e.After(10, tick)
	}
	for a := 0; a < benchActivities; a++ {
		e.At(Time(a), tick)
	}
	e.Run()
}

const benchEvents = 100_000

func BenchmarkKernelDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWorkloadNew(NewEngine(), benchEvents)
	}
	b.ReportMetric(float64(benchEvents), "events/op")
}

func BenchmarkKernelDispatchBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWorkloadOld(&oldEngine{}, benchEvents)
	}
	b.ReportMetric(float64(benchEvents), "events/op")
}

func BenchmarkKernelEvery(b *testing.B) {
	// Pure periodic load: the shape Every was built for — one record
	// reused for the activity's whole lifetime.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		fired := 0
		for a := 0; a < benchActivities; a++ {
			var h Handle
			h = e.Every(10, func() {
				fired++
				if fired >= benchEvents {
					h.Cancel()
				}
			})
		}
		e.Run()
	}
	b.ReportMetric(float64(benchEvents), "events/op")
}

func BenchmarkKernelCancelHeavy(b *testing.B) {
	// Watchdog-style load: most events are canceled before firing
	// (deadline timers that almost always get defused), stressing lazy
	// cancellation and compaction.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		remaining := benchEvents
		var tick func()
		tick = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			h := e.After(100, func() {})
			h.Cancel()
			e.After(1, tick)
		}
		e.At(0, tick)
		e.Run()
	}
	b.ReportMetric(float64(benchEvents), "events/op")
}

// ---- machine-readable emission for the CI smoke job ----

var benchOut = flag.String("benchout", "", "write kernel benchmark results as JSON to this file")

// TestEmitBench measures the new kernel against the baseline and
// writes BENCH_kernel.json when -benchout is given:
//
//	go test ./internal/sim/ -run TestEmitBench -benchout BENCH_kernel.json
//
// It asserts the headline acceptance criteria (>=2x events/sec, ~0
// allocs per event in steady state) so CI fails on a kernel perf
// regression even without inspecting numbers.
func TestEmitBench(t *testing.T) {
	if *benchOut == "" {
		// The wall-clock gates below run only under -benchout (the CI
		// bench-smoke job). Without it, check that the timed workloads
		// dispatch their whole event budget on every kernel.
		e, old := NewEngine(), &oldEngine{}
		benchWorkloadNew(e, benchEvents)
		benchWorkloadOld(old, benchEvents)
		if e.Fired() != old.fired || e.Fired() < benchEvents {
			t.Fatalf("dispatch workload fired %d events, baseline %d, budget %d", e.Fired(), old.fired, benchEvents)
		}
		for _, parts := range []int{1, 2, 4, 8} {
			par := NewParallel(parts, benchParallelLookahead)
			benchWorkloadParallel(par, benchEvents)
			if par.Fired() < benchEvents {
				t.Fatalf("parallel workload p%d fired %d events, budget %d", parts, par.Fired(), benchEvents)
			}
		}
		return
	}
	newRes := testing.Benchmark(BenchmarkKernelDispatch)
	oldRes := testing.Benchmark(BenchmarkKernelDispatchBaseline)

	perEventNew := float64(newRes.NsPerOp()) / benchEvents
	perEventOld := float64(oldRes.NsPerOp()) / benchEvents
	evPerSecNew := 1e9 / perEventNew
	evPerSecOld := 1e9 / perEventOld
	speedup := evPerSecNew / evPerSecOld
	allocsPerEventNew := float64(newRes.AllocsPerOp()) / benchEvents
	allocsPerEventOld := float64(oldRes.AllocsPerOp()) / benchEvents

	t.Logf("new:      %.1f ns/event, %.0f events/sec, %.3f allocs/event",
		perEventNew, evPerSecNew, allocsPerEventNew)
	t.Logf("baseline: %.1f ns/event, %.0f events/sec, %.3f allocs/event",
		perEventOld, evPerSecOld, allocsPerEventOld)
	t.Logf("speedup: %.2fx", speedup)

	// Target is >=2x (see BENCH_kernel.json); the automated gate keeps
	// a margin below that so shared-runner scheduling noise does not
	// flake CI, while still catching any real regression.
	if speedup < 1.6 {
		t.Errorf("kernel speedup %.2fx, want >= 2x over the container/heap baseline (gate: 1.6x)", speedup)
	}
	// The workload closures themselves allocate a handful of objects per
	// activity; amortized per event the kernel must be ~0.
	if allocsPerEventNew > 0.1 {
		t.Errorf("allocs/event = %.3f, want ~0 (pooled records must not allocate in steady state)", allocsPerEventNew)
	}

	// Parallel-kernel scaling series: the same dispatch workload
	// sharded over 1/2/4/8 conservative-lookahead partitions. The
	// scaling floor is meaningful only where cores exist to scale onto,
	// so the gate arms when GOMAXPROCS allows 4 truly concurrent
	// partition windows (the CI bench-smoke matrix does); the emitted
	// numbers are honest either way, with gomaxprocs recorded alongside
	// so a reader can tell a 1-core series from a 4-core one.
	gomaxprocs := runtime.GOMAXPROCS(0)
	type parPoint struct {
		Partitions     int     `json:"partitions"`
		NsPerEvent     float64 `json:"ns_per_event"`
		EventsPerSec   float64 `json:"events_per_sec"`
		AllocsPerEvent float64 `json:"allocs_per_event"`
	}
	var series []parPoint
	perSec := map[int]float64{}
	for _, parts := range []int{1, 2, 4, 8} {
		res := testing.Benchmark(benchmarkKernelParallel(parts))
		perEvent := float64(res.NsPerOp()) / benchEvents
		pt := parPoint{
			Partitions:     parts,
			NsPerEvent:     perEvent,
			EventsPerSec:   1e9 / perEvent,
			AllocsPerEvent: float64(res.AllocsPerOp()) / benchEvents,
		}
		perSec[parts] = pt.EventsPerSec
		series = append(series, pt)
		t.Logf("parallel p%d: %.1f ns/event, %.0f events/sec, %.3f allocs/event",
			parts, pt.NsPerEvent, pt.EventsPerSec, pt.AllocsPerEvent)
	}
	if gomaxprocs >= 4 {
		if scale := perSec[4] / perSec[1]; scale < 1.5 {
			t.Errorf("parallel kernel scaling %.2fx at 4 partitions (GOMAXPROCS=%d), want >= 1.5x", scale, gomaxprocs)
		}
	} else {
		t.Logf("GOMAXPROCS=%d < 4: scaling floor not enforced on this host (CI bench-smoke matrix enforces it)", gomaxprocs)
	}

	out := map[string]interface{}{
		"benchmark": "kernel_dispatch",
		"events":    benchEvents,
		"new": map[string]float64{
			"ns_per_event":     perEventNew,
			"events_per_sec":   evPerSecNew,
			"allocs_per_event": allocsPerEventNew,
		},
		"baseline_container_heap": map[string]float64{
			"ns_per_event":     perEventOld,
			"events_per_sec":   evPerSecOld,
			"allocs_per_event": allocsPerEventOld,
		},
		"speedup": speedup,
		"parallel": map[string]interface{}{
			"gomaxprocs": gomaxprocs,
			"series":     series,
		},
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
