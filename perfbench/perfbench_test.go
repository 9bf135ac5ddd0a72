package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLayerOfFunc(t *testing.T) {
	for _, c := range []struct {
		fn, layer string
		known     bool
	}{
		{"repro/internal/noc.(*router).tryOutput", "noc", true},
		{"repro/internal/sim.(*Engine).Step", "sim", true},
		{"repro/internal/dram/wcd.Bound", "dram", true},
		{"repro/internal/rmserver.(*platform).checkAll", "rmserver", true},
		{"repro/internal/obs.Open", "other", true},
		{"main.runPass", "perfbench", true},
		{"net/http.(*conn).serve", "nethttp", true},
		{"encoding/json.(*decodeState).object", "nethttp", true},
		{"syscall.Syscall", "nethttp", true},
		{"runtime.gcBgMarkWorker", "runtime.gc", true},
		{"runtime.scanobject", "runtime.gc", true},
		{"runtime.mallocgc", "runtime", true},
		{"runtime.futex", "runtime", true},
		{"runtime.mapaccess2_fast64", "other", false},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "other", false},
		{"sort.Search", "other", false},
		{"strconv.ParseFloat", "other", false},
	} {
		layer, known := layerOfFunc(c.fn)
		if layer != c.layer || known != c.known {
			t.Errorf("layerOfFunc(%q) = %q, %v; want %q, %v", c.fn, layer, known, c.layer, c.known)
		}
	}
}

func TestReduceSharesWalksPastHelpers(t *testing.T) {
	shares := reduceShares([]profSample{
		{stack: []string{"repro/internal/noc.(*router).kick"}, value: 50},
		// A map lookup inside the rmserver bound memo is rmserver's time.
		{stack: []string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess2", "repro/internal/rmserver.(*platform).bound"}, value: 20},
		{stack: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, value: 10},
		{stack: []string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, value: 15},
		{stack: []string{"sort.Search"}, value: 5},
	})
	want := map[string]float64{"noc": 0.5, "rmserver": 0.2, "runtime.gc": 0.1, "nethttp": 0.15, "other": 0.05}
	for l, v := range shares {
		if d := v - want[l]; d > 1e-12 || d < -1e-12 {
			t.Errorf("share[%s] = %g, want %g", l, v, want[l])
		}
	}
	for _, l := range cpuLayers {
		if _, ok := shares[l]; !ok {
			t.Errorf("layer %s missing from the shares", l)
		}
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	shares := reduceShares(samples)
	if shares["perfbench"] < 0.5 {
		t.Errorf("perfbench share %.2f of a profile spent in burn; shares %v", shares["perfbench"], shares)
	}
}

// fakeClock advances only when told to: sending a request takes the
// time the test assigns it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	const interval = 10 * time.Millisecond
	// Request 0 stalls for 35 ms; the rest take 2 ms.
	cost := []time.Duration{35 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	var prepared []int
	s := openLoop(c, start, interval, len(cost), 0, func(k int) { prepared = append(prepared, k) }, func(k int) error {
		c.now = c.now.Add(cost[k])
		return nil
	})
	// Due times 0,10,20,30,40 ms. Request 1 goes out at 35 ms (25 late)
	// and ends at 37; 2 at 37 (17 late) ends 39; 3 at 39 (9 late) ends
	// 41; 4 (due 40) at 41 ends 43.
	wantLate := []time.Duration{0, 25, 17, 9, 1}
	wantLat := []time.Duration{35, 27, 19, 11, 3}
	if len(s) != len(cost) || len(prepared) != len(cost) {
		t.Fatalf("got %d samples, %d prepared; want %d", len(s), len(prepared), len(cost))
	}
	for k := range s {
		if s[k].late != wantLate[k]*time.Millisecond || s[k].latency != wantLat[k]*time.Millisecond {
			t.Errorf("request %d: latency %v late %v; want %v, %v", k, s[k].latency, s[k].late, wantLat[k]*time.Millisecond, wantLate[k]*time.Millisecond)
		}
	}
	_, _, lateP99, _ := latencyStats(s)
	if lateP99 != 25 {
		t.Errorf("lateness p99 = %v ms, want 25", lateP99)
	}
}

func TestOpenLoopAbortsWhenBehind(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	s := openLoop(c, c.now, time.Millisecond, 100, 5*time.Millisecond, func(int) {}, func(int) error {
		c.now = c.now.Add(2 * time.Millisecond) // twice the interval: the backlog grows
		return nil
	})
	if len(s) == 100 || len(s) < 2 {
		t.Fatalf("sent %d of 100 requests; want an early stop once 5 ms behind", len(s))
	}
	if last := s[len(s)-1].late; last > 5*time.Millisecond {
		t.Errorf("last sent request was %v late, beyond the abort threshold", last)
	}
}

func TestDigestStableAcrossRuns(t *testing.T) {
	short := func(seed uint64) []namedSpec {
		var out []namedSpec
		for _, ns := range contentionSpecs(seed)[:2] {
			ns.spec.Duration = 20 * sim.Microsecond
			out = append(out, ns)
		}
		for _, ns := range bigMeshSpecs(0)(seed) {
			ns.spec.Duration = 2 * sim.Microsecond
			out = append(out, ns)
		}
		return out
	}
	w := simWorkload{name: "short", specs: short, slices: 4}
	a, err := runPass(w, 3, passOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPass(w, 3, passOptions{spans: newSpanRecorder(1 << 10), capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := a.rec.diff(b.rec); d != "" {
		t.Fatalf("untraced and traced runs differ: %s", d)
	}
	if a.rec.digest() != b.rec.digest() {
		t.Fatalf("digests differ: %s vs %s", a.rec.digest(), b.rec.digest())
	}
	if msg := b.rec.against(committedDigest{Digest: a.rec.digest(), Fields: a.rec.fieldDigests()}); msg != "" {
		t.Fatal(msg)
	}
	// A changed statistic is named.
	b.rec.values[0] += "1"
	if d := a.rec.diff(b.rec); d == "" {
		t.Fatal("diff missed a changed statistic")
	}
	if msg := b.rec.against(committedDigest{Digest: a.rec.digest(), Fields: a.rec.fieldDigests()}); msg == "" {
		t.Fatal("committed check missed a changed statistic")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Overlapping children count once; the part outside the parent
		// is clipped.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "a", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		{ID: 6, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40 * ms, 2: 20 * ms, 3: 20 * ms, 4: 10 * ms, 5: 30 * ms, 6: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 30*ms {
		t.Errorf("self time of a = %v, want 30ms", byName["a"])
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Error("Chrome trace lacks traceEvents")
	}
}

func TestSustainedRateInterpolates(t *testing.T) {
	steps := []rateStep{{rate: 1e5, p99ms: 3}, {rate: 2e5, p99ms: 4}, {rate: 4e5, p99ms: 6, miss: "p99 over the limit"}}
	// 5 ms is halfway from 4 to 6 ms: halfway from 2e5 to 4e5 in log rate.
	if got, want := sustainedRate(steps), 2e5*1.4142135623730951; got < want*0.999 || got > want*1.001 {
		t.Errorf("sustainedRate = %g, want %g", got, want)
	}
	steps[2].miss = "backlog"
	steps[2].p99ms = 4.5
	if got := sustainedRate(steps); got != 2e5 {
		t.Errorf("a backlog miss should not interpolate: got %g, want 2e5", got)
	}
}
