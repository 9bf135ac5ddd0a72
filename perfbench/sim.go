package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mpam"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// namedSpec is one platform run of a simulator workload.
type namedSpec struct {
	label string
	spec  core.RunSpec
}

// simWorkload is a list of platform runs executed one after another on
// one goroutine: one pass of the workload.
type simWorkload struct {
	name  string
	specs func(seed uint64) []namedSpec
	// slices is how many equal RunUntil steps each run's horizon is cut
	// into; each step's wall time is one latency sample.
	slices int
}

// The paper's X1 matrix: solo, contended, and each mechanism alone and
// together, with auditor and telemetry armed as the sweep tool's
// -audit -store flags arm them.
func contentionSpecs(seed uint64) []namedSpec {
	var out []namedSpec
	for _, s := range sweep.ScenarioMatrix(6, 4*sim.Millisecond, []uint64{seed}) {
		rs := s.Platform
		rs.Audit = true
		rs.Telemetry = true
		out = append(out, namedSpec{s.Label, rs})
	}
	return out
}

// bigMeshHorizon is the simulated time of one big-mesh pass.
const bigMeshHorizon = 200 * sim.Microsecond

func bigMeshSpecs(partitions int) func(uint64) []namedSpec {
	return func(seed uint64) []namedSpec {
		rs := core.BigMeshSpec(partitions)
		rs.HogClass = trace.Infotainment // as socsim builds the big mesh
		rs.Seed = seed
		rs.Duration = bigMeshHorizon
		return []namedSpec{{"bigmesh", rs}}
	}
}

var simWorkloads = map[string]simWorkload{
	"contention-matrix": {name: "contention-matrix", specs: contentionSpecs, slices: 100},
	"bigmesh":           {name: "bigmesh", specs: bigMeshSpecs(0), slices: 100},
	"bigmesh-p2":        {name: "bigmesh-p2", specs: bigMeshSpecs(2), slices: 100},
}

// passResult is one pass's host timings, simulated outcome and the
// platforms it built (kept for counters and the live-heap reading).
type passResult struct {
	setup, run, snapshot time.Duration
	accesses             uint64
	builds               []time.Duration // per spec
	slices               []time.Duration // per RunUntil slice, in spec order
	rec                  *statRecord
	platforms            []*core.Platform
	labels               []string
	captures             []*eventCapture
	pending              []float64 // mean live queue depth per run
}

// passOptions selects the traced-pass instruments.
type passOptions struct {
	spans   *spanRecorder
	capture bool // record event timestamps for the kernel replay probe
}

// runPass executes every spec of the workload once.
func runPass(w simWorkload, seed uint64, opt passOptions) (*passResult, error) {
	res := &passResult{rec: &statRecord{}}
	tr := opt.spans
	for _, ns := range w.specs(seed) {
		rootID, rootStart := tr.begin()
		t0 := time.Now()
		var (
			p   *core.Platform
			err error
		)
		tr.do(rootID, rootID, "core.BuildPlatform", func() {
			p, _, err = core.BuildPlatform(ns.spec)
		})
		res.builds = append(res.builds, time.Since(t0))
		res.setup += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: build %s: %w", w.name, ns.label, err)
		}
		var capture *eventCapture
		if opt.capture {
			capture = attachCapture(p)
			res.captures = append(res.captures, capture)
		}
		t1 := time.Now()
		tr.do(rootID, rootID, "Platform.StartApps", func() { p.StartApps() })
		var pendingSum float64
		for k := 1; k <= w.slices; k++ {
			at := sim.Time(int64(ns.spec.Duration) * int64(k) / int64(w.slices))
			s0 := time.Now()
			tr.do(rootID, rootID, "Platform.RunUntil", func() { p.RunUntil(at) })
			res.slices = append(res.slices, time.Since(s0))
			pendingSum += float64(livePending(p))
		}
		res.run += time.Since(t1)
		res.pending = append(res.pending, pendingSum/float64(w.slices))
		if tel := p.Telemetry(); tel != nil {
			s0 := time.Now()
			var err error
			tr.do(rootID, rootID, "Platform.SnapshotMetrics", func() {
				p.SnapshotMetrics()
				var buf bytes.Buffer
				err = tel.Registry.WriteOpenMetrics(&buf)
			})
			res.snapshot += time.Since(s0)
			if err != nil {
				return nil, fmt.Errorf("%s: snapshot %s: %w", w.name, ns.label, err)
			}
		}
		tr.end(rootID, 0, rootID, "spec "+ns.label, rootStart)
		for _, name := range p.Apps() {
			if app, err := p.App(name); err == nil {
				res.accesses += app.Stats().Issued
			}
		}
		res.rec.recordPlatform(ns.label, p)
		res.platforms = append(res.platforms, p)
		res.labels = append(res.labels, ns.label)
	}
	return res, nil
}

func livePending(p *core.Platform) int {
	if k := p.Kernel(); k != nil {
		return k.PendingLive()
	}
	return p.Eng.PendingLive()
}

func eventsFired(p *core.Platform) uint64 {
	if k := p.Kernel(); k != nil {
		return k.Fired()
	}
	return p.Eng.Fired()
}

// eventCapture records the timestamps of dispatched events, per kernel
// partition, up to a cap. On a telemetry-armed sequential platform it
// forwards to a fresh engine observer on the platform's registry, so
// the platform's own event counters keep counting.
type eventCapture struct {
	parts [][]sim.Time
}

const captureCap = 1 << 19

type captureObserver struct {
	times *[]sim.Time
	inner sim.Observer
}

func (o captureObserver) BeforeEvent(at sim.Time) {
	if len(*o.times) < captureCap {
		*o.times = append(*o.times, at)
	}
	if o.inner != nil {
		o.inner.BeforeEvent(at)
	}
}

func (o captureObserver) AfterEvent(at sim.Time) {
	if o.inner != nil {
		o.inner.AfterEvent(at)
	}
}

func attachCapture(p *core.Platform) *eventCapture {
	if k := p.Kernel(); k != nil {
		c := &eventCapture{parts: make([][]sim.Time, k.Partitions())}
		for i := range c.parts {
			k.Partition(i).SetObserver(captureObserver{times: &c.parts[i]})
		}
		return c
	}
	c := &eventCapture{parts: make([][]sim.Time, 1)}
	var inner sim.Observer
	if tel := p.Telemetry(); tel != nil && !p.Distributed() {
		inner = telemetry.NewEngineObserver(tel.Registry, tel.Tracer, 0)
	}
	p.Eng.SetObserver(captureObserver{times: &c.parts[0], inner: inner})
	return c
}

// merged returns every captured timestamp in dispatch order.
func (c *eventCapture) merged() []sim.Time {
	var all []sim.Time
	for _, p := range c.parts {
		all = append(all, p...)
	}
	if len(c.parts) > 1 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	}
	return all
}

// simTimed is the outcome of the timed (untraced) phase. Every pass
// does identical simulated work, so each RunUntil slice and each build
// is timed once per pass, and the metrics use each one's median over
// passes: a burst of host noise that hits a few passes drops out.
type simTimed struct {
	passes    int
	passWalls []float64         // build + run seconds per pass
	builds    [][]time.Duration // per spec, one sample per build
	slots     [][]time.Duration // per slice, one sample per pass
	accesses  uint64            // per pass
	heapMB    float64
	problems  []string
	reference *statRecord
}

// extraBuilds is how many more times each spec is built, beyond once per
// pass, to sample set-up time.
const extraBuilds = 8

// runSimTimed runs passes until the budget is spent (at least minPasses),
// checking that every pass reproduces the first one's record.
func runSimTimed(w simWorkload, seed uint64, budget time.Duration, minPasses int) (*simTimed, error) {
	out := &simTimed{}
	specs := w.specs(seed)
	out.builds = make([][]time.Duration, len(specs))
	for i, ns := range specs {
		for k := 0; k < extraBuilds; k++ {
			t0 := time.Now()
			if _, _, err := core.BuildPlatform(ns.spec); err != nil {
				return nil, fmt.Errorf("%s: build %s: %w", w.name, ns.label, err)
			}
			out.builds[i] = append(out.builds[i], time.Since(t0))
		}
	}
	start := time.Now()
	var last *passResult
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		last = nil // let the previous pass's platforms be collected
		pr, err := runPass(w, seed, passOptions{})
		if err != nil {
			return nil, err
		}
		out.passes++
		out.passWalls = append(out.passWalls, (pr.setup + pr.run).Seconds())
		for k, d := range pr.builds {
			out.builds[k] = append(out.builds[k], d)
		}
		if out.slots == nil {
			out.slots = make([][]time.Duration, len(pr.slices))
		}
		for k, d := range pr.slices {
			out.slots[k] = append(out.slots[k], d)
		}
		if out.reference == nil {
			out.reference = pr.rec
			out.accesses = pr.accesses
		} else if d := out.reference.diff(pr.rec); d != "" {
			out.problems = append(out.problems, fmt.Sprintf("pass %d differs from pass 0: %s", i, d))
		}
		pr.rec = nil
		last = pr
	}
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(last)
	return out, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// sliceMS returns each slice's median host time in ms.
func (t *simTimed) sliceMS() []float64 {
	out := make([]float64, len(t.slots))
	for i, ds := range t.slots {
		out[i] = float64(medianDuration(ds)) / 1e6
	}
	return out
}

// accPerS is a pass's accesses over the sum of its slices' median times.
func (t *simTimed) accPerS() float64 {
	var run time.Duration
	for _, ds := range t.slots {
		run += medianDuration(ds)
	}
	return float64(t.accesses) / run.Seconds()
}

// setupS is the sum over specs of each spec's median build time.
func (t *simTimed) setupS() float64 {
	var total time.Duration
	for _, ds := range t.builds {
		total += medianDuration(ds)
	}
	return total.Seconds()
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// layerCounters reads every layer's public counters off a finished
// pass's platforms.
func layerCounters(pr *passResult) map[string]float64 {
	m := map[string]float64{}
	var (
		events, flitHops, packets                float64
		dramReq, rowHits, rowTotal, dramRejected float64
		l2Hit, l2Acc, l3Hit, l3Acc, cacheAcc     float64
		throttles, throttledUS                   float64
		mpamBytes, mpamCap                       float64
		observed, violations                     float64
		ncHits, ncMisses                         float64
		rounds, parEvents                        float64
		critMean, critP95                        float64
	)
	for i, p := range pr.platforms {
		ev := float64(eventsFired(p))
		events += ev
		if k := p.Kernel(); k != nil && k.Partitions() > 1 {
			rounds += float64(k.Rounds())
			parEvents += ev
		}
		flitHops += float64(p.Mesh().FlitHops())
		packets += float64(p.Mesh().Delivered())
		for ch := 0; ch < p.Channels(); ch++ {
			ctrl, err := p.ChannelController(ch)
			if err != nil {
				continue
			}
			st := ctrl.Stats()
			r, w := dramMasterTotal(st)
			dramReq += float64(r + w)
			rowHits += float64(st.RowHits)
			rowTotal += float64(st.RowHits + st.RowClosed + st.RowConflicts)
			dramRejected += float64(st.ReadsRejected + st.WritesRejected)
		}
		for k := 0; k < p.ClusterCount(); k++ {
			cl, err := p.Cluster(k)
			if err != nil {
				continue
			}
			for o := 0; o < 8; o++ {
				if l2 := cl.L2(); l2 != nil {
					st := l2.Stats(cache.Owner(o))
					l2Hit += float64(st.Hits)
					l2Acc += float64(st.Hits + st.Misses)
				}
				st := cl.L3().Stats(cache.Owner(o))
				l3Hit += float64(st.Hits)
				l3Acc += float64(st.Hits + st.Misses)
			}
		}
		for _, name := range p.Apps() {
			app, err := p.App(name)
			if err != nil {
				continue
			}
			st := app.Stats()
			cacheAcc += float64(st.L3Hits + st.L3Misses)
			if reg := p.ClusterRegulator(app.Config().Cluster); reg != nil {
				es := reg.Stats(name)
				throttles += float64(es.ThrottleEvents)
				throttledUS += es.ThrottledTime.Nanoseconds() / 1e3
			}
			if name == "crit" && (pr.labels[i] == "contended" || len(pr.platforms) == 1) {
				critMean = st.MeanReadLatency.Nanoseconds()
				critP95 = st.P95ReadLatency.Nanoseconds()
			}
		}
		if p.MPAMMonitors() != nil {
			for id := 0; id < 16; id++ {
				b, _ := p.MPAMServed(mpam.PARTID(id))
				mpamBytes += float64(b)
			}
			mpamCap += mpamCapacityBytesPerNS * p.Eng.Now().Nanoseconds() * float64(p.Channels())
		}
		if aud := p.Auditor(); aud != nil {
			for _, s := range aud.Snapshot() {
				observed += float64(s.Observed)
			}
			violations += float64(aud.TotalViolations())
		}
		if tel := p.Telemetry(); tel != nil {
			ncHits += float64(tel.Registry.Counter("netcalc.cache_hits").Value())
			ncMisses += float64(tel.Registry.Counter("netcalc.cache_misses").Value())
		}
	}
	m["sim.events"] = events
	m["sim.events_per_access"] = ratio(events, float64(pr.accesses))
	m["sim.parallel.rounds"] = rounds
	m["sim.parallel.events_per_round"] = ratio(parEvents, rounds)
	m["noc.flit_hops"] = flitHops
	m["noc.packets"] = packets
	m["dram.requests"] = dramReq
	m["dram.row_hit_ratio"] = ratio(rowHits, rowTotal)
	m["dram.rejected"] = dramRejected
	m["cache.accesses"] = cacheAcc
	m["cache.l2_hit_ratio"] = ratio(l2Hit, l2Acc)
	m["cache.l3_hit_ratio"] = ratio(l3Hit, l3Acc)
	m["memguard.throttle_events"] = throttles
	m["memguard.throttled_sim_us"] = throttledUS
	m["mpam.bytes_served"] = mpamBytes
	m["mpam.utilization"] = ratio(mpamBytes, mpamCap)
	m["audit.observed"] = observed
	m["audit.violations"] = violations
	m["netcalc.cache_hit_ratio"] = ratio(ncHits, ncHits+ncMisses)
	m["core.crit_mean_sim_ns"] = critMean
	m["core.crit_p95_sim_ns"] = critP95
	return m
}

// mpamCapacityBytesPerNS is the per-channel arbiter capacity
// core.BuildPlatform configures when a spec arms MPAM.
const mpamCapacityBytesPerNS = 2.0

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestKey names a workload's entry in digests.json: both big-mesh
// workloads must reproduce the same record.
func digestKey(w simWorkload) string {
	return strings.TrimSuffix(w.name, "-p2")
}

// checkCommitted compares a record with the committed digest, at the
// default seed only.
func checkCommitted(res *result, w simWorkload, seed uint64, rec *statRecord) error {
	if seed != defaultSeed {
		return nil
	}
	df, err := loadDigests()
	if err != nil {
		return err
	}
	want, ok := df.Workloads[digestKey(w)]
	if !ok || df.Seed != defaultSeed {
		res.fail(1, "no committed digest for %s at seed %d", digestKey(w), defaultSeed)
		return nil
	}
	if d := rec.against(want); d != "" {
		res.fail(1, "committed digest check: %s", d)
	}
	return nil
}

// checkSequential runs one pass of the sequential big mesh and compares
// it with a partitioned pass's record.
func checkSequential(res *result, w simWorkload, seed uint64, rec *statRecord) error {
	if !strings.HasSuffix(w.name, "-p2") {
		return nil
	}
	res.attempted++
	seq, err := runPass(simWorkloads["bigmesh"], seed, passOptions{})
	if err != nil {
		return err
	}
	if d := seq.rec.diff(rec); d != "" {
		res.fail(1, "bigmesh and bigmesh-p2 differ: %s", d)
	}
	return nil
}

// runSimWorkload is the untraced run: passes for the budget, the
// end-to-end metrics, and the correctness checks.
func runSimWorkload(w simWorkload, seed uint64, seconds float64) (*result, error) {
	res := &result{workload: w.name}
	t, err := runSimTimed(w, seed, time.Duration(seconds*float64(time.Second)), 3)
	if err != nil {
		return nil, err
	}
	res.attempted = t.passes
	for _, p := range t.problems {
		res.fail(1, "%s", p)
	}
	if err := checkCommitted(res, w, seed, t.reference); err != nil {
		return nil, err
	}
	if err := checkSequential(res, w, seed, t.reference); err != nil {
		return nil, err
	}
	slices := t.sliceMS()
	res.addAll(endToEnd, map[string]float64{
		"throughput_per_s": t.accPerS(),
		"setup_s":          t.setupS(),
		"heap_mb":          t.heapMB,
		"batch_p50_ms":     quantile(slices, 0.5),
	})
	res.infof("throughput_per_s is accesses_per_s: %d simulated memory accesses (AppStats.Issued) per pass over the pass's RunUntil host time, each slice at its median of %d passes", t.accesses, t.passes)
	res.infof("batch = one RunUntil slice of 1/%d of a run's horizon, at its median host time over passes; %d slices; batch_p99_ms %.4g ms (not gated)", w.slices, len(slices), quantile(slices, 0.99))
	res.infof("setup_s: BuildPlatform summed over the pass's specs, each at its median of %d builds", len(t.builds[0]))
	res.infof("record digest %s", t.reference.digest())
	return res, nil
}

// runSimTraced is the traced run: untraced reference passes, then as
// many passes with spans and the CPU profiler on, the layer counters,
// and the standalone layer probes.
func runSimTraced(w simWorkload, seed uint64, seconds float64) (*result, error) {
	res := &result{workload: w.name}
	ref, err := runSimTimed(w, seed, time.Duration(seconds*float64(time.Second)/4), 3)
	if err != nil {
		return nil, err
	}
	n := ref.passes
	res.attempted = n
	for _, p := range ref.problems {
		res.fail(1, "%s", p)
	}
	m := map[string]float64{}
	if strings.HasSuffix(w.name, "-p2") {
		base, err := runSimTimed(simWorkloads["bigmesh"], seed, 0, n)
		if err != nil {
			return nil, err
		}
		m["sim.parallel.base_accesses_per_s"] = base.accPerS()
		m["sim.parallel.speedup"] = ref.accPerS() / base.accPerS()
		res.infof("sim.parallel.speedup = bigmesh-p2 %.4g accesses/s over bigmesh %.4g accesses/s (%d passes each)",
			ref.accPerS(), base.accPerS(), n)
		res.attempted++
		if d := ref.reference.diff(base.reference); d != "" {
			res.fail(1, "bigmesh and bigmesh-p2 differ: %s", d)
		}
	}
	spans := newSpanRecorder(1 << 20)
	var traced []*passResult
	prof, err := profiled(func() error {
		for i := 0; i < n; i++ {
			pr, err := runPass(w, seed, passOptions{spans: spans, capture: i == n-1})
			if err != nil {
				return err
			}
			traced = append(traced, pr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.attempted += len(traced)
	var tracedWall, runS, snapMS []float64
	for i, pr := range traced {
		if d := ref.reference.diff(pr.rec); d != "" {
			res.fail(1, "traced pass %d differs from the untraced passes: %s", i, d)
		}
		tracedWall = append(tracedWall, (pr.setup + pr.run).Seconds())
		runS = append(runS, pr.run.Seconds())
		snapMS = append(snapMS, float64(pr.snapshot)/1e6)
	}
	if err := checkCommitted(res, w, seed, ref.reference); err != nil {
		return nil, err
	}
	last := traced[len(traced)-1]
	for k, v := range layerCounters(last) {
		m[k] = v
	}
	m["core.run_s"] = median(runS)
	m["telemetry.snapshot_ms"] = median(snapMS)
	m["trace.overhead_ratio"] = median(tracedWall) / median(ref.passWalls)

	var runs [][]sim.Time
	for _, c := range last.captures {
		runs = append(runs, c.merged())
	}
	spans.do(0, 0, "probe sim.Engine replay", func() {
		m["sim.ns_per_event"] = replayKernel(runs, last.pending)
	})
	last.captures = nil
	// The probes take their configuration and traffic from the most
	// contended run of the pass.
	p := last.platforms[len(last.platforms)-1]
	for i, l := range last.labels {
		if l == "contended" {
			p = last.platforms[i]
		}
	}
	var derr error
	spans.do(0, 0, "probe noc.NI.Send", func() {
		m["noc.ns_per_flit_hop"], derr = nocPerFlitHop(p, max(16, 32768/len(p.Apps())))
	})
	if derr != nil {
		return nil, fmt.Errorf("noc probe: %w", derr)
	}
	spans.do(0, 0, "probe dram.Controller.Submit", func() {
		m["dram.ns_per_request"], derr = dramPerRequest(p, 200000, 16)
	})
	if derr != nil {
		return nil, fmt.Errorf("dram probe: %w", derr)
	}
	spans.do(0, 0, "probe cache.Hierarchy.Access", func() {
		m["cache.ns_per_access"], derr = cachePerAccess(p, 1<<18)
	})
	if derr != nil {
		return nil, fmt.Errorf("cache probe: %w", derr)
	}
	if m["audit.observed"] > 0 {
		spans.do(0, 0, "probe netcalc.Cache", func() {
			m["netcalc.ns_per_delay_bound"], _ = netcalcPerBound(boundQueries(seed), 1, svcServiceLatencyNS)
		})
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	res.addAll(perLayer, m)
	res.spans = spans.snapshot()
	res.profile = prof
	res.infof("%d untraced and %d traced passes; counters from the last traced pass", n, len(traced))
	return res, nil
}

// recordDigests writes digests.json: each simulator workload's record
// at the default seed.
func recordDigests() error {
	df := digestFile{Seed: defaultSeed, Workloads: map[string]committedDigest{}}
	for _, name := range []string{"contention-matrix", "bigmesh"} {
		pr, err := runPass(simWorkloads[name], defaultSeed, passOptions{})
		if err != nil {
			return err
		}
		df.Workloads[name] = committedDigest{Digest: pr.rec.digest(), Fields: pr.rec.fieldDigests()}
	}
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(b, '\n'), 0o644)
}
