// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) for a fixed wall-clock budget, checks the
// outputs, and prints every metric with its unit; the last line of its
// standard output is one JSON object with the result.
//
//	perfbench --workload bigmesh --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrumentation. With --trace 1 it makes a separate traced pass and
// reports the per-layer metrics, and writes a Chrome trace of its spans
// and a CPU profile under --out. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
)

// defaultSeed is the seed the committed digests are recorded at;
// heldOutSeed is a second seed for re-checking a claim on inputs its
// author did not tune on.
const (
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 7
)

var workloadNames = []string{"contention-matrix", "bigmesh", "bigmesh-p2", "admission-service"}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// result is one workload run's outcome.
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
	info              []string // human-only lines: stamps, sample counts, extras
	problems          []string
	spans             []span
	profile           []byte
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed; the committed digests are at %d, and %d is held out for re-checking a claim", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 15, "measurement budget per workload, seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced pass with per-layer metrics")
	out := fs.String("out", "perfbench-out", "directory for the traced pass's Chrome trace and CPU profile")
	writeDigests := fs.Bool("write-digests", false, "run each simulator workload once at the default seed and write digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests {
		if err := recordDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var results []*result
	for _, n := range names {
		res, err := runWorkload(n, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if *traced == 1 {
			if err := writeTraceFiles(*out, n, *seed, res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
				return 1
			}
		}
		printResult(res, *seed)
		results = append(results, res)
	}
	var line []byte
	var err error
	if len(results) == 1 {
		line, err = resultJSON(results[0])
	} else {
		line, err = combinedJSON(results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func runWorkload(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	if name == "admission-service" {
		if traced {
			return runServiceTraced(seed, seconds)
		}
		return runServiceTimed(seed, seconds)
	}
	if traced {
		return runSimTraced(simWorkloads[name], seed, seconds)
	}
	return runSimWorkload(simWorkloads[name], seed, seconds)
}

// stamp describes the build and host a result was measured on.
func stamp(seed uint64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d go=%s commit=%s seed=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, seed)
}

func printResult(r *result, seed uint64) {
	fmt.Printf("== %s  (%s)\n", r.workload, stamp(seed))
	for _, m := range r.metrics {
		fmt.Printf("   %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("   %-34s %16.6g ratio  (%d failed of %d attempted)\n", "error_rate", errRate, r.failed, r.attempted)
	for _, s := range r.info {
		fmt.Printf("   # %s\n", s)
	}
	for _, p := range r.problems {
		fmt.Printf("   ! %s\n", p)
	}
}

// finite keeps a value encodable in JSON: a latency that failed every
// request is reported as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func resultJSON(r *result) ([]byte, error) {
	jr := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		jr.Metrics[m.name] = jsonMetric{finite(m.value), m.unit}
	}
	return json.Marshal(jr)
}

// combinedJSON folds several workloads into one result line, metric
// names prefixed with the workload.
func combinedJSON(rs []*result) ([]byte, error) {
	jr := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range rs {
		jr.Attempted += r.attempted
		jr.Failed += r.failed
		jr.Correct = jr.Correct && r.failed == 0 && r.attempted > 0
		for _, m := range r.metrics {
			jr.Metrics[r.workload+"/"+m.name] = jsonMetric{finite(m.value), m.unit}
		}
	}
	return json.Marshal(jr)
}

// writeTraceFiles writes the traced pass's spans as Chrome trace JSON
// and its CPU profile, and prints where they went.
func writeTraceFiles(dir, workload string, seed uint64, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.spans); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", r.profile, 0o644); err != nil {
		return err
	}
	r.infof("trace: %s.trace.json (Chrome trace), %s.cpu.pprof (go tool pprof)", base, base)
	self := selfByName(r.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		r.infof("span self time %-28s %10.3f ms", n, float64(self[n])/1e6)
	}
	return nil
}

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle value of xs, the mean of the two middle ones
// for an even count; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// endToEnd lists the untraced metrics every workload reports, in order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"batch_p50_ms", "ms"},
}

// perLayer lists the traced pass's metrics. Every workload reports all
// of them; a layer the workload does not run reads 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"sim.events", "count"},
		{"sim.events_per_access", "ratio"},
		{"sim.ns_per_event", "ns"},
		{"sim.parallel.rounds", "count"},
		{"sim.parallel.events_per_round", "ratio"},
		{"sim.parallel.speedup", "ratio"},
		{"sim.parallel.base_accesses_per_s", "1/s"},
		{"noc.flit_hops", "count"},
		{"noc.packets", "count"},
		{"noc.ns_per_flit_hop", "ns"},
		{"dram.requests", "count"},
		{"dram.row_hit_ratio", "ratio"},
		{"dram.rejected", "count"},
		{"dram.ns_per_request", "ns"},
		{"cache.accesses", "count"},
		{"cache.l2_hit_ratio", "ratio"},
		{"cache.l3_hit_ratio", "ratio"},
		{"cache.ns_per_access", "ns"},
		{"memguard.throttle_events", "count"},
		{"memguard.throttled_sim_us", "us"},
		{"mpam.bytes_served", "B"},
		{"mpam.utilization", "ratio"},
		{"core.run_s", "s"},
		{"core.crit_mean_sim_ns", "ns"},
		{"core.crit_p95_sim_ns", "ns"},
		{"audit.observed", "count"},
		{"audit.violations", "count"},
		{"netcalc.cache_hit_ratio", "ratio"},
		{"netcalc.ns_per_delay_bound", "ns"},
		{"telemetry.snapshot_ms", "ms"},
		{"rmserver.ns_per_decision", "ns"},
		{"rmserver.http_serve_p99_ms", "ms"},
		{"rmserver.decision_p99_ns", "ns"},
		{"rmserver.queue_wait_p99_us", "us"},
		{"rmserver.admit_ratio", "ratio"},
		{"rmserver.throttled", "count"},
		{"loadgen.batches", "count"},
		{"loadgen.late_p99_ms", "ms"},
	}
	for _, layer := range cpuLayers {
		l = append(l, struct{ name, unit string }{layer + ".cpu_share", "ratio"})
	}
	return append(l, struct{ name, unit string }{"trace.overhead_ratio", "ratio"})
}()

// addAll appends the listed metrics in order, reading values from m
// (absent = 0).
func (r *result) addAll(list []struct{ name, unit string }, m map[string]float64) {
	for _, x := range list {
		r.metrics = append(r.metrics, metric{x.name, x.unit, m[x.name]})
	}
}
