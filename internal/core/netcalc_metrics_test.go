package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestNetcalcCacheMetricsExposed checks the observability satellite:
// with auditing live, the /metrics exposition carries the analytic
// cache counters, the snapshot stays omlint-clean, and the published
// values mirror the platform cache's own stats.
func TestNetcalcCacheMetricsExposed(t *testing.T) {
	// 4 hogs: hog1 (2,0) and hog3 (1,1) sit equidistant from the memory
	// node, so their NoC service curves are structurally identical and
	// the second registration's composition must hit the cache.
	p, _, err := BuildPlatform(RunSpec{
		Hogs: 4, Duration: sim.Millisecond, Audit: true, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.StartApps()
	p.RunFor(sim.Millisecond)
	p.SnapshotMetrics()

	var sb strings.Builder
	if err := p.Telemetry().Registry.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	om := sb.String()
	if diags := telemetry.LintOpenMetrics(strings.NewReader(om), false); len(diags) != 0 {
		t.Fatalf("exposition lint: %v", diags)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(om, "\n") {
		if smp, err := telemetry.ParseSample(line); err == nil {
			values[smp.Name+smp.Labels] = smp.Value
		}
	}

	st := p.ncCache.Stats()
	if st.Misses == 0 {
		t.Fatal("audited registration composed no curves through the cache")
	}
	if st.Hits == 0 {
		t.Fatal("co-located apps share curve compositions; expected cache hits")
	}
	if got := values["netcalc_cache_hits_total"]; got != float64(st.Hits) {
		t.Fatalf("netcalc_cache_hits_total = %v, cache says %d", got, st.Hits)
	}
	if got := values["netcalc_cache_misses_total"]; got != float64(st.Misses) {
		t.Fatalf("netcalc_cache_misses_total = %v, cache says %d", got, st.Misses)
	}
	if got := values["netcalc_interned_curves_total"]; got != float64(st.InternedCurves) || got == 0 {
		t.Fatalf("netcalc_interned_curves_total = %v, cache says %d", got, st.InternedCurves)
	}
}

// TestNetcalcCacheMetricsAbsentWithoutAudit pins the gating: a
// telemetry-only run must not publish analytic-cache counters (there
// is no cache to observe), keeping non-audited snapshots unchanged.
func TestNetcalcCacheMetricsAbsentWithoutAudit(t *testing.T) {
	p, _, err := BuildPlatform(RunSpec{
		Hogs: 1, Duration: sim.Millisecond, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.StartApps()
	p.RunFor(sim.Millisecond)
	p.SnapshotMetrics()
	var sb strings.Builder
	if err := p.Telemetry().Registry.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "netcalc_") {
		t.Fatal("netcalc cache counters published without auditing")
	}
}
