package admission

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/netcalc"
)

// refSet is the uncached reference decision Set is checked against: a
// map of admitted apps, per-app rates derived the way the original
// map-returning policies did, and every bound recomputed from scratch
// with netcalc.DelayBound — no memo, no operator cache.
type refSet struct {
	spec Spec
	apps map[string]AppRef
}

func newRefSet(spec Spec) *refSet { return &refSet{spec: spec, apps: map[string]AppRef{}} }

// rates assigns every admitted app its policy rate.
func (r *refSet) rates() map[string]float64 {
	out := make(map[string]float64, len(r.apps))
	if len(r.apps) == 0 {
		return out
	}
	if r.spec.Policy == "symmetric" {
		for name := range r.apps {
			out[name] = r.spec.TotalBytesPerNS / float64(len(r.apps))
		}
		return out
	}
	var crit, be int
	for _, a := range r.apps {
		if a.Crit == Critical {
			crit++
		} else {
			be++
		}
	}
	beRate := 0.0
	if be > 0 {
		beRate = (r.spec.TotalBytesPerNS - float64(crit)*r.spec.CriticalBytesPerNS) / float64(be)
	}
	if beRate < r.spec.FloorBytesPerNS {
		beRate = r.spec.FloorBytesPerNS
	}
	for name, a := range r.apps {
		out[name] = beRate
		if a.Crit == Critical {
			out[name] = r.spec.CriticalBytesPerNS
		}
	}
	return out
}

// check names the first app, in name order, whose bound misses its
// deadline.
func (r *refSet) check() string {
	rates := r.rates()
	names := make([]string, 0, len(r.apps))
	for name := range r.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		req := r.apps[name].Req
		if req.DeadlineNS <= 0 {
			continue
		}
		rate := rates[name]
		if rate <= 0 {
			return fmt.Sprintf("%s would receive no bandwidth", name)
		}
		d := netcalc.DelayBound(netcalc.TokenBucket(req.BurstBytes, rate),
			netcalc.RateLatency(rate, r.spec.ServiceLatencyNS))
		if math.IsInf(d, 1) || d > req.DeadlineNS {
			return fmt.Sprintf("%s delay bound %.1f ns exceeds deadline %.1f ns", name, d, req.DeadlineNS)
		}
	}
	return ""
}

func (r *refSet) register(app AppRef) (float64, string) {
	if r.spec.MaxApps > 0 && len(r.apps) >= r.spec.MaxApps {
		return 0, "platform full"
	}
	if _, dup := r.apps[app.Name]; dup {
		return 0, "duplicate registration"
	}
	r.apps[app.Name] = app
	if reason := r.check(); reason != "" {
		delete(r.apps, app.Name)
		return 0, reason
	}
	return r.rates()[app.Name], ""
}

func (r *refSet) withdraw(name string) string {
	if _, ok := r.apps[name]; !ok {
		return "not registered"
	}
	delete(r.apps, name)
	return ""
}

func (r *refSet) setSpec(spec Spec) string {
	if err := spec.Validate(); err != nil {
		return err.Error()
	}
	if spec.MaxApps > 0 && len(r.apps) > spec.MaxApps {
		return fmt.Sprintf("%d active apps exceed new cap %d", len(r.apps), spec.MaxApps)
	}
	old := r.spec
	r.spec = spec
	if reason := r.check(); reason != "" {
		r.spec = old
		return "mode change would violate " + reason
	}
	return ""
}

// Value tables for the fuzzed op stream: small, so bounds land near
// deadlines and memo entries are revisited.
var (
	fuzzBursts    = []float64{0, 16, 64, 100, 256, 512, 1024, 4096}
	fuzzDeadlines = []float64{0, -1, 150, 300, 350, 600, 1000, 2500, 1e6, 1e-3}
	fuzzTotals    = []float64{0.5, 1, 2, 4}
	fuzzCritRates = []float64{0.1, 0.2, 0.4, 0.8}
	fuzzFloors    = []float64{0, 0.01, 0.05, 0.3}
	fuzzLats      = []float64{0, 50, 100, 200}
)

// FuzzAdmissionSet decodes the input into a register/withdraw/
// modechange stream and runs it through Set and through the uncached
// reference: every decision — rate, reason, mode — must be identical.
func FuzzAdmissionSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 2, 4, 5, 7, 1, 2, 3, 5, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 4, 1, 1, 1, 4, 1, 2, 1, 4, 7, 0, 0, 2, 7, 3, 9, 1})
	f.Fuzz(compareSetStream)
}

// compareSetStream replays data, four bytes per op, through both
// implementations.
func compareSetStream(t *testing.T, data []byte) {
	spec := Spec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100}
	s, ref := NewSet(spec, netcalc.NewCache(0)), newRefSet(spec)
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		name := fmt.Sprintf("a%d", b[1]%8)
		var got, want string
		switch k := b[0] % 8; {
		case k < 5:
			app := AppRef{Name: name, Crit: Criticality(b[2] & 1), Req: Requirement{
				BurstBytes: fuzzBursts[int(b[2]>>1)%len(fuzzBursts)],
				DeadlineNS: fuzzDeadlines[int(b[3])%len(fuzzDeadlines)],
			}}
			var gr, wr float64
			gr, got = s.Register(app)
			wr, want = ref.register(app)
			if gr != wr {
				t.Fatalf("op %d register %+v: rate %v, reference %v", i/4, app, gr, wr)
			}
		case k < 7:
			got, want = s.Withdraw(name), ref.withdraw(name)
		default:
			spec := Spec{
				Policy:           "symmetric",
				TotalBytesPerNS:  fuzzTotals[int(b[1])%len(fuzzTotals)],
				ServiceLatencyNS: fuzzLats[int(b[2])%len(fuzzLats)],
				MaxApps:          int(b[3]>>4) % 6,
			}
			if b[1]&0x80 != 0 {
				spec.Policy = "non-symmetric"
				spec.CriticalBytesPerNS = fuzzCritRates[int(b[2]>>2)%len(fuzzCritRates)]
				spec.FloorBytesPerNS = fuzzFloors[int(b[3])%len(fuzzFloors)]
			}
			got, want = s.SetSpec(spec), ref.setSpec(spec)
		}
		if got != want || s.Len() != len(ref.apps) {
			t.Fatalf("op %d (%v): reason %q mode %d, reference %q mode %d",
				i/4, b, got, s.Len(), want, len(ref.apps))
		}
	}
}
