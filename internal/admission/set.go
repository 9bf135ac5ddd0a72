package admission

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/netcalc"
)

// Requirement is an application's declared traffic contract and QoS
// target, checked by the analytic admission test.
type Requirement struct {
	// BurstBytes is the token-bucket burst of the application's
	// traffic (its rate is whatever the RM assigns).
	BurstBytes float64
	// DeadlineNS is the maximum tolerable per-transmission delay.
	// DeadlineNS <= 0 declares a best-effort application with no
	// analytic requirement: it is admitted unconditionally.
	DeadlineNS float64
}

// Validate checks the contract: the burst must be finite and
// non-negative, the deadline finite. Every entry point that accepts a
// contract from outside (Client.Register, the rmserver op parsers)
// calls it, so Set only ever sees contracts whose bound is computable.
func (r Requirement) Validate() error {
	if math.IsNaN(r.BurstBytes) || math.IsInf(r.BurstBytes, 0) || r.BurstBytes < 0 {
		return fmt.Errorf("admission: burst %v must be finite and non-negative", r.BurstBytes)
	}
	if math.IsNaN(r.DeadlineNS) || math.IsInf(r.DeadlineNS, 0) {
		return fmt.Errorf("admission: deadline %v must be finite", r.DeadlineNS)
	}
	return nil
}

// Spec is a platform's policy envelope: how the total budget is shared
// (the paper's symmetric/non-symmetric guarantee modes) and the fixed
// latency of the platform's service path (NoC traversal + DRAM
// worst-case delay), which the analytic bound folds in.
type Spec struct {
	// Policy is "symmetric" or "non-symmetric".
	Policy string `json:"policy"`
	// TotalBytesPerNS is the platform's injection budget.
	TotalBytesPerNS float64 `json:"total_bytes_per_ns"`
	// CriticalBytesPerNS is the guaranteed per-app rate for critical
	// apps (non-symmetric policy).
	CriticalBytesPerNS float64 `json:"critical_bytes_per_ns,omitempty"`
	// FloorBytesPerNS keeps best-effort apps from starving entirely
	// (non-symmetric policy; 0 permits full starvation).
	FloorBytesPerNS float64 `json:"floor_bytes_per_ns,omitempty"`
	// ServiceLatencyNS is the fixed latency of the platform's service
	// curve (rate-latency server at the assigned rate).
	ServiceLatencyNS float64 `json:"service_latency_ns"`
	// MaxApps caps the platform's mode (0 = uncapped).
	MaxApps int `json:"max_apps,omitempty"`
}

// Validate checks the spec.
func (p Spec) Validate() error {
	switch p.Policy {
	case "symmetric", "non-symmetric":
	default:
		return fmt.Errorf("admission: unknown policy %q", p.Policy)
	}
	if p.TotalBytesPerNS <= 0 {
		return fmt.Errorf("admission: platform budget must be positive")
	}
	if p.ServiceLatencyNS < 0 {
		return fmt.Errorf("admission: negative service latency")
	}
	if p.Policy == "non-symmetric" && p.CriticalBytesPerNS <= 0 {
		return fmt.Errorf("admission: non-symmetric policy needs a critical rate")
	}
	return nil
}

// Rates returns the per-class injection rates (bytes/ns) for a mode of
// n applications, c of them critical. Symmetric gives everyone
// TotalBytesPerNS / n: rates "decrease uniformly" with the mode (Fig.
// 7). Non-symmetric keeps the critical rate and splits the rest among
// best-effort apps, never below the floor.
func (p Spec) Rates(n, c int) (critRate, beRate float64) {
	if n == 0 {
		return 0, 0
	}
	if p.Policy == "non-symmetric" {
		critRate = p.CriticalBytesPerNS
		if be := n - c; be > 0 {
			beRate = (p.TotalBytesPerNS - float64(c)*critRate) / float64(be)
			if beRate < p.FloorBytesPerNS {
				beRate = p.FloorBytesPerNS
			}
		}
		return critRate, beRate
	}
	r := p.TotalBytesPerNS / float64(n)
	return r, r
}

// maxBoundMemo bounds a Set's (burst, rate) → delay-bound memo. Real
// workloads revisit a small set of rates (modes oscillate), so the memo
// stays tiny; the cap only guards against adversarial churn over
// unbounded distinct rates.
const maxBoundMemo = 8192

// boundKey memoizes delay bounds per (burst, rate): with the service
// latency fixed per Spec, the Network-Calculus bound of a token-bucket
// arrival through the rate-latency server depends on nothing else, so
// all applications sharing a burst and a rate share one memo entry.
type boundKey struct {
	burst float64
	rate  float64
}

// Set is one platform's admitted set and its admission decision: the
// Section IV-A delay-bound test run online (Section V). Each
// application declares a token-bucket contract; its service is the
// rate-latency server at its assigned rate behind Spec.ServiceLatencyNS.
// An activation is admitted only if every admitted application's delay
// bound still meets its deadline under the post-admission rates.
//
// Decisions are allocation-free once the memo is warm: rates are two
// per-class scalars, and bounds are memoized per (burst, rate) over the
// caller's netcalc.Cache. A memo hit returns the stored result of the
// identical computation, so decisions are bit-identical to recomputing
// every bound from scratch.
//
// A Set is not safe for concurrent use; its owner serializes the
// operations, preserving the RM's "processed in arrival order".
type Set struct {
	spec   Spec
	apps   []AppRef // sorted by name
	crits  int      // count of Critical entries
	bounds map[boundKey]float64
	cache  *netcalc.Cache
}

// NewSet returns an empty admitted set under spec, computing bounds
// through cache (which may be shared by sets owned by one goroutine).
// The spec is trusted; validate it first.
func NewSet(spec Spec, cache *netcalc.Cache) *Set {
	return &Set{spec: spec, bounds: make(map[boundKey]float64), cache: cache}
}

// Len returns the mode: the number of admitted applications.
func (s *Set) Len() int { return len(s.apps) }

// Active returns a copy of the admitted applications, ordered by name.
func (s *Set) Active() []AppRef { return append([]AppRef(nil), s.apps...) }

// find returns the index of name in the sorted set and whether it is
// present.
func (s *Set) find(name string) (int, bool) {
	i := sort.Search(len(s.apps), func(i int) bool { return s.apps[i].Name >= name })
	return i, i < len(s.apps) && s.apps[i].Name == name
}

// Rate returns the injection rate the policy assigns to an admitted
// application in the current mode.
func (s *Set) Rate(name string) (float64, bool) {
	i, ok := s.find(name)
	if !ok {
		return 0, false
	}
	return s.rateOf(s.apps[i].Crit), true
}

func (s *Set) rateOf(crit Criticality) float64 {
	critRate, beRate := s.spec.Rates(len(s.apps), s.crits)
	if crit == Critical {
		return critRate
	}
	return beRate
}

// bound returns the memoized Network-Calculus delay bound of a
// (burst, rate) token bucket through the rate-latency service at that
// rate.
func (s *Set) bound(burst, rate float64) float64 {
	k := boundKey{burst, rate}
	if b, ok := s.bounds[k]; ok {
		return b
	}
	b := s.cache.DelayBound(
		netcalc.TokenBucket(burst, rate),
		netcalc.RateLatency(rate, s.spec.ServiceLatencyNS),
	)
	if len(s.bounds) >= maxBoundMemo {
		clear(s.bounds)
	}
	s.bounds[k] = b
	return b
}

// check validates every admitted application's deadline under the
// current spec and mode. It returns "" when all bounds hold, else the
// rejection reason naming the first violated application.
func (s *Set) check() string {
	critRate, beRate := s.spec.Rates(len(s.apps), s.crits)
	for i := range s.apps {
		a := &s.apps[i]
		if a.Req.DeadlineNS <= 0 {
			continue
		}
		rate := beRate
		if a.Crit == Critical {
			rate = critRate
		}
		if rate <= 0 {
			return fmt.Sprintf("%s would receive no bandwidth", a.Name)
		}
		if d := s.bound(a.Req.BurstBytes, rate); math.IsInf(d, 1) || d > a.Req.DeadlineNS {
			return fmt.Sprintf("%s delay bound %.1f ns exceeds deadline %.1f ns", a.Name, d, a.Req.DeadlineNS)
		}
	}
	return ""
}

func (s *Set) remove(i int) {
	if s.apps[i].Crit == Critical {
		s.crits--
	}
	s.apps = slices.Delete(s.apps, i, i+1)
}

// Register admits or rejects one activation: tentatively join the set,
// run the delay-bound test over the post-admission rate assignment,
// and roll back on violation. It returns the admitted application's
// rate, or a non-empty rejection reason. app.Req must have passed
// Requirement.Validate.
func (s *Set) Register(app AppRef) (rate float64, reason string) {
	if s.spec.MaxApps > 0 && len(s.apps) >= s.spec.MaxApps {
		return 0, "platform full"
	}
	i, dup := s.find(app.Name)
	if dup {
		return 0, "duplicate registration"
	}
	s.apps = slices.Insert(s.apps, i, app)
	if app.Crit == Critical {
		s.crits++
	}
	if reason := s.check(); reason != "" {
		s.remove(i)
		return 0, reason
	}
	return s.rateOf(app.Crit), ""
}

// Withdraw removes an application (the terMsg path), or returns a
// rejection reason if it is not admitted.
func (s *Set) Withdraw(name string) (reason string) {
	i, ok := s.find(name)
	if !ok {
		return "not registered"
	}
	s.remove(i)
	return ""
}

// SetSpec swaps the policy envelope, revalidating every admitted
// application's bound under the new spec before committing; a
// violation rolls the spec back, leaving the previous mode intact — an
// online reconfiguration must not break admitted guarantees. It
// returns "" on commit, else the rejection reason.
func (s *Set) SetSpec(spec Spec) (reason string) {
	if err := spec.Validate(); err != nil {
		return err.Error()
	}
	if spec.MaxApps > 0 && len(s.apps) > spec.MaxApps {
		return fmt.Sprintf("%d active apps exceed new cap %d", len(s.apps), spec.MaxApps)
	}
	old := s.spec
	s.spec = spec
	// The memo is keyed (burst, rate) with the service latency
	// implicit; a new latency invalidates it wholesale.
	if spec.ServiceLatencyNS != old.ServiceLatencyNS {
		clear(s.bounds)
	}
	if reason := s.check(); reason != "" {
		s.spec = old
		if spec.ServiceLatencyNS != old.ServiceLatencyNS {
			clear(s.bounds)
		}
		return "mode change would violate " + reason
	}
	return ""
}
