package rmserver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// goldenDecisionDigest is the SHA-256 of the newline-joined Decision
// JSON that goldenOps(1, goldenOpCount) produces through Fleet.Do. It
// pins every admit/reject, mode, assigned rate and reason of the
// decision kernel bit for bit; any change to the rate expressions, the
// bound arithmetic, the memo or the rollback paths moves it.
const goldenDecisionDigest = "976774ed28ac21234a8945ccd8ddcb7be9e062b37503153a825f085c415621db"

const goldenOpCount = 120_000

// goldenOps is a seeded stream of valid operations over many
// platforms: registers of critical, best-effort and deadline-free apps
// (with duplicate names), withdraws of present and absent apps and of
// unknown platforms, and mode changes that switch policy, move the
// service latency (flushing the bound memo), cap the mode with
// MaxApps, and are either committed or rolled back.
func goldenOps(seed uint64, n int) []Op {
	x := seed
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	pick := func(k int) int { return int(next() % uint64(k)) }
	bursts := []float64{0, 16, 64, 100, 256, 512, 1024}
	deadlines := []float64{0, 150, 300, 350, 600, 1000, 2500, 5000, 1e6}
	totals := []float64{0.5, 1, 2, 4}
	critRates := []float64{0.1, 0.2, 0.4}
	floors := []float64{0, 0.01, 0.05}
	lats := []float64{0, 50, 100, 200}
	maxApps := []int{0, 0, 4, 8}

	ops := make([]Op, 0, n)
	for len(ops) < n {
		plat := fmt.Sprintf("p%d", pick(48))
		switch r := pick(200); {
		case r < 110:
			op := Op{Kind: OpRegister, Platform: plat, App: fmt.Sprintf("a%d", pick(24)),
				BurstBytes: bursts[pick(len(bursts))], DeadlineNS: deadlines[pick(len(deadlines))]}
			if pick(3) == 0 {
				op.Crit = admission.Critical
			}
			ops = append(ops, op)
		case r < 180:
			if pick(20) == 0 {
				plat = fmt.Sprintf("q%d", pick(8)) // never created
			}
			ops = append(ops, Op{Kind: OpWithdraw, Platform: plat, App: fmt.Sprintf("a%d", pick(32))})
		case r < 181:
			ops = append(ops, Op{Kind: OpModeChange, Platform: plat})
		default:
			spec := PlatformSpec{
				Policy:           "symmetric",
				TotalBytesPerNS:  totals[pick(len(totals))],
				ServiceLatencyNS: lats[pick(len(lats))],
				MaxApps:          maxApps[pick(len(maxApps))],
			}
			if pick(2) == 0 {
				spec.Policy = "non-symmetric"
				spec.CriticalBytesPerNS = critRates[pick(len(critRates))]
				spec.FloorBytesPerNS = floors[pick(len(floors))]
			}
			ops = append(ops, Op{Kind: OpModeChange, Platform: plat, Spec: &spec})
		}
	}
	return ops
}

// TestGoldenDecisionDigest replays the seeded stream through a fleet
// and compares the digest of every Decision's JSON against the value
// recorded before the decision kernel moved into internal/admission.
// It also checks the stream actually reaches each outcome it claims to
// cover, so a generator change cannot silently hollow the golden out.
func TestGoldenDecisionDigest(t *testing.T) {
	f := New(Config{Shards: 4, DefaultPlatform: PlatformSpec{
		Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: 100,
	}}, telemetry.NewRegistry())
	defer f.Drain()

	ops := goldenOps(1, goldenOpCount)
	h := sha256.New()
	covered := map[string]int{}
	for lo := 0; lo < len(ops); lo += 1000 {
		hi := min(lo+1000, len(ops))
		for i, d := range f.Do(ops[lo:hi]) {
			if d.Throttled {
				t.Fatalf("op %d throttled", lo+i)
			}
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			h.Write([]byte{'\n'})
			covered[outcome(&ops[lo+i], d)]++
		}
	}
	for _, want := range []string{
		"register ok", "register duplicate", "register full", "register bound", "register no-bandwidth",
		"withdraw ok", "withdraw absent", "withdraw unknown-platform",
		"modechange ok symmetric", "modechange ok non-symmetric",
		"modechange rollback", "modechange cap", "modechange no-spec",
	} {
		if covered[want] == 0 {
			t.Errorf("stream never reached %q; covered: %v", want, covered)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenDecisionDigest {
		t.Errorf("decision digest = %s, want %s", got, goldenDecisionDigest)
	}
}

// outcome classifies a decision for the golden stream's coverage check.
func outcome(op *Op, d Decision) string {
	k := op.Kind.String()
	switch {
	case d.OK && op.Kind == OpModeChange:
		return k + " ok " + op.Spec.Policy
	case d.OK:
		return k + " ok"
	}
	for _, c := range []struct{ sub, name string }{
		{"duplicate", "duplicate"}, {"full", "full"}, {"mode change would", "rollback"},
		{"delay bound", "bound"}, {"no bandwidth", "no-bandwidth"},
		{"not registered", "absent"}, {"unknown platform", "unknown-platform"},
		{"exceed new cap", "cap"}, {"without spec", "no-spec"},
	} {
		if strings.Contains(d.Reason, c.sub) {
			return k + " " + c.name
		}
	}
	return k + " other: " + d.Reason
}
