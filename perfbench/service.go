package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/rmserver"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

const (
	svcBatchOps = 512
	// svcClosedBatchOps is the batch size of the closed loop. Each batch
	// pays a few syscalls and cross-CPU wake-ups whose cost swings with
	// the host's load; at 4096 ops they are a few percent of a batch's
	// time, at 512 about a quarter.
	svcClosedBatchOps = 4096
	// svcFixedRate is obs.ServiceSLOs' throughput floor, decisions/s.
	svcFixedRate = 1e5
	svcConns     = 2
	// svcPlatforms is how many platforms each connection owns; no two
	// connections share one, so every platform's op order is fixed by
	// its connection's stream and decisions are deterministic.
	svcPlatforms = 64
	// svcPool is the standing population of active apps per platform.
	svcPool = 8
	// svcLatencyLimit is the batch p99 a rate must meet to count as
	// sustained.
	svcLatencyLimit = 5 * time.Millisecond
	// modeChangeEvery is the batch period of a connection's JSON mode
	// change call.
	modeChangeEvery = 32
	// svcServiceLatencyNS is the default platform's service latency; a
	// deadline below it can never be met, which is the reject path.
	svcServiceLatencyNS = 500
)

// svcConfig is rmd's default fleet configuration.
var svcConfig = rmserver.Config{Shards: 4, QueueDepth: 64, MaxBatch: 8192}

// opGen generates one connection's deterministic op stream.
type opGen struct {
	conn     int
	rng      *sim.Rand
	names    []string
	standing [][]string // per platform, oldest first
	nextApp  int
}

func newOpGen(seed uint64, conn int) *opGen {
	g := &opGen{conn: conn, rng: sim.NewRand(seed*1000003 + uint64(conn) + 1)}
	for i := 0; i < svcPlatforms; i++ {
		g.names = append(g.names, "c"+strconv.Itoa(conn)+"p"+strconv.Itoa(i))
	}
	g.standing = make([][]string, svcPlatforms)
	return g
}

func (g *opGen) app(prefix string) string {
	g.nextApp++
	return prefix + strconv.Itoa(g.conn) + "." + strconv.Itoa(g.nextApp)
}

func (g *opGen) register(plat int, name string) rmserver.Op {
	crit := admission.BestEffort
	if g.rng.Float64() < 0.2 {
		crit = admission.Critical
	}
	return rmserver.Op{
		Kind: rmserver.OpRegister, Platform: g.names[plat], App: name, Crit: crit,
		BurstBytes: float64(64 * (1 + g.rng.Intn(4))), DeadlineNS: 1e6,
	}
}

// warmup registers every platform's standing pool.
func (g *opGen) warmup() []rmserver.Op {
	var ops []rmserver.Op
	for p := range g.names {
		for i := 0; i < svcPool; i++ {
			name := g.app("s")
			g.standing[p] = append(g.standing[p], name)
			ops = append(ops, g.register(p, name))
		}
	}
	return ops
}

// nextBatch returns the next batch of n ops: admissible register/withdraw
// pairs (transient apps, and rotations of the standing pool) and
// registers whose deadline is below the service latency, which are
// rejected.
func (g *opGen) nextBatch(n int) []rmserver.Op {
	ops := make([]rmserver.Op, 0, n)
	for len(ops) < n {
		p := g.rng.Intn(svcPlatforms)
		r := g.rng.Float64()
		switch {
		case r < 0.1 || len(ops) == n-1:
			op := g.register(p, g.app("x"))
			op.DeadlineNS = svcServiceLatencyNS - 100
			ops = append(ops, op)
		case r < 0.55:
			name := g.app("t")
			ops = append(ops, g.register(p, name),
				rmserver.Op{Kind: rmserver.OpWithdraw, Platform: g.names[p], App: name})
		default:
			name := g.app("s")
			old := g.standing[p][0]
			g.standing[p] = append(g.standing[p][1:], name)
			ops = append(ops, g.register(p, name),
				rmserver.Op{Kind: rmserver.OpWithdraw, Platform: g.names[p], App: old})
		}
	}
	return ops
}

// modeChange returns the mode change due before batch k, if any: it
// revalidates one platform's active apps under a new service latency.
func (g *opGen) modeChange(k int) (rmserver.Op, bool) {
	if k%modeChangeEvery != 0 {
		return rmserver.Op{}, false
	}
	n := k / modeChangeEvery
	spec := rmserver.PlatformSpec{Policy: "symmetric", TotalBytesPerNS: 1, ServiceLatencyNS: float64(svcServiceLatencyNS + 20*(n%2))}
	return rmserver.Op{Kind: rmserver.OpModeChange, Platform: g.names[n%svcPlatforms], Spec: &spec}, true
}

func encodeOps(buf *bytes.Buffer, ops []rmserver.Op) {
	for i := range ops {
		op := &ops[i]
		if op.Kind == rmserver.OpWithdraw {
			buf.WriteString("w ")
			buf.WriteString(op.Platform)
			buf.WriteByte(' ')
			buf.WriteString(op.App)
			buf.WriteByte('\n')
			continue
		}
		c := " b "
		if op.Crit == admission.Critical {
			c = " c "
		}
		buf.WriteString("r ")
		buf.WriteString(op.Platform)
		buf.WriteByte(' ')
		buf.WriteString(op.App)
		buf.WriteString(c)
		buf.WriteString(strconv.FormatFloat(op.BurstBytes, 'g', -1, 64))
		buf.WriteByte(' ')
		buf.WriteString(strconv.FormatFloat(op.DeadlineNS, 'g', -1, 64))
		buf.WriteByte('\n')
	}
}

// tally is a batch's per-outcome counts, as the compact batch response
// reports them.
type tally struct{ admitted, rejected, throttled int }

func tallyOf(ds []rmserver.Decision) tally {
	var t tally
	for _, d := range ds {
		switch {
		case d.Throttled:
			t.throttled++
		case d.OK:
			t.admitted++
		default:
			t.rejected++
		}
	}
	return t
}

// clock abstracts time for the open-loop schedule so tests can drive it.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// loopSample is one request of an open-loop schedule: its latency
// counted from when it was due, and how late the generator sent it.
type loopSample struct {
	latency, late time.Duration
	err           error
}

// openLoop sends requests k = 0, 1, ... on a fixed schedule: request k
// is due at start+k*interval and goes out at its due time, or as soon
// as the previous request completes when the connection is behind.
// Latency counts from the due time, so a stall is charged to every
// request it delays. prepare(k) builds request k before its due time,
// so building it is not timed. It stops after n requests, or early once the
// generator runs more than abortLate behind.
func openLoop(c clock, start time.Time, interval time.Duration, n int, abortLate time.Duration, prepare func(k int), send func(k int) error) []loopSample {
	out := make([]loopSample, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		prepare(k)
		c.SleepUntil(due)
		late := c.Now().Sub(due)
		if abortLate > 0 && late > abortLate {
			break
		}
		err := send(k)
		out = append(out, loopSample{latency: c.Now().Sub(due), late: late, err: err})
	}
	return out
}

// service is a running fleet behind its HTTP handler on a loopback
// listener.
type service struct {
	fleet  *rmserver.Fleet
	srv    *http.Server
	base   string
	timed  *timedHandler
	served chan error
}

// timedHandler wraps rmserver.Handler.ServeHTTP. When armed (traced
// pass) it records a span per request, parented on the client batch
// span named in the request headers, and each request's serve time.
type timedHandler struct {
	h     http.Handler
	spans atomic.Pointer[spanRecorder]
	mu    sync.Mutex
	serve []float64 // ms
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.spans.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	t0 := time.Now()
	tr.do(parent, parent, "Handler.ServeHTTP", func() { t.h.ServeHTTP(w, r) })
	d := time.Since(t0)
	t.mu.Lock()
	t.serve = append(t.serve, float64(d)/1e6)
	t.mu.Unlock()
}

// startService builds a fleet with rmd's defaults, serves it on a
// loopback listener and waits until it answers.
func startService() (*service, error) {
	fleet := rmserver.New(svcConfig, telemetry.NewRegistry())
	th := &timedHandler{h: rmserver.NewHandler(fleet)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fleet.Drain()
		return nil, err
	}
	s := &service{fleet: fleet, srv: &http.Server{Handler: th}, base: "http://" + ln.Addr().String(), timed: th, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	client := newConnClient()
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := client.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service not healthy after 5s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down, waits for Serve to return, and drains
// the fleet.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves nothing more to do here
	<-s.served
	s.fleet.Drain()
}

// newConnClient is an HTTP client holding at most one connection.
func newConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// svcConn is one load-generating connection and everything it sent.
type svcConn struct {
	gen       *opGen
	client    *http.Client
	sent      int           // batches sent so far
	next      []rmserver.Op // the prepared, not yet sent batch
	body      bytes.Buffer
	warmTally tally
	batchOps  int     // size of the batches prepare generates
	sizes     []int   // size of each batch sent
	tallies   []tally // HTTP response per batch
	modes     map[int]rmserver.Decision
	spanIDs   map[int]uint64
	failed    int // ops in batches that errored or were throttled
	ops       int // ops attempted
	probs     []string
}

func newSvcConn(seed uint64, conn int) *svcConn {
	return &svcConn{gen: newOpGen(seed, conn), client: newConnClient(), batchOps: svcBatchOps, modes: map[int]rmserver.Decision{}, spanIDs: map[int]uint64{}}
}

func (c *svcConn) problem(format string, args ...any) {
	if len(c.probs) < 8 {
		c.probs = append(c.probs, fmt.Sprintf(format, args...))
	}
}

// prepare generates and encodes the connection's next batch, unless one
// is already prepared: a batch an aborted schedule did not send is the
// next one sent, so the stream stays the one the replay regenerates.
func (c *svcConn) prepare(int) {
	if c.next != nil {
		return
	}
	c.next = c.gen.nextBatch(c.batchOps)
	c.body.Reset()
	encodeOps(&c.body, c.next)
}

// postBatch sends ops as one compact batch and returns the response tally.
func postBatch(client *http.Client, base string, ops []rmserver.Op) (tally, error) {
	var buf bytes.Buffer
	encodeOps(&buf, ops)
	return postBody(client, base, &buf, nil)
}

// postBody sends an encoded compact batch and returns the response tally.
func postBody(client *http.Client, base string, body *bytes.Buffer, hdr map[string]string) (tally, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/batch", bytes.NewReader(body.Bytes()))
	if err != nil {
		return tally{}, err
	}
	req.Header.Set("Content-Type", rmserver.OpsContentType)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return tally{}, err
	}
	defer resp.Body.Close()
	var sum rmserver.BatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return tally{}, fmt.Errorf("decode batch response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return tally{}, fmt.Errorf("batch status %d", resp.StatusCode)
	}
	return tally{sum.Admitted, sum.Rejected, sum.Throttled}, nil
}

// postModeChange sends one JSON mode change.
func (c *svcConn) postModeChange(base string, op rmserver.Op) (rmserver.Decision, error) {
	body, err := json.Marshal(map[string]any{"platform": op.Platform, "spec": op.Spec})
	if err != nil {
		return rmserver.Decision{}, err
	}
	resp, err := c.client.Post(base+"/v1/modechange", "application/json", bytes.NewReader(body))
	if err != nil {
		return rmserver.Decision{}, err
	}
	defer resp.Body.Close()
	var d rmserver.Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return d, fmt.Errorf("decode mode change response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("mode change status %d", resp.StatusCode)
	}
	return d, nil
}

// sendNext sends the connection's next mode change (when due) and
// batch, and returns the batch request's own round trip. Errors and
// throttles are counted as failed ops.
func (c *svcConn) sendNext(base string, tr *spanRecorder) (time.Duration, error) {
	k := c.sent
	c.sent++
	rootID, rootStart := tr.begin()
	hdr := map[string]string{}
	if tr != nil {
		hdr["X-Bench-Span"] = strconv.FormatUint(rootID, 10)
		c.spanIDs[k] = rootID
	}
	if op, ok := c.gen.modeChange(k); ok {
		c.ops++
		d, err := c.postModeChange(base, op)
		if err != nil {
			c.failed++
			c.problem("conn %d mode change before batch %d: %v", c.gen.conn, k, err)
		}
		c.modes[k] = d
	}
	ops := c.next
	c.next = nil
	c.ops += len(ops)
	c.sizes = append(c.sizes, len(ops))
	t0 := time.Now()
	t, err := postBody(c.client, base, &c.body, hdr)
	rtt := time.Since(t0)
	tr.end(rootID, 0, rootID, "client batch", rootStart)
	c.tallies = append(c.tallies, t)
	if err != nil {
		c.failed += len(ops)
		c.problem("conn %d batch %d: %v", c.gen.conn, k, err)
		return rtt, err
	}
	if t.throttled > 0 {
		c.failed += t.throttled
		c.problem("conn %d batch %d: %d ops throttled", c.gen.conn, k, t.throttled)
		return rtt, fmt.Errorf("throttled")
	}
	return rtt, nil
}

// runRate drives every connection open loop at rate decisions/s for n
// batches in total and returns the pooled samples.
func runRate(svc *service, conns []*svcConn, rate float64, n int, abortLate time.Duration, tr *spanRecorder) []loopSample {
	interval := time.Duration(float64(svcConns*svcBatchOps) / rate * 1e9)
	start := time.Now().Add(time.Millisecond)
	results := make([][]loopSample, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *svcConn) {
			defer wg.Done()
			offset := time.Duration(i) * interval / svcConns
			results[i] = openLoop(wallClock{}, start.Add(offset), interval, n/svcConns, abortLate, c.prepare, func(int) error {
				_, err := c.sendNext(svc.base, tr)
				return err
			})
		}(i, c)
	}
	wg.Wait()
	var all []loopSample
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// replay re-runs every connection's stream, batch for batch, through
// Fleet.Do on a fresh fleet, compares each outcome with what came back
// over HTTP, and returns the mismatching op count and the wall time
// spent in Fleet.Do.
func replay(seed uint64, conns []*svcConn, tr *spanRecorder) (mismatched int, ops int, wall time.Duration) {
	fleet := rmserver.New(svcConfig, telemetry.NewRegistry())
	defer fleet.Drain()
	do := func(ops []rmserver.Op, parent uint64, name string) []rmserver.Decision {
		var ds []rmserver.Decision
		t0 := time.Now()
		tr.do(parent, parent, name, func() { ds = fleet.Do(ops) })
		wall += time.Since(t0)
		return ds
	}
	for _, c := range conns {
		g := newOpGen(seed, c.gen.conn)
		w := g.warmup()
		ops += len(w)
		if want := tallyOf(do(w, 0, "Fleet.Do warmup")); c.warmTally != want {
			mismatched += len(w)
			c.problem("conn %d warmup: HTTP admitted/rejected/throttled %d/%d/%d, direct %d/%d/%d",
				c.gen.conn, c.warmTally.admitted, c.warmTally.rejected, c.warmTally.throttled, want.admitted, want.rejected, want.throttled)
		}
		for k := 0; k < c.sent; k++ {
			if op, ok := g.modeChange(k); ok {
				d := do([]rmserver.Op{op}, c.spanIDs[k], "Fleet.Do modechange")[0]
				ops++
				if got := c.modes[k]; got.OK != d.OK || got.Mode != d.Mode {
					mismatched++
					c.problem("conn %d mode change before batch %d: HTTP ok=%v mode=%d, direct ok=%v mode=%d", c.gen.conn, k, got.OK, got.Mode, d.OK, d.Mode)
				}
			}
			batch := g.nextBatch(c.sizes[k])
			want := tallyOf(do(batch, c.spanIDs[k], "Fleet.Do"))
			ops += len(batch)
			if got := c.tallies[k]; got != want {
				mismatched += len(batch)
				c.problem("conn %d batch %d: HTTP admitted/rejected/throttled %d/%d/%d, direct %d/%d/%d",
					c.gen.conn, k, got.admitted, got.rejected, got.throttled, want.admitted, want.rejected, want.throttled)
			}
		}
	}
	return mismatched, ops, wall
}

// latencyStats returns the p50 and p99 latency in ms and the p99
// lateness of a sample set; failed requests count as missing the limit.
func latencyStats(s []loopSample) (p50, p99, lateP99 float64, failed int) {
	lat := make([]float64, len(s))
	late := make([]float64, len(s))
	for i, x := range s {
		lat[i] = float64(x.latency) / 1e6
		if x.err != nil {
			lat[i] = math.Inf(1)
			failed++
		}
		late[i] = float64(x.late) / 1e6
	}
	return quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.99), failed
}

// searchRate starts from the fixed-rate step and offers rising rates,
// from twice the fixed rate by 1.25x, until one misses the limit. When
// the fixed rate itself missed, it steps down by 1.5x instead until a
// rate is sustained.
func searchRate(svc *service, conns []*svcConn, base rateStep, limitMS float64) []rateStep {
	if base.miss != "" {
		hi := base
		for rate := svcFixedRate / 1.5; rate >= svcFixedRate/10; rate /= 1.5 {
			st := rateAttemptTwice(svc, conns, rate, limitMS)
			if st.miss == "" {
				return []rateStep{st, hi}
			}
			hi = st
		}
		return []rateStep{hi}
	}
	steps := []rateStep{base}
	for rate := 2 * svcFixedRate; steps[len(steps)-1].miss == "" && rate < 1e8; rate *= 1.25 {
		steps = append(steps, rateAttemptTwice(svc, conns, rate, limitMS))
	}
	return steps
}

// rateAttemptTwice offers a rate, and once more if it missed; the rate
// counts as missed only when both attempts miss: one stall of a shared
// host is not a capacity limit, a real limit repeats.
func rateAttemptTwice(svc *service, conns []*svcConn, rate, limitMS float64) rateStep {
	st := rateAttempt(svc, conns, rate, limitMS)
	if st.miss != "" {
		if again := rateAttempt(svc, conns, rate, limitMS); again.miss == "" || again.p99ms < st.p99ms {
			st = again
		}
	}
	return st
}

// rateAttempt offers rate for 0.3 s, and for at least 200 batches when
// that takes under 0.6 s, and judges it against the latency limit and
// the backlog.
func rateAttempt(svc *service, conns []*svcConn, rate, limitMS float64) rateStep {
	perS := rate / svcBatchOps
	n := int(max(0.3*perS, min(200, 0.6*perS))) / svcConns * svcConns
	s := runRate(svc, conns, rate, n, 50*time.Millisecond, nil)
	_, p99, _, failed := latencyStats(s)
	st := rateStep{rate: rate, p99ms: p99}
	switch {
	case failed > 0:
		st.miss = fmt.Sprintf("%d failed batches", failed)
	case len(s) < n:
		st.miss = fmt.Sprintf("backlog: generator fell over 50ms behind after %d of %d batches", len(s), n)
	case s[len(s)-1].late > svcLatencyLimit:
		st.miss = fmt.Sprintf("backlog: last batch sent %v late", s[len(s)-1].late)
	case p99 > limitMS:
		st.miss = "p99 over the limit"
	}
	return st
}

// rateStep is one step of the sustainable-rate search; miss says why
// the step missed the limit ("" when it met it).
type rateStep struct {
	rate, p99ms float64
	miss        string
}

// sustainedRate is the highest rate that met the limit, interpolated in
// log rate toward the first step that missed it by where batch p99
// crosses the limit. A step that missed on failures or a growing
// backlog gives no interpolation.
func sustainedRate(steps []rateStep) float64 {
	limit := float64(svcLatencyLimit) / 1e6
	best := 0.0
	for i, s := range steps {
		if s.miss == "" {
			best = s.rate
			continue
		}
		if i == 0 {
			return 0
		}
		lo := steps[i-1]
		frac := 0.0
		if s.p99ms > limit && s.p99ms > lo.p99ms && !math.IsInf(s.p99ms, 1) {
			frac = (limit - lo.p99ms) / (s.p99ms - lo.p99ms)
		}
		return lo.rate * math.Pow(s.rate/lo.rate, math.Max(0, math.Min(1, frac)))
	}
	return best
}

// boundQueries is the admission service's delay-bound stream: one
// query per admissible register of a connection's first batches, at the
// mode the platform enters with that app admitted.
func boundQueries(seed uint64) []boundQuery {
	g := newOpGen(seed, 0)
	g.warmup()
	var qs []boundQuery
	for len(qs) < 50000 {
		for _, op := range g.nextBatch(svcBatchOps) {
			if op.Kind == rmserver.OpRegister && op.DeadlineNS > svcServiceLatencyNS {
				qs = append(qs, boundQuery{op.BurstBytes, svcPool + 1})
			}
		}
	}
	return qs
}

// setupService sets the service up reps times and reports the median
// set-up time: a fresh fleet behind its listener, until it answers and
// holds every connection's standing pool, registered in one batch per
// connection. The last instance is returned running, and each connection
// keeps its pool's tally from it. A collection before each set-up keeps
// the previous instance's garbage out of the next one's time.
func setupService(reps int, conns []*svcConn) (*service, float64, error) {
	pools := make([][]rmserver.Op, len(conns))
	for i, c := range conns {
		pools[i] = c.gen.warmup()
		c.ops += len(pools[i])
	}
	var times []float64
	var svc *service
	for i := 0; i < reps; i++ {
		if svc != nil {
			svc.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if svc, err = startService(); err != nil {
			return nil, 0, err
		}
		if err := registerPools(svc, conns, pools); err != nil {
			svc.stop()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return svc, median(times), nil
}

// registerPools registers each connection's standing pool in one batch
// over a fresh connection and records the response as its tally.
func registerPools(svc *service, conns []*svcConn, pools [][]rmserver.Op) error {
	client := newConnClient()
	defer client.CloseIdleConnections()
	for i, c := range conns {
		t, err := postBatch(client, svc.base, pools[i])
		if err != nil {
			return fmt.Errorf("register standing pool: %w", err)
		}
		c.warmTally = t
	}
	return nil
}

// warmupConns runs svcWarmBatches batches at the fixed rate, untimed, so
// connections, buffers and the heap settle before anything is measured.
func warmupConns(svc *service, conns []*svcConn) {
	runRate(svc, conns, svcFixedRate, svcWarmBatches, 2*time.Second, nil)
}

const svcWarmBatches = 100

// The fixed-rate latency is measured in svcWindows windows of at most
// svcWindowBatches batches.
const (
	svcWindows       = 3
	svcWindowBatches = 300
)

// runServiceTimed is the untraced run: the open-loop batch latency at the
// fixed rate and the sustained-rate search (printed), the closed-loop
// throughput and batch p50 (the reported metrics, which get about two
// thirds of the budget), then the replay check.
func runServiceTimed(seed uint64, seconds float64) (*result, error) {
	res := &result{workload: "admission-service"}
	conns := []*svcConn{newSvcConn(seed, 0), newSvcConn(seed, 1)}
	defer func() {
		for _, c := range conns {
			c.client.CloseIdleConnections()
		}
	}()
	svc, setup, err := setupService(41, conns)
	if err != nil {
		return nil, err
	}
	warmupConns(svc, conns)
	// Open loop at the fixed rate, in windows: the median window's p50
	// and p99. Then the sustained-rate search from there.
	limitMS := float64(svcLatencyLimit) / 1e6
	nWindow := int(min(svcWindowBatches, max(50, 0.035*seconds*svcFixedRate/svcBatchOps))) / svcConns * svcConns
	var p50s, p99s []float64
	var fixed []loopSample
	for i := 0; i < svcWindows; i++ {
		w := runRate(svc, conns, svcFixedRate, nWindow, 2*time.Second, nil)
		fixed = append(fixed, w...)
		p50, p99, _, _ := latencyStats(w)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	_, _, lateP99, _ := latencyStats(fixed)
	base := rateStep{rate: svcFixedRate, p99ms: median(p99s)}
	if base.p99ms > limitMS {
		base = rateAttemptTwice(svc, conns, svcFixedRate, limitMS)
	}
	steps := searchRate(svc, conns, base, limitMS)

	// Closed loop: the gated throughput and batch p50, each the median
	// over windows, after one unreported window of warm-up.
	window := time.Duration(0.65 * seconds * float64(time.Second) / svcClosedWindows)
	for _, c := range conns {
		c.batchOps = svcClosedBatchOps
	}
	runClosed(svc, conns, 1, window)
	closed := runClosed(svc, conns, svcClosedWindows, window)
	var rates, cp50s []float64
	var all []loopSample
	for _, w := range closed {
		rates, cp50s = append(rates, w.rate), append(cp50s, w.p50)
		all = append(all, w.samples...)
	}
	_, cp99, _, _ := latencyStats(all)
	heap := liveHeapMB()
	svc.stop()

	mismatched, replayed, _ := replay(seed, conns, nil)
	for _, c := range conns {
		res.attempted += c.ops
		res.failed += c.failed
		res.problems = append(res.problems, c.probs...)
	}
	if mismatched > 0 {
		res.fail(mismatched, "%d ops decided differently over HTTP than by a direct Fleet.Do replay", mismatched)
	}
	if replayed != res.attempted {
		res.fail(1, "replayed %d ops, sent %d", replayed, res.attempted)
	}
	res.addAll(endToEnd, map[string]float64{
		"throughput_per_s": median(rates),
		"setup_s":          setup,
		"heap_mb":          heap,
		"batch_p50_ms":     median(cp50s),
	})
	res.infof("throughput_per_s: decisions/s with %d connections in closed loop (each sends its next %d-op batch when the last returns), median of %d windows of %v %v",
		svcConns, svcClosedBatchOps, len(rates), window.Round(time.Millisecond), roundAll(rates))
	res.infof("batch_p50_ms: the batch request's round trip in the same closed loop, median over the windows of each window's p50 %v ms; %d samples",
		roundAll(cp50s), len(all))
	res.infof("batch_p99_ms %.4g ms (not gated): p99 of the same %d round trips", cp99, len(all))
	res.infof("open loop at %.0f decisions/s, timed from the due time, median of %d windows of %d batches: batch_p50_ms %.4g ms, batch_p99_ms %.4g ms (p99 per window %v ms); generator lateness p99 %.3f ms",
		svcFixedRate, len(p99s), nWindow, median(p50s), median(p99s), roundAll(p99s), lateP99)
	res.infof("max_decisions_per_s %.6g 1/s: highest open-loop rate with batch p99 <= %v, no failed op and no growing backlog", sustainedRate(steps), svcLatencyLimit)
	for _, s := range steps {
		res.infof("  rate %9.0f decisions/s: batch p99 %8.3f ms %s", s.rate, s.p99ms, s.miss)
	}
	return res, nil
}

// svcClosedWindows is how many windows the closed-loop stretch is cut
// into. Each metric is the median of its per-window values, so a host
// stall that hits a few windows drops out.
const svcClosedWindows = 16

// closedWindow is one window of the closed loop: decisions per second,
// the p50 batch round trip in ms, and every batch's sample.
type closedWindow struct {
	rate, p50 float64
	samples   []loopSample
}

// runClosed has every connection send its next batch as soon as the last
// one returns, for windows consecutive windows of length d, and returns
// each window's throughput and round-trip quantiles.
func runClosed(svc *service, conns []*svcConn, windows int, d time.Duration) []closedWindow {
	var out []closedWindow
	for w := 0; w < windows; w++ {
		start := time.Now()
		deadline := start.Add(d)
		results := make([][]loopSample, len(conns))
		ops := make([]int, len(conns))
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *svcConn) {
				defer wg.Done()
				before := c.ops
				for time.Now().Before(deadline) {
					c.prepare(0)
					rtt, err := c.sendNext(svc.base, nil)
					results[i] = append(results[i], loopSample{latency: rtt, err: err})
				}
				ops[i] = c.ops - before
			}(i, c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		total := 0
		var all []loopSample
		for i := range conns {
			total += ops[i]
			all = append(all, results[i]...)
		}
		p50, _, _, _ := latencyStats(all)
		out = append(out, closedWindow{float64(total) / elapsed.Seconds(), p50, all})
	}
	return out
}

// runServiceTraced is the traced run: an untraced and a traced stretch
// at the fixed rate, with the ServeHTTP wrapper, spans and the CPU
// profiler on for the second; then the Fleet.Do replay and the netcalc
// probe.
func runServiceTraced(seed uint64, seconds float64) (*result, error) {
	res := &result{workload: "admission-service"}
	conns := []*svcConn{newSvcConn(seed, 0), newSvcConn(seed, 1)}
	defer func() {
		for _, c := range conns {
			c.client.CloseIdleConnections()
		}
	}()
	svc, _, err := setupService(3, conns)
	if err != nil {
		return nil, err
	}
	warmupConns(svc, conns)
	n := int(min(2*svcWindowBatches, max(100, 0.2*seconds*svcFixedRate/svcBatchOps)))
	ref := runRate(svc, conns, svcFixedRate, n, 2*time.Second, nil)

	spans := newSpanRecorder(1 << 20)
	svc.timed.spans.Store(spans)
	var traced []loopSample
	prof, err := profiled(func() error {
		traced = runRate(svc, conns, svcFixedRate, n, 2*time.Second, spans)
		return nil
	})
	if err != nil {
		svc.stop()
		return nil, err
	}
	svc.timed.spans.Store(nil)
	st := svc.fleet.Snapshot()
	svc.stop()

	mismatched, replayed, wall := replay(seed, conns, spans)
	var admitted, rejected float64
	for _, c := range conns {
		res.attempted += c.ops
		res.failed += c.failed
		res.problems = append(res.problems, c.probs...)
		for _, t := range append([]tally{c.warmTally}, c.tallies...) {
			admitted += float64(t.admitted)
			rejected += float64(t.rejected)
		}
	}
	if mismatched > 0 {
		res.fail(mismatched, "%d ops decided differently over HTTP than by a direct Fleet.Do replay", mismatched)
	}
	m := map[string]float64{}
	m["rmserver.ns_per_decision"] = float64(wall.Nanoseconds()) / float64(replayed)
	svc.timed.mu.Lock()
	m["rmserver.http_serve_p99_ms"] = quantile(svc.timed.serve, 0.99)
	svc.timed.mu.Unlock()
	m["rmserver.decision_p99_ns"] = float64(st.DecisionP99)
	for _, sh := range st.PerShard {
		m["rmserver.queue_wait_p99_us"] = max(m["rmserver.queue_wait_p99_us"], float64(sh.QueueWaitP99NS)/1e3)
	}
	m["rmserver.admit_ratio"] = ratio(admitted, admitted+rejected)
	m["rmserver.throttled"] = float64(st.Throttled)
	_, _, lateP99, _ := latencyStats(traced)
	m["loadgen.batches"] = float64(len(traced))
	m["loadgen.late_p99_ms"] = lateP99
	spans.do(0, 0, "probe netcalc.Cache", func() {
		m["netcalc.ns_per_delay_bound"], m["netcalc.cache_hit_ratio"] = netcalcPerBound(boundQueries(seed), 1, svcServiceLatencyNS)
	})
	m["trace.overhead_ratio"] = meanLatency(traced) / meanLatency(ref)
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
	res.infof("%d untraced and %d traced batches at %.0f decisions/s; netcalc.cache_hit_ratio is the standalone probe's cache over the service's bound queries", len(ref), len(traced), svcFixedRate)
	return res, nil
}

func meanLatency(s []loopSample) float64 {
	var sum float64
	for _, x := range s {
		sum += float64(x.latency)
	}
	return ratio(sum, float64(len(s)))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
