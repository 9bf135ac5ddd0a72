package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The standalone layer probes below each build one layer from its
// public constructor, feed it the workload's own traffic, and time the
// layer alone. They run after the traced pass, on its finished
// platforms, which supply the configuration and the traffic.

// replayKernel replays captured event timestamps on a fresh sim.Engine
// with no-op events, keeping depth events queued (the live queue depth
// the platform ran at), and returns the wall time per event.
func replayKernel(runs [][]sim.Time, depths []float64) float64 {
	var events int
	var wall time.Duration
	for i, times := range runs {
		if len(times) == 0 {
			continue
		}
		depth := int(depths[i] + 0.5)
		depth = max(1, min(depth, len(times)))
		eng := sim.NewEngine()
		next := depth
		var fire sim.Event
		fire = func() {
			if next < len(times) {
				eng.At(times[next], fire)
				next++
			}
		}
		for k := 0; k < depth; k++ {
			eng.At(times[k], fire)
		}
		t0 := time.Now()
		eng.Run()
		wall += time.Since(t0)
		events += len(times)
	}
	if events == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(events)
}

// homeNode is where an app's cache misses go: its cluster's home DRAM
// channel node.
func homeNode(p *core.Platform, app *core.App) (noc.Coord, error) {
	return p.ChannelNode(p.HomeChannel(app.Config().Cluster))
}

// nocPerFlitHop drives a fresh mesh with the platform's tile-to-home-
// channel traffic: every app's node sends packetsPerApp cache-line
// packets to its home channel, one at a time (the next on delivery of
// the last, as an app's misses go out). It returns wall ns per flit hop.
func nocPerFlitHop(p *core.Platform, packetsPerApp int) (float64, error) {
	eng := sim.NewEngine()
	mesh, err := noc.New(eng, p.MeshConfig())
	if err != nil {
		return 0, err
	}
	var sendErr error
	for _, name := range p.Apps() {
		app, err := p.App(name)
		if err != nil {
			return 0, err
		}
		dst, err := homeNode(p, app)
		if err != nil {
			return 0, err
		}
		src := app.Config().Node
		if src == dst {
			continue
		}
		ni, err := mesh.NI(src)
		if err != nil {
			return 0, err
		}
		left := packetsPerApp
		var send func(sim.Time)
		send = func(sim.Time) {
			if left == 0 || sendErr != nil {
				return
			}
			left--
			if err := ni.Send(&noc.Packet{Flow: name, Dst: dst, Bytes: app.Config().Profile.ReqBytes, OnDelivered: send}); err != nil {
				sendErr = err
			}
		}
		send(0)
	}
	t0 := time.Now()
	eng.Run()
	wall := time.Since(t0)
	if sendErr != nil {
		return 0, sendErr
	}
	if mesh.FlitHops() == 0 {
		return 0, fmt.Errorf("noc probe moved no flits")
	}
	return float64(wall.Nanoseconds()) / float64(mesh.FlitHops()), nil
}

// appProfiles returns every app's access profile, rewound to its start.
func appProfiles(p *core.Platform) ([]*core.App, []*trace.Profile) {
	var apps []*core.App
	var profs []*trace.Profile
	for _, name := range p.Apps() {
		app, err := p.App(name)
		if err != nil {
			continue
		}
		prof := app.Config().Profile
		prof.Reset()
		apps = append(apps, app)
		profs = append(profs, prof)
	}
	return apps, profs
}

// dramPerRequest submits n reads from the apps' address streams to fresh
// controllers (one per channel, the platform's controller config),
// routed by dram.Interleave, keeping depth requests in flight per
// channel. It returns wall ns per completed request.
func dramPerRequest(p *core.Platform, n, depth int) (float64, error) {
	ctrl0, err := p.ChannelController(0)
	if err != nil {
		return 0, err
	}
	cfg := ctrl0.Config()
	iv := dram.Interleave{Channels: p.Channels(), RowBytes: int64(core.DefaultConfig().RowBytes), Banks: cfg.Banks}
	_, profs := appProfiles(p)
	queues := make([][]*dram.Request, p.Channels())
	for i := 0; i < n; i++ {
		addr := profs[i%len(profs)].Next()
		ch, bank, row := iv.Route(int64(addr))
		queues[ch] = append(queues[ch], &dram.Request{Master: "drv", Op: dram.Read, Bank: bank, Row: row})
	}
	eng := sim.NewEngine()
	done := 0
	ctrls := make([]*dram.Controller, p.Channels())
	next := make([]int, p.Channels())
	var submitErr error
	submit := func(ch int) {
		if next[ch] >= len(queues[ch]) {
			return
		}
		r := queues[ch][next[ch]]
		next[ch]++
		if err := ctrls[ch].Submit(r); err != nil && submitErr == nil {
			submitErr = err
			eng.Halt()
		}
	}
	for ch := range ctrls {
		c, err := dram.NewController(eng, cfg, func(*dram.Request) {
			done++
			if done == n {
				eng.Halt()
				return
			}
			submit(ch)
		})
		if err != nil {
			return 0, err
		}
		ctrls[ch] = c
	}
	depth = min(depth, cfg.ReadQueueCap)
	for ch := range ctrls {
		for k := 0; k < depth; k++ {
			submit(ch)
		}
	}
	t0 := time.Now()
	eng.Run()
	wall := time.Since(t0)
	if submitErr != nil {
		return 0, submitErr
	}
	if done != n {
		return 0, fmt.Errorf("dram probe completed %d of %d requests", done, n)
	}
	return float64(wall.Nanoseconds()) / float64(n), nil
}

// cachePerAccess replays n accesses of the apps' address streams, round
// robin, through fresh per-cluster hierarchies with the platform's cache
// geometry, and returns wall ns per access.
func cachePerAccess(p *core.Platform, n int) (float64, error) {
	hiers := make([]*cache.Hierarchy, p.ClusterCount())
	for k := range hiers {
		cl, err := p.Cluster(k)
		if err != nil {
			return 0, err
		}
		l3cfg := cl.L3().Config()
		l3cfg.Policy = nil
		l3, err := cache.New(l3cfg)
		if err != nil {
			return 0, err
		}
		var l2 *cache.Cache
		if cl.L2() != nil {
			l2cfg := cl.L2().Config()
			l2cfg.Policy = nil
			if l2, err = cache.New(l2cfg); err != nil {
				return 0, err
			}
		}
		hiers[k] = cache.NewHierarchy(l2, l3)
	}
	apps, profs := appProfiles(p)
	type access struct {
		h     *cache.Hierarchy
		owner cache.Owner
		addr  uint64
	}
	stream := make([]access, n)
	for i := range stream {
		a := i % len(apps)
		stream[i] = access{hiers[apps[a].Config().Cluster], cache.Owner(apps[a].Config().Scheme), profs[a].Next()}
	}
	t0 := time.Now()
	for _, a := range stream {
		a.h.Access(a.owner, a.addr, false)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// boundQuery is one (burst, mode) pair the admission service's
// decisions evaluate: a token bucket of burst bytes at the symmetric
// rate budget/mode through a rate-latency server at that rate.
type boundQuery struct {
	burst float64
	mode  int
}

// netcalcPerBound evaluates the queries through a fresh netcalc.Cache
// and returns wall ns per bound and the cache's hit ratio.
func netcalcPerBound(qs []boundQuery, budget, latencyNS float64) (nsPer, hitRatio float64) {
	c := netcalc.NewCache(0)
	t0 := time.Now()
	for _, q := range qs {
		r := budget / float64(q.mode)
		c.DelayBoundThrough(netcalc.TokenBucket(q.burst, r), netcalc.RateLatency(r, latencyNS))
	}
	wall := time.Since(t0)
	st := c.Stats()
	return float64(wall.Nanoseconds()) / float64(len(qs)), ratio(float64(st.Hits), float64(st.Hits+st.Misses))
}
