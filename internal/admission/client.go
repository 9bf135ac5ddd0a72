package admission

import (
	"fmt"

	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// appState is the client's view of one local application.
type appState struct {
	ref AppRef
	// phase transitions: idle -> requesting -> active -> idle.
	requesting bool
	active     bool
	rejected   bool

	shaper  *netcalc.Shaper
	queue   []*noc.Packet
	pumping bool

	activatedAt sim.Time
	admittedAt  sim.Time
	sent        uint64 // bytes injected into the data layer
}

// Client is a node's local supervisor (Section V): it prevents
// non-authorized accesses, traps first transmissions until the RM
// admits the application, enforces the assigned injection rate, blocks
// traffic on stopMsg, and reports termination.
type Client struct {
	sys  *System
	at   noc.Coord
	apps map[string]*appState
	// stopped blocks all data-plane injection between a stopMsg and
	// the following confMsg.
	stopped bool
	mode    int
}

func newClient(s *System, at noc.Coord) *Client {
	return &Client{sys: s, at: at, apps: make(map[string]*appState)}
}

// At returns the client's node.
func (c *Client) At() noc.Coord { return c.at }

// Mode returns the system mode last communicated to this client.
func (c *Client) Mode() int { return c.mode }

// Stopped reports whether the client is between a stopMsg and its
// confMsg.
func (c *Client) Stopped() bool { return c.stopped }

// Register declares an application running on this node and its
// traffic contract, which travels with every activation to the RM's
// admission test; a zero Requirement declares a best-effort app.
// Unregistered applications cannot send (non-authorized access
// prevention).
func (c *Client) Register(name string, crit Criticality, req Requirement) error {
	if name == "" {
		return fmt.Errorf("admission: empty application name")
	}
	if _, dup := c.apps[name]; dup {
		return fmt.Errorf("admission: application %q already registered at %v", name, c.at)
	}
	if err := req.Validate(); err != nil {
		return err
	}
	c.apps[name] = &appState{ref: AppRef{Name: name, Node: c.at, Crit: crit, Req: req}}
	return nil
}

// AppActive reports whether the application has been admitted.
func (c *Client) AppActive(name string) bool {
	a := c.apps[name]
	return a != nil && a.active
}

// AdmissionLatency returns request-to-admission latency for an active
// application.
func (c *Client) AdmissionLatency(name string) (sim.Duration, error) {
	a := c.apps[name]
	if a == nil || !a.active {
		return 0, fmt.Errorf("admission: %q not active", name)
	}
	return a.admittedAt - a.activatedAt, nil
}

// Rate returns the injection rate the client enforces for an active
// application: the RM-assigned rate of the last confMsg.
func (c *Client) Rate(name string) (float64, bool) {
	if a := c.apps[name]; a != nil && a.active && a.shaper != nil {
		return a.shaper.Rate(), true
	}
	return 0, false
}

// Sent returns the bytes the application has injected so far.
func (c *Client) Sent(name string) uint64 {
	if a := c.apps[name]; a != nil {
		return a.sent
	}
	return 0
}

// Submit hands one data packet to the supervisor. A first transmission
// from an idle application is trapped: the packet is queued and an
// actMsg goes to the RM; the packet flows once the RM's confMsg
// arrives.
func (c *Client) Submit(app string, pkt *noc.Packet) error {
	a := c.apps[app]
	if a == nil {
		return fmt.Errorf("admission: unauthorized application %q at %v", app, c.at)
	}
	if pkt == nil || pkt.Bytes <= 0 {
		return fmt.Errorf("admission: bad packet")
	}
	pkt.Flow = app
	pkt.Submitted = c.sys.eng.Now()
	a.queue = append(a.queue, pkt)

	if !a.active && !a.requesting {
		// First transmission: trap and request admission.
		a.requesting = true
		a.rejected = false
		a.activatedAt = c.sys.eng.Now()
		ref := a.ref
		c.sys.sendCtrl(c.at, c.sys.rm.node, ActMsg, func() {
			c.sys.rm.handle(ActMsg, ref)
		})
	}
	c.pump(a)
	return nil
}

// Terminate reports the application's termination to the RM; its
// remaining queued packets are dropped (the application is gone).
func (c *Client) Terminate(app string) error {
	a := c.apps[app]
	if a == nil {
		return fmt.Errorf("admission: unauthorized application %q", app)
	}
	if !a.active {
		return fmt.Errorf("admission: %q is not active", app)
	}
	a.active = false
	a.queue = nil
	a.shaper = nil
	ref := a.ref
	c.sys.sendCtrl(c.at, c.sys.rm.node, TerMsg, func() {
		c.sys.rm.handle(TerMsg, ref)
	})
	return nil
}

// onStop blocks all local injection (stopMsg).
func (c *Client) onStop() { c.stopped = true }

// onReject handles an admission rejection: the trapped traffic is
// dropped and the application may retry later with a fresh Submit.
func (c *Client) onReject(app string) {
	a := c.apps[app]
	if a == nil {
		return
	}
	a.requesting = false
	a.queue = nil
	a.rejected = true
}

// AppRejected reports whether the application's last admission attempt
// was rejected by the RM's analytic test.
func (c *Client) AppRejected(name string) bool {
	a := c.apps[name]
	return a != nil && a.rejected
}

// onConf applies the admitted set's mode and rates, then unblocks
// (confMsg).
func (c *Client) onConf(set *Set) {
	c.stopped = false
	c.mode = set.Len()
	now := c.sys.eng.Now()
	for name, a := range c.apps {
		rate, ok := set.Rate(name)
		if !ok {
			// Not in the active set (terminated or never admitted).
			if a.requesting {
				continue // still waiting for its own activation cycle
			}
			a.active = false
			a.shaper = nil
			continue
		}
		if !a.active {
			a.active = true
			a.requesting = false
			a.admittedAt = now
		}
		if a.shaper == nil {
			// Burst: one packet's worth at the assigned rate over a
			// 100ns window, at least one flit.
			burst := rate * 100
			if min := float64(c.sys.mesh.Config().FlitBytes); burst < min {
				burst = min
			}
			sh, err := netcalc.NewShaper(burst, rate)
			if err == nil {
				a.shaper = sh
			}
		} else {
			a.shaper.SetRate(now, rate)
		}
		c.pump(a)
	}
}

// pump injects an application's queued packets as its shaper allows.
func (c *Client) pump(a *appState) {
	if a.pumping {
		return
	}
	a.pumping = true
	defer func() { a.pumping = false }()

	for {
		if c.stopped || !a.active || len(a.queue) == 0 || a.shaper == nil {
			return
		}
		head := a.queue[0]
		now := c.sys.eng.Now()
		if !a.shaper.Take(now, float64(head.Bytes)) {
			at := a.shaper.EarliestConforming(now, float64(head.Bytes))
			if at == sim.Forever {
				// The packet exceeds the bucket depth: deepen the
				// bucket to one packet (the shaper still enforces the
				// sustained rate, which is what the RM allocated).
				sh, err := netcalc.NewShaper(float64(head.Bytes), a.shaper.Rate())
				if err != nil {
					return
				}
				a.shaper = sh
				continue
			}
			c.sys.eng.At(at, func() { c.pump(a) })
			return
		}
		a.queue = a.queue[1:]
		ni, err := c.sys.mesh.NI(c.at)
		if err != nil {
			return
		}
		if err := ni.Send(head); err != nil {
			return
		}
		a.sent += uint64(head.Bytes)
	}
}
