package admission

import (
	"fmt"
	"slices"

	"repro/internal/netcalc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// event is one queued activation/termination at the RM.
type event struct {
	typ MsgType
	app AppRef
}

// eventQueue is a head-indexed FIFO of RM events. Popping advances a
// head index instead of reslicing (`pending = pending[1:]` kept the
// backing array's dead prefix alive, so every push/pop cycle grew and
// reallocated it); the buffer is reset when drained and compacted when
// the dead prefix dominates, so steady-state churn is allocation-flat.
// Same pattern as the NI flit queue fix.
type eventQueue struct {
	buf  []event
	head int
}

func (q *eventQueue) push(ev event) { q.buf = append(q.buf, ev) }

func (q *eventQueue) empty() bool { return q.head == len(q.buf) }

func (q *eventQueue) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // release the AppRef strings
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return ev
}

// RM is the Resource Manager: the centralized scheduling unit with the
// global view of active senders and occupied resources. It serializes
// activation and termination events ("processed in their arrival
// order") and drives the stop/configure cycle for each mode change.
type RM struct {
	sys     *System
	node    noc.Coord
	set     *Set
	pending eventQueue

	reconfiguring bool
	reconfStart   sim.Time
	stopsLeft     int
	confsLeft     int
	current       event
}

func newRM(sys *System, node noc.Coord, set *Set) *RM {
	return &RM{sys: sys, node: node, set: set}
}

// Node returns the RM's mesh coordinate.
func (rm *RM) Node() noc.Coord { return rm.node }

// Mode returns the current system mode: the number of active
// applications.
func (rm *RM) Mode() int { return rm.set.Len() }

// Active returns the active applications, ordered by name.
func (rm *RM) Active() []AppRef { return rm.set.Active() }

// handle receives an actMsg or terMsg (invoked on control-packet
// delivery at the RM node).
func (rm *RM) handle(typ MsgType, app AppRef) {
	rm.pending.push(event{typ, app})
	rm.next()
}

// next starts the following reconfiguration if idle.
func (rm *RM) next() {
	if rm.reconfiguring || rm.pending.empty() {
		return
	}
	ev := rm.pending.pop()

	switch ev.typ {
	case ActMsg:
		if _, dup := rm.set.Rate(ev.app.Name); dup {
			rm.reject(ev.app.Name)
			rm.next()
			return
		}
		// Analytic admission test (Section IV-A run online): evaluate
		// the post-admission rate assignment before committing.
		if _, reason := rm.set.Register(ev.app); reason != "" {
			rm.reject(ev.app.Name)
			node := ev.app.Node
			name := ev.app.Name
			rm.sys.sendCtrl(rm.node, node, ConfMsg, func() {
				rm.sys.client(node).onReject(name)
			})
			rm.next()
			return
		}
	case TerMsg:
		if reason := rm.set.Withdraw(ev.app.Name); reason != "" {
			rm.reject(ev.app.Name)
			rm.next()
			return
		}
	default:
		rm.next()
		return
	}

	rm.reconfiguring = true
	rm.current = ev
	rm.reconfStart = rm.sys.eng.Now()
	rm.sys.stats.ModeChanges++

	// Stop phase: block every node hosting an active application (the
	// terminating node needs no stop; it has nothing left to block,
	// but its client still learns the outcome via a conf).
	// targetNodes always includes the event's own node, so at least
	// one stop and one conf are in flight.
	targets := rm.targetNodes()
	rm.stopsLeft = len(targets)
	for _, node := range targets {
		rm.sys.sendCtrl(rm.node, node, StopMsg, func() {
			rm.sys.client(node).onStop()
			rm.stopDelivered()
		})
	}
}

// reject accounts a refused event.
func (rm *RM) reject(name string) {
	rm.sys.stats.Rejected++
	rm.sys.traceReject(name, rm.sys.eng.Now())
}

// targetNodes returns the nodes hosting active applications plus the
// node of the event's application (which must be unblocked/informed),
// deduplicated and ordered.
func (rm *RM) targetNodes() []noc.Coord {
	var out []noc.Coord
	for _, a := range append(rm.Active(), rm.current.app) {
		if !slices.Contains(out, a.Node) {
			out = append(out, a.Node)
		}
	}
	return out
}

func (rm *RM) stopDelivered() {
	rm.stopsLeft--
	if rm.stopsLeft == 0 {
		rm.configure()
	}
}

// configure distributes confMsgs; each client reads the new mode and
// its applications' rates from the admitted set, which no event can
// change until the reconfiguration finishes.
func (rm *RM) configure() {
	targets := rm.targetNodes()
	rm.confsLeft = len(targets)
	for _, node := range targets {
		rm.sys.sendCtrl(rm.node, node, ConfMsg, func() {
			rm.sys.client(node).onConf(rm.set)
			rm.confDelivered()
		})
	}
}

func (rm *RM) confDelivered() {
	rm.confsLeft--
	if rm.confsLeft == 0 {
		rm.finish()
	}
}

// finish closes the reconfiguration and accounts its latency.
func (rm *RM) finish() {
	lat := (rm.sys.eng.Now() - rm.reconfStart).Nanoseconds()
	st := &rm.sys.stats
	st.TotalModeLat += lat
	st.TotalModeLatN++
	if lat > st.MaxModeLat {
		st.MaxModeLat = lat
	}
	switch rm.current.typ {
	case ActMsg:
		st.Admitted++
	case TerMsg:
		st.Terminated++
	}
	if rm.sys.tel != nil {
		rm.sys.traceModeChange(rm.current.typ, rm.current.app.Name,
			rm.reconfStart, rm.sys.eng.Now(), rm.Mode())
	}
	rm.reconfiguring = false
	rm.next()
}

// System wires a NoC, one RM, and one client per node.
type System struct {
	eng     *sim.Engine
	mesh    *noc.NoC
	rm      *RM
	clients map[noc.Coord]*Client
	stats   Stats
	tel     *telemetryState
}

// NewSystem builds the admission overlay on an existing mesh. The RM
// is placed at rmNode and decides under spec.
func NewSystem(eng *sim.Engine, mesh *noc.NoC, rmNode noc.Coord, spec Spec) (*System, error) {
	if !mesh.InMesh(rmNode) {
		return nil, fmt.Errorf("admission: RM node %v outside mesh", rmNode)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		eng:     eng,
		mesh:    mesh,
		clients: make(map[noc.Coord]*Client),
		stats:   Stats{Messages: make(map[MsgType]uint64)},
	}
	s.rm = newRM(s, rmNode, NewSet(spec, netcalc.NewCache(0)))
	return s, nil
}

// RM returns the resource manager.
func (s *System) RM() *RM { return s.rm }

// Stats returns a snapshot of the protocol statistics.
func (s *System) Stats() Stats {
	cp := s.stats
	cp.Messages = make(map[MsgType]uint64, len(s.stats.Messages))
	for k, v := range s.stats.Messages {
		cp.Messages[k] = v
	}
	return cp
}

// Client returns (creating on demand) the supervisor at a node.
func (s *System) Client(at noc.Coord) (*Client, error) {
	if !s.mesh.InMesh(at) {
		return nil, fmt.Errorf("admission: node %v outside mesh", at)
	}
	return s.client(at), nil
}

func (s *System) client(at noc.Coord) *Client {
	c := s.clients[at]
	if c == nil {
		c = newClient(s, at)
		s.clients[at] = c
	}
	return c
}

// sendCtrl ships one protocol message as a real packet over the mesh.
func (s *System) sendCtrl(from, to noc.Coord, typ MsgType, onDelivered func()) {
	s.stats.Messages[typ]++
	ni, err := s.mesh.NI(from)
	if err != nil {
		panic(fmt.Sprintf("admission: control send from bad node: %v", err))
	}
	pkt := &noc.Packet{
		Dst:   to,
		Bytes: ctrlMsgBytes,
		Flow:  "ctrl:" + typ.String(),
		OnDelivered: func(sim.Time) {
			onDelivered()
		},
	}
	if err := ni.Send(pkt); err != nil {
		panic(fmt.Sprintf("admission: control send failed: %v", err))
	}
}
