// Package admission implements the end-to-end admission control
// architecture of Section V of the paper (Figs. 6 and 7): a control
// layer decoupled from the data layer, built from per-node supervisors
// (clients) and a central Resource Manager (RM).
//
// Clients trap an application's first transmission, hold its traffic
// until the RM admits it, enforce the RM-assigned injection rate with
// a token-bucket shaper, report termination, and block traffic during
// mode changes. The RM has the global view: each activation or
// termination moves the system to a new mode (the number of active
// applications), and the RM re-derives every application's injection
// rate from the configured policy — symmetric (uniform degradation
// with rising mode) or non-symmetric (criticality-aware, preserving
// guarantees for critical applications while squeezing best effort).
//
// The decision itself — the two-class rate assignment plus the
// Section IV-A delay-bound test over every admitted application — is
// one allocation-free kernel, Set. The simulated RM decides through
// it, and so does every shard of the internal/rmserver service plane,
// so the two planes cannot drift apart.
//
// All four protocol messages (actMsg, terMsg, stopMsg, confMsg) travel
// as real packets through the internal/noc fabric, so protocol
// overhead and mode-change latency are measured, not assumed.
package admission

import (
	"fmt"

	"repro/internal/noc"
)

// Criticality classifies an application for non-symmetric policies.
type Criticality int

// Criticality levels.
const (
	BestEffort Criticality = iota
	Critical
)

// String implements fmt.Stringer.
func (c Criticality) String() string {
	if c == Critical {
		return "critical"
	}
	return "best-effort"
}

// AppRef identifies a registered application, where it runs, and the
// traffic contract it declared when it registered.
type AppRef struct {
	Name string
	Node noc.Coord
	Crit Criticality
	Req  Requirement
}

// MsgType enumerates the protocol messages.
type MsgType int

// The four control messages of the protocol (Section V).
const (
	ActMsg  MsgType = iota // client -> RM: application activated
	TerMsg                 // client -> RM: application terminated
	StopMsg                // RM -> client: block accesses for a mode change
	ConfMsg                // RM -> client: new mode and rates; unblock
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case ActMsg:
		return "actMsg"
	case TerMsg:
		return "terMsg"
	case StopMsg:
		return "stopMsg"
	case ConfMsg:
		return "confMsg"
	}
	return fmt.Sprintf("msg(%d)", int(m))
}

// ctrlMsgBytes is the size of a control packet on the NoC.
const ctrlMsgBytes = 8

// Stats aggregates protocol and mode-change behaviour.
type Stats struct {
	Messages      map[MsgType]uint64
	ModeChanges   uint64
	Admitted      uint64
	Terminated    uint64
	Rejected      uint64
	TotalModeLatN uint64  // completed reconfigurations measured
	TotalModeLat  float64 // summed ns
	MaxModeLat    float64 // ns
}

// MeanModeChangeLatencyNS reports the average stop-to-conf-complete
// reconfiguration latency.
func (s Stats) MeanModeChangeLatencyNS() float64 {
	if s.TotalModeLatN == 0 {
		return 0
	}
	return s.TotalModeLat / float64(s.TotalModeLatN)
}
