package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one spec run or one request share a Group; Parent is the
// enclosing span's ID (0 for a root).
type span struct {
	ID, Parent uint64
	Group      uint64
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
	limit int
}

func newSpanRecorder(limit int) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), limit: limit}
}

// begin opens a span and returns its ID and start offset.
func (r *spanRecorder) begin() (uint64, time.Duration) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, time.Since(r.epoch)
}

// end closes a span opened by begin.
func (r *spanRecorder) end(id, parent, group uint64, name string, start time.Duration) {
	if r == nil {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: end})
	}
	r.mu.Unlock()
}

// do records fn as one span.
func (r *spanRecorder) do(parent, group uint64, name string, fn func()) {
	id, start := r.begin()
	fn()
	r.end(id, parent, group, name, start)
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - curStart
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace_event JSON ("X"
// complete events, microsecond timestamps). Each group gets its own
// track; args carry the span, parent and group IDs and the self time.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Group,
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "group": s.Group,
				"self_us": float64(self[s.ID]) / 1e3,
			},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
