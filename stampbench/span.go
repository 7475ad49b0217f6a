package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval of the benchmark's own code around a call
// into a layer of the program. Parent is the ID of the span that caused it
// (0 for a root); an instant event has Start == End.
type span struct {
	ID, Parent int
	Name       string
	Track      int   // display lane: 0 for the batch driver, 1+client for serving
	Start, End int64 // ns since the recorder started
	Instant    bool
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op returning span ID 0.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Track: track, Start: now, End: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval and returns its ID.
func (r *recorder) add(name string, parent, track int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Track: track,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// instant records a point event (an epoch swap seen between two gauges).
func (r *recorder) instant(name string, parent, track int) {
	if r == nil {
		return
	}
	id := r.begin(name, parent, track)
	r.mu.Lock()
	r.spans[id-1].Instant = true
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by the union of its children (children may overlap each
// other and may stick out of the parent; only the covered part inside the
// parent counts).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.Instant {
			continue
		}
		self[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of kids.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeChrome writes spans as Chrome trace-event JSON (loadable in Perfetto
// or chrome://tracing); IDs and parents ride in each event's args.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name  string         `json:"name"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur,omitempty"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Scope string         `json:"s,omitempty"`
		Args  map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
		if s.Instant {
			e.Ph, e.Dur, e.Scope = "i", 0, "g"
		}
		evs = append(evs, e)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
