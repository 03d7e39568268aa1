package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Every call the harness makes
// into a layer's public function is one span; the spans of one replay share a
// parent, and the spans of one operation (one frame, one request) share Op.
// Units is how many points or requests the span handled. Start and End are
// nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Units  int    `json:"units,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for concurrent
// use: the two-writer tsdb replay records from two goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. The clock is read after the
// bookkeeping, so that a growing span slice stays outside the span.
func (t *tracer) begin(name string, parent, op, units int) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, Op: op, Units: units})
	id := len(t.spans)
	t.spans[id-1].ID = id
	t.spans[id-1].Start = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// replay is a span whose children are the calls of one replay of a batch of
// operations at one entry point.
type replay struct {
	t  *tracer
	id int
}

func (t *tracer) replay(name string) replay { return replay{t, t.begin(name, 0, 0, 0)} }

// call times fn as a child span that handles units points or requests. The
// child is returned as a replay, for calls that are made of calls.
func (r replay) call(name string, op, units int, fn func(sub replay)) {
	id := r.t.begin(name, r.id, op, units)
	fn(replay{r.t, id})
	r.t.end(id)
}

func (r replay) done() { r.t.end(r.id) }

// perUnit returns the cost of one point or request at this entry point, in
// nanoseconds: the median, over the replay's child spans with the given name
// ("" = all), of the span's duration divided by its units. The median keeps
// one collection or one descheduled call out of the figure.
func (r replay) perUnit(name string) float64 {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	var costs []float64
	for _, s := range r.t.spans {
		if s.Parent == r.id && s.Units > 0 && (name == "" || s.Name == name) {
			costs = append(costs, float64(s.End-s.Start)/float64(s.Units))
		}
	}
	return median(costs)
}

// selfTimes returns, by span id, each span's duration minus the part of it
// that its child spans cover. Overlapping children (concurrent calls) are
// counted once, and a child's part outside its parent is not counted.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// overheadPerSpan measures what a span costs the code around it: the self
// time of the spans with the given name, which do nothing themselves but
// make the calls that are their children, per child.
func (t *tracer) overheadPerSpan(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	parents := make(map[int]bool)
	total, children := 0.0, 0
	for _, s := range t.spans {
		if s.Name == name {
			parents[s.ID] = true
			total += float64(self[s.ID])
		} else if parents[s.Parent] {
			children++
		}
	}
	return total / float64(children)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
