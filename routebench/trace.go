package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"routelab/internal/obs"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer (benchmark spans) or reported by the program's own obs
// stage events (stage spans).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"` // request id shared by a request's spans
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced runs pay one
// nil check per boundary.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	open   map[int64]int // span id -> index in spans while open
	stages []int64       // open serial stage spans, innermost last
	// ambient parents stage spans that open with no stage enclosing
	// them (the benchmark span around the call that triggered the work).
	ambient int64
	cancel  func()
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int64]int{}}
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.open[id] = len(t.spans) - 1
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// setAmbient makes id the parent of stage spans that start outside any
// other stage, until the next setAmbient.
func (t *tracer) setAmbient(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ambient = id
	t.mu.Unlock()
}

// tracedStage reports whether an obs stage runs serially, so its
// begin/end events pair unambiguously into spans. Per-request service
// stages interleave across connections; they are read from stage-timer
// deltas instead.
func tracedStage(name string) bool {
	switch {
	case strings.HasPrefix(name, "scenario/"), strings.HasPrefix(name, "bgp/"),
		strings.HasPrefix(name, "experiment/"), strings.HasPrefix(name, "experiments/"):
		return true
	}
	return name == "service/scenario-build"
}

// listen subscribes to obs stage events and records the serial ones as
// child spans of the innermost open stage (or the ambient span).
func (t *tracer) listen() {
	if t == nil {
		return
	}
	t.cancel = obs.OnStage(func(name string, begin bool) {
		if !tracedStage(name) {
			return
		}
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		defer t.mu.Unlock()
		if begin {
			parent := t.ambient
			if n := len(t.stages); n > 0 {
				parent = t.stages[n-1]
			}
			id := int64(len(t.spans)) + 1
			t.spans = append(t.spans, span{ID: id, Parent: parent, Name: "stage/" + name, Start: now, End: -1})
			t.stages = append(t.stages, id)
			return
		}
		// Close the innermost open stage of this name.
		for k := len(t.stages) - 1; k >= 0; k-- {
			i := t.stages[k] - 1
			if t.spans[i].Name == "stage/"+name {
				t.spans[i].End = now
				t.stages = append(t.stages[:k], t.stages[k+1:]...)
				return
			}
		}
	})
}

// stop unsubscribes from stage events.
func (t *tracer) stop() {
	if t != nil && t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// closed returns a copy of every completed span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// merged, and children are clipped to the parent).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curS, curE int64
		inRun := false
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if !inRun || a > curE {
				if inRun {
					covered += curE - curS
				}
				curS, curE, inRun = a, b, true
				continue
			}
			curE = max(curE, b)
		}
		if inRun {
			covered += curE - curS
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps the spans with the run's provenance as JSON.
func (t *tracer) write(path string, prov provenance) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.closed()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
