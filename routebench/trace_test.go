package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"routelab/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "build", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

// Serial obs stages become nested child spans of the ambient benchmark
// span; interleaving per-request service stages are not recorded.
func TestTracerPairsSerialStages(t *testing.T) {
	tr := newTracer()
	tr.listen()
	defer tr.stop()
	root := tr.begin("scenario.Build", 0, 0)
	tr.setAmbient(root)
	outer := obs.StartStage("scenario/converge-current")
	inner := obs.StartStage("bgp/compute-rib")
	inner()
	outer()
	obs.StartStage("service/classify")()
	tr.setAmbient(0)
	tr.end(root)

	byName := map[string]span{}
	for _, s := range tr.closed() {
		byName[s.Name] = s
	}
	if len(byName) != 3 {
		t.Fatalf("spans %v, want the benchmark span and two stage spans", byName)
	}
	if byName["stage/scenario/converge-current"].Parent != root {
		t.Errorf("stage span not parented to the benchmark span")
	}
	if byName["stage/bgp/compute-rib"].Parent != byName["stage/scenario/converge-current"].ID {
		t.Errorf("nested stage not parented to its enclosing stage")
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, provenance{Workload: "test"}); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []span `json:"spans"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &dump); err != nil || len(dump.Spans) != 3 {
		t.Errorf("dump: %v, %d spans", err, len(dump.Spans))
	}
}

// The untraced mode is a nil tracer; every method must be a no-op.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	tr.listen()
	id := tr.begin("x", 0, 0)
	tr.setAmbient(id)
	tr.end(id)
	tr.stop()
	if id != 0 || tr.closed() != nil || tr.write("unused", provenance{}) != nil {
		t.Errorf("nil tracer recorded something")
	}
}
