package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// The benchmark's metric tables and BENCHMARK.json must list the same
// metrics, in the same order, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, names[i], units[i])
			}
		}
	}
	var names, units []string
	setupBound, maxBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	check("end_to_end", endToEnd, names, units)
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
}

func TestMetricNamesAreWellFormed(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("malformed metric %q (%q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics exceed 128", len(perLayer))
	}
}
