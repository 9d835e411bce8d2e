package main

import (
	"math"
	"testing"
)

func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, // too few for ten beyond even the median
		{20, 0.5},
		{100, 0.9},
		{500, 0.98},
		{1000, 0.99},
		{5000, 0.99}, // p99 itself once it has ten beyond it
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The reported tail always leaves at least ten samples above it.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 37, 100, 999, 1000, 1001, 4321} {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(n - i) // distinct, unsorted
		}
		v, q := s.tail()
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d q=%v: tail %v has %d samples beyond, want >= %d", n, q, v, beyond, minBeyond)
		}
		if q == 0.99 && n >= 1000 && v != s.quantile(0.99) {
			t.Errorf("n=%d: tail %v is not p99", n, v)
		}
	}
}

// A failed request is an infinite latency: it always counts as missing
// a limit, and enough of them push the tail past any limit.
func TestFailuresMissTheLimit(t *testing.T) {
	s := make(sample, 1000)
	for i := range s {
		s[i] = 1
	}
	for i := 0; i < 10; i++ {
		s[i] = failedLatency
	}
	if got := s.failures(); got != 10 {
		t.Fatalf("failures = %d, want 10", got)
	}
	if v, _ := s.tail(); v != 1 {
		t.Errorf("10 failures in 1000: tail %v, want 1 (failures lie beyond p99)", v)
	}
	s[10] = failedLatency
	if v, _ := s.tail(); !math.IsInf(v, 1) {
		t.Errorf("11 failures in 1000: tail %v, want +Inf", v)
	}
	if capFailed(math.Inf(1)) != ms(requestTimeout) {
		t.Errorf("capFailed(+Inf) should read the request timeout")
	}
}

func TestMedian(t *testing.T) {
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(sample(nil).median()) {
		t.Errorf("empty median should be NaN")
	}
}

// quartiles must match CPython's statistics.quantiles(v, n=4), the rule
// the benchmark's run-to-run spread is judged by. Expected values were
// computed with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}
