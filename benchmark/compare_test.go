package main

import (
	"math"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver judges spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	for i, pair := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("cut %d = %v, want %v", i+1, pair[0], pair[1])
		}
	}
	// >>> statistics.quantiles([3.0, 1.0, 2.0], n=4)
	// [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three points: %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := MetricDef{Name: "op_p50_ms", Bound: 0.10}
	higher := MetricDef{Name: "ops_per_s", Higher: true, Bound: 0.10}
	tight := func(m float64) Summary { return Summary{N: 10, Q1: m * 0.99, Median: m, Q3: m * 1.01} }
	wide := func(m float64) Summary { return Summary{N: 10, Q1: m * 0.9, Median: m, Q3: m * 1.1} }
	cases := []struct {
		def        MetricDef
		base, next Summary
		want       string
	}{
		{lower, tight(10), tight(10.5), "same"},
		{lower, tight(10), tight(11.5), "worse"},
		{lower, tight(10), tight(9), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, wide(10), tight(20), "unresolved"},
	}
	for _, c := range cases {
		if _, got := Verdict(c.def, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.base.Median, c.next.Median, got, c.want)
		}
	}
}
