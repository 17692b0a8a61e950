package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// MetricDef describes an end-to-end metric: its direction and the share
// of the base median by which it may worsen before a change counts as a
// regression. BENCHMARK.json carries the same table for the driver.
type MetricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

// EndToEnd lists the end-to-end metrics in reporting order.
var EndToEnd = []MetricDef{
	{"ops_per_s", "1/s", true, 0.20},
	{"op_p50_ms", "ms", false, 0.20},
	{"op_p90_ms", "ms", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver uses to judge spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Summary is the spread of one metric over repeated runs.
type Summary struct {
	N              int
	Q1, Median, Q3 float64
}

// Spread is the interquartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// summarize groups end-to-end records by workload and metric.
func summarize(recs []Record) (workloads []string, by map[string]map[string]Summary) {
	vals := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			workloads = append(workloads, r.Workload)
		}
		for name, m := range r.Outcome.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	by = map[string]map[string]Summary{}
	for w, ms := range vals {
		by[w] = map[string]Summary{}
		for name, xs := range ms {
			q1, q2, q3 := quartiles(xs)
			by[w][name] = Summary{N: len(xs), Q1: q1, Median: q2, Q3: q3}
		}
	}
	return workloads, by
}

// PrintSpread prints median and quartiles of every end-to-end metric
// over the repetitions just run (-reps N), with the spread next to the
// metric's bound.
func PrintSpread(w io.Writer, recs []Record) {
	workloads, by := summarize(recs)
	if len(workloads) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-13s %-14s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, def := range EndToEnd {
			s, ok := by[wl][def.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-13s %-14s %3d %12.4f %12.4f %12.4f %7.1f%% %5.0f%%\n",
				wl, def.Name, s.N, s.Q1, s.Median, s.Q3, 100*s.Spread(), 100*def.Bound)
		}
	}
}

func loadRecords(path string) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// Verdict classifies one (workload, metric) pair of a comparison.
func Verdict(def MetricDef, base, next Summary) (ratio float64, verdict string) {
	if base.Median == 0 {
		return 0, "unresolved"
	}
	ratio = next.Median / base.Median
	worse := ratio - 1
	if def.Higher {
		worse = 1 - ratio
	}
	switch {
	case base.Spread() > def.Bound || next.Spread() > def.Bound:
		// The runs of one side disagree among themselves by more than
		// the bound: no verdict can be read off the medians.
		return ratio, "unresolved"
	case worse > def.Bound:
		return ratio, "worse"
	case -worse > base.Spread() && -worse > next.Spread():
		return ratio, "better"
	default:
		return ratio, "same"
	}
}

// Compare prints one row per (workload, end-to-end metric): both
// medians, the ratio with its base, the bound, the two spreads and the
// verdict. It returns an error when any row is worse.
func Compare(w io.Writer, basePath, nextPath string) error {
	baseRecs, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	nextRecs, err := loadRecords(nextPath)
	if err != nil {
		return err
	}
	workloads, base := summarize(baseRecs)
	_, next := summarize(nextRecs)
	fmt.Fprintf(w, "base %s, new %s; ratio = new median / base median\n", basePath, nextPath)
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %20s %6s %10s %10s  %s\n",
		"workload", "metric", "base", "new", "ratio", "bound", "spread(b)", "spread(n)", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, def := range EndToEnd {
			b, okb := base[wl][def.Name]
			n, okn := next[wl][def.Name]
			if !okb || !okn {
				continue
			}
			ratio, verdict := Verdict(def, b, n)
			if verdict == "worse" {
				regressed++
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %6.3fx of %-10.2f %5.0f%% %9.1f%% %9.1f%%  %s\n",
				wl, def.Name, b.Median, n.Median, ratio, b.Median, 100*def.Bound, 100*b.Spread(), 100*n.Spread(), verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than the base by more than their bound", regressed)
	}
	return nil
}
