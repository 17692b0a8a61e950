package main

import (
	"math"
	"testing"
	"time"
)

// smokeSpec shrinks a workload so that preload and two passes take
// about a second.
func smokeSpec(s Spec) Spec {
	if s.Files > 8 {
		s.Files = 8
	}
	s.TraceGCEvery = 4
	return s
}

// Every workload runs against the in-proc probed stack, verifies its
// data and yields every per-layer metric BENCHMARK.json names. This is
// what keeps the harness compiling and verifying under `go test -short`.
func TestTracedSmoke(t *testing.T) {
	for _, spec := range Specs {
		spec := smokeSpec(spec)
		t.Run(spec.Name, func(t *testing.T) {
			window := time.Duration(float64(time.Second) * 2 * 12 / spec.TraceRate) // 12 transactions per pass
			out, info, err := RunTraced(t.TempDir(), t.TempDir(), spec, 1, window)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("verification failed: %+v (%s)", out, info.FirstError)
			}
			for _, def := range PerLayer {
				m, ok := out.Metrics[def.Name]
				if !ok {
					t.Errorf("metric %s missing", def.Name)
				} else if m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v %q, want a finite value in %q", def.Name, m.Value, m.Unit, def.Unit)
				}
			}
			if len(out.Metrics) != len(PerLayer) {
				t.Errorf("%d metrics reported, %d declared", len(out.Metrics), len(PerLayer))
			}
			// The blocking self times partition each operation.
			if r := out.Metrics["stack.self_sum_ratio"].Value; math.Abs(r-1) > 0.10 {
				t.Errorf("layer self times sum to %.3f of the op latency", r)
			}
			switch spec.Name {
			case "commit_small":
				if r := out.Metrics["occ.fast_commit_ratio"].Value; r != 1 {
					t.Errorf("unshared commits took the slow path: fast_commit_ratio %.3f", r)
				}
				if r := out.Metrics["occ.conflict_ratio"].Value; r != 0 {
					t.Errorf("unshared commits conflicted: %.3f", r)
				}
			case "commit_hot":
				if r := out.Metrics["occ.conflict_ratio"].Value; r <= 0 {
					t.Error("the shared-file workload never conflicted")
				}
				if r := out.Metrics["client.attempts_per_op"].Value; r <= 1 {
					t.Error("the shared-file workload never redid a transaction")
				}
			}
		})
	}
}

// Two traced runs with one seed must agree exactly on every metric built
// only from counts of the driver's own operations.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	for _, spec := range Specs {
		spec := smokeSpec(spec)
		t.Run(spec.Name, func(t *testing.T) {
			window := time.Duration(float64(time.Second) * 2 * 24 / spec.TraceRate)
			a, _, err := RunTraced(t.TempDir(), t.TempDir(), spec, 5, window)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := RunTraced(t.TempDir(), t.TempDir(), spec, 5, window)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range ExactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// The multi-process rig end to end, including SIGKILL and restart.
func TestRigSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemons")
	}
	env, err := Prepare()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := SpecByName("commit_hot")
	rec, err := env.Run(spec, 1, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Outcome.Correct {
		t.Fatalf("verification failed: %+v %+v", rec.Outcome, rec.E2E)
	}
	for _, def := range EndToEnd {
		if m, ok := rec.Outcome.Metrics[def.Name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", def.Name, m)
		}
	}
}
