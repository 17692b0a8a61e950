package main

import (
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
)

// SetupReps is how many times one run brings a rig up (daemons ready,
// preload, warm-up): setup_s is their median, the last one is measured.
const SetupReps = 3

// WarmUp is the untimed load that precedes the timed window, long
// enough for the client caches, connection pools and the segstore's
// adaptive commit windows to settle.
const WarmUp = 1 * time.Second

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is what a run reports on its last stdout line.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// E2EDetail is the part of an end-to-end run that goes to the run
// record but not to the contract line.
type E2EDetail struct {
	Samples        int                `json:"samples"`         // operations the latency percentiles are over
	Completed      int                `json:"completed"`       // all operations completed in the window
	WindowS        float64            `json:"window_s"`        // measured length of the timed window
	SetupS         []float64          `json:"setup_s_each"`    // every set-up of this run
	LiveBadPages   int                `json:"live_bad_pages"`  // pages failing read-back through the other peer
	KillBadPages   int                `json:"kill_bad_pages"`  // pages failing after SIGKILL and restart
	AckedRewrites  uint64             `json:"acked_rewrites"`  // page rewrites acknowledged (model total)
	Resolved       bool               `json:"resolved"`        // false below 1000 latency samples
	P99Ms          float64            `json:"op_p99_ms"`       // reported, not judged: see README on its demotion
	DaemonCmdlines []string           `json:"daemon_cmdlines"` // as started
	PhaseS         map[string]float64 `json:"phase_s"`         // wall time of the run's untimed phases
	FirstError     string             `json:"first_error,omitempty"`
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bringUp is one set-up: fresh rig, preload, visibility, warm-up.
func bringUp(bins Binaries, dir string, spec Spec, seed uint64) (*Rig, *Fileset, []*Worker, []*Gen, error) {
	rig, err := StartRig(bins, dir)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	clients := make([]*client.Client, Clients)
	for i := range clients {
		if clients[i], err = rig.Client(i % Peers); err != nil {
			rig.Kill()
			return nil, nil, nil, nil, err
		}
	}
	fs := newFileset(spec)
	if err := fs.Preload(clients); err == nil {
		err = fs.AwaitVisible(clients, 10*time.Second)
	}
	if err != nil {
		rig.Kill()
		return nil, nil, nil, nil, err
	}
	workers := make([]*Worker, Clients)
	gens := make([]*Gen, Clients)
	for i := range workers {
		workers[i] = &Worker{ID: i, C: clients[i], FS: fs}
		gens[i] = NewGen(spec, seed, i)
	}
	for _, r := range RunClosedLoop(workers, gens, WarmUp) {
		if r.FirstErr != nil {
			rig.Kill()
			return nil, nil, nil, nil, fmt.Errorf("warm-up: %w", r.FirstErr)
		}
	}
	return rig, fs, workers, gens, nil
}

// RunE2E measures one workload on the multi-process rig, tracing off.
func RunE2E(bins Binaries, scratch string, spec Spec, seed uint64, window time.Duration) (Outcome, E2EDetail, error) {
	det := E2EDetail{PhaseS: map[string]float64{}}
	phase := func(name string, since time.Time) { det.PhaseS[name] += time.Since(since).Seconds() }
	var rig *Rig
	var fs *Fileset
	var workers []*Worker
	var gens []*Gen
	var dir string
	for k := 0; k < SetupReps; k++ {
		if rig != nil {
			t := time.Now()
			rig.Kill()
			os.RemoveAll(dir)
			settleDisk()
			phase("teardown", t)
		}
		var err error
		if dir, err = os.MkdirTemp(scratch, "rig-"+spec.Name+"-"); err != nil {
			return Outcome{}, det, err
		}
		start := time.Now()
		rig, fs, workers, gens, err = bringUp(bins, dir, spec, seed)
		if err != nil {
			os.RemoveAll(dir)
			return Outcome{}, det, fmt.Errorf("set-up %d: %w", k, err)
		}
		det.SetupS = append(det.SetupS, time.Since(start).Seconds())
	}
	defer func() {
		rig.Kill()
		os.RemoveAll(dir)
	}()
	det.DaemonCmdlines = rig.CommandLines()

	ticks0, err := rig.CPUTicks()
	if err != nil {
		return Outcome{}, det, err
	}
	self0 := selfCPU()
	start := time.Now()
	results := RunClosedLoop(workers, gens, window)
	elapsed := time.Since(start)
	self1 := selfCPU()
	ticks1, err := rig.CPUTicks()
	if err != nil {
		return Outcome{}, det, err
	}

	var lat []time.Duration
	failed := 0
	attempted := 0
	for _, r := range results {
		det.Completed += len(r.Samples)
		attempted += len(r.Samples) + r.Failed
		failed += r.Failed + r.BadPages
		if r.FirstErr != nil && det.FirstError == "" {
			det.FirstError = r.FirstErr.Error()
		}
		for _, s := range r.Samples {
			if s.Kind == spec.LatencyKind {
				lat = append(lat, s.Latency)
			}
		}
	}
	if det.Completed == 0 {
		return Outcome{}, det, fmt.Errorf("no operation completed in %v (first error: %s)", window, det.FirstError)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	det.Samples = len(lat)
	det.Resolved = len(lat) >= 1000
	det.P99Ms = ms(quantile(lat, 0.99))
	det.WindowS = elapsed.Seconds()
	det.AckedRewrites = fs.Acked()

	// Live read-back: every file through the peer its creator is not
	// homed on.
	t := time.Now()
	for i, w := range workers {
		bad, first := fs.verifySubset(workers[(i+1)%len(workers)].C, fs.caps, func(f int) bool { return f%len(workers) == w.ID })
		det.LiveBadPages += bad
		if first != nil && det.FirstError == "" {
			det.FirstError = "live: " + first.Error()
		}
	}

	phase("live_verify", t)

	// Durability of the ack point: SIGKILL everything (no shutdown
	// flush), restart the block service on the same directories with one
	// file server, re-verify every page through re-minted capabilities.
	t = time.Now()
	rig.Kill()
	recovered, err := rig.RestartRecovered()
	if err != nil {
		return Outcome{}, det, fmt.Errorf("restart after kill: %w", err)
	}
	phase("kill_restart", t)
	t = time.Now()
	caps := make([]capability.Capability, spec.Files)
	for f := range caps {
		caps[f] = recovered[fs.caps[f].Object] // Nil when not recovered: every page then fails
	}
	c, err := rig.Client(0)
	if err != nil {
		return Outcome{}, det, err
	}
	bad, first := fs.Verify(c, caps)
	det.KillBadPages = bad
	if first != nil && det.FirstError == "" {
		det.FirstError = "after kill: " + first.Error()
	}
	phase("kill_verify", t)
	failed += det.LiveBadPages + det.KillBadPages

	cpu := time.Duration(ticks1-ticks0)*clockTick + (self1 - self0)
	_, setupMedian, _ := quartiles(det.SetupS)
	out := Outcome{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]Metric{
			"ops_per_s":     {float64(det.Completed) / elapsed.Seconds(), "1/s"},
			"op_p50_ms":     {ms(quantile(lat, 0.50)), "ms"},
			"op_p90_ms":     {ms(quantile(lat, 0.90)), "ms"},
			"cpu_us_per_op": {float64(cpu) / float64(time.Microsecond) / float64(det.Completed), "us"},
			"setup_s":       {setupMedian, "s"},
		},
	}
	return out, det, nil
}

// settleDisk flushes dirty pages left by a build or a torn-down rig, so
// the next phase's fsyncs do not pay for someone else's writes (ext4
// orders a journal commit behind all dirty data of the transaction).
func settleDisk() { syscall.Sync() }
