package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Meta is stamped on every run record, so a number can be traced to the
// commit, toolchain and host it came from.
type Meta struct {
	Time       string  `json:"time"`
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	DataFS     string  `json:"data_fs"`
	SyncMode   string  `json:"sync_mode"`
	Clients    int     `json:"clients"`
	BuildS     float64 `json:"build_s"`
}

// Record is one run: the contract outcome plus everything needed to
// read it later. history.jsonl holds one per line.
type Record struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Meta     Meta       `json:"meta"`
	Outcome  Outcome    `json:"outcome"`
	E2E      *E2EDetail `json:"e2e,omitempty"`
	Trace    *TraceInfo `json:"trace,omitempty"`
}

// Env is the prepared benchmark environment: where the repository is,
// where scratch data goes, and the built daemons.
type Env struct {
	Scratch string
	OutDir  string
	Bins    Binaries
	Meta    Meta
}

// Prepare locates the checkout, builds cmd/afs-block and cmd/afs-server
// into the scratch directory and collects the run metadata.
func Prepare() (*Env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	// Rigs and build products live inside the checkout, never in the
	// system temp directory.
	env := &Env{Scratch: filepath.Join(root, ".bench_build"), OutDir: filepath.Join(root, "benchmark", "out")}
	for _, d := range []string{env.Scratch, env.OutDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	binDir := filepath.Join(env.Scratch, "bin")
	start := time.Now()
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/afs-block", "./cmd/afs-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build daemons: %w\n%s", err, out)
	}
	settleDisk()
	env.Bins = Binaries{Block: filepath.Join(binDir, "afs-block"), Server: filepath.Join(binDir, "afs-server")}
	env.Meta = Meta{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitCommit:  gitCommit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernelRelease(),
		DataFS:     fsType(env.Scratch),
		SyncMode:   SyncMode,
		Clients:    Clients,
		BuildS:     time.Since(start).Seconds(),
	}
	return env, nil
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (the driver runs the benchmark from an export).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// hasModuleLine reports whether a go.mod declares exactly module name.
func hasModuleLine(gomod []byte, name string) bool {
	for _, line := range bytes.Split(gomod, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) == 2 && string(f[0]) == "module" {
			return string(f[1]) == name
		}
	}
	return false
}

// Run performs one run of one workload.
func (e *Env) Run(spec Spec, seed uint64, window time.Duration, traced bool) (Record, error) {
	rec := Record{Workload: spec.Name, Seed: seed, Seconds: window.Seconds(), Traced: traced, Meta: e.Meta}
	rec.Meta.Time = time.Now().UTC().Format(time.RFC3339)
	if traced {
		out, info, err := RunTraced(e.Scratch, e.OutDir, spec, seed, window)
		if err != nil {
			return rec, err
		}
		rec.Outcome, rec.Trace = out, &info
		return rec, nil
	}
	out, det, err := RunE2E(e.Bins, e.Scratch, spec, seed, window)
	if err != nil {
		return rec, err
	}
	rec.Outcome, rec.E2E = out, &det
	return rec, nil
}

// AppendHistory appends rec to out/history.jsonl; the file is never
// rewritten.
func (e *Env) AppendHistory(rec Record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(e.OutDir, "history.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PrintRecord prints every metric of a run by name and unit, with the
// metadata a reader needs to judge it.
func PrintRecord(w io.Writer, rec Record) {
	m := rec.Meta
	kind := "end-to-end, multi-process rig, probes off"
	if rec.Traced {
		kind = "traced, in-proc topology"
	}
	fmt.Fprintf(w, "== %s  seed=%d  window=%.0fs  (%s)\n", rec.Workload, rec.Seed, rec.Seconds, kind)
	fmt.Fprintf(w, "   commit=%s %s GOMAXPROCS=%d nproc=%d kernel=%s data-fs=%s sync=%s clients=%d build_s=%.2f\n",
		m.GitCommit, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Kernel, m.DataFS, m.SyncMode, m.Clients, m.BuildS)
	if d := rec.E2E; d != nil {
		res := "resolved"
		if !d.Resolved {
			res = "UNRESOLVED (<1000 samples)"
		}
		fmt.Fprintf(w, "   phases(s): %v\n", d.PhaseS)
		fmt.Fprintf(w, "   completed=%d latency-samples=%d %s window=%.3fs op_p99_ms=%.3f (not judged) acked-rewrites=%d live-bad-pages=%d kill-bad-pages=%d\n",
			d.Completed, d.Samples, res, d.WindowS, d.P99Ms, d.AckedRewrites, d.LiveBadPages, d.KillBadPages)
		for _, c := range d.DaemonCmdlines {
			fmt.Fprintf(w, "   daemon: %s\n", c)
		}
		if d.FirstError != "" {
			fmt.Fprintf(w, "   first error: %s\n", d.FirstError)
		}
	}
	if t := rec.Trace; t != nil {
		fmt.Fprintf(w, "   ops=%d spans=%d (orphans %d) probes-off %.1f ops/s, probes-on %.1f ops/s, trace-file=%s\n",
			t.Ops, t.Spans, t.Orphans, t.OffOpsPerS, t.OnOpsPerS, t.File)
		layers := make([]string, 0, len(t.LayerSelfUs))
		for l := range t.LayerSelfUs {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return t.LayerSelfUs[layers[i]] > t.LayerSelfUs[layers[j]] })
		fmt.Fprintf(w, "   blocking self time per op (us), sums to the op latency %.1f:", t.OpLatencyUs)
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.1f", l, t.LayerSelfUs[l])
		}
		fmt.Fprintln(w)
		if t.FirstError != "" {
			fmt.Fprintf(w, "   first error: %s\n", t.FirstError)
		}
	}
	names := make([]string, 0, len(rec.Outcome.Metrics))
	for n := range rec.Outcome.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Outcome.Metrics[n]
		fmt.Fprintf(w, "   %-44s %14.4f %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", rec.Outcome.Attempted, rec.Outcome.Failed, rec.Outcome.Correct)
}
