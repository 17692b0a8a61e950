// Command benchmark is the repository's benchmark: four workloads over
// real afs-server/afs-block processes driven through internal/client
// over TCP (tracing off: the end-to-end metrics), plus a traced in-proc
// run of the same topology that yields the per-layer budget. It claims
// no gain; it is the instrument later claims are measured with. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload commit_small --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all -reps 5
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: commit_small, commit_hot, read_mostly, bulk_write or all")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "length of the measured window in seconds")
		traceArg = flag.Int("trace", 0, "0: end-to-end run on the multi-process rig, probes off; 1: traced in-proc run, per-layer metrics")
		reps     = flag.Int("reps", 1, "repeat each run this many times (seed, seed+1, ...) and print median and quartiles")
		outPath  = flag.String("out", "", "also write the run records (JSON array) to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: base.json new.json")
		}
		if err := Compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *reps < 1 || (*traceArg != 0 && *traceArg != 1) {
		fatalf("need -seconds > 0, -reps >= 1 and -trace 0 or 1")
	}
	var specs []Spec
	if *workload == "all" {
		specs = Specs
	} else if s, ok := SpecByName(*workload); ok {
		specs = []Spec{s}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	// An interrupted run must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllDaemons()
		os.Exit(130)
	}()

	env, err := Prepare()
	if err != nil {
		fatalf("%v", err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var records []Record
	var last Outcome
	ok := true
	for _, spec := range specs {
		for r := 0; r < *reps; r++ {
			rec, err := env.Run(spec, *seed+uint64(r), window, *traceArg == 1)
			if err != nil {
				fatalf("%s: %v", spec.Name, err)
			}
			PrintRecord(os.Stdout, rec)
			if err := env.AppendHistory(rec); err != nil {
				fatalf("%v", err)
			}
			records = append(records, rec)
			last = rec.Outcome
			ok = ok && rec.Outcome.Correct
		}
	}
	if *reps > 1 {
		PrintSpread(os.Stdout, records)
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(records, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", *outPath, err)
		}
	}
	// The contract line: the last line of stdout is the (last) run's
	// outcome as one JSON object.
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: verification failed")
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && hasModuleLine(raw, "repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}
