package main

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleCompiles makes the frozen benchmark rig part of
// tier-1: benchmark/ is a nested module (go test ./... never enters
// it), built by the benchmark driver from whatever the program exports
// — block.Store and its optional interfaces, the block.*Multi adapters,
// BindTrace, Serve/Dial/CmdName, shard.New, stable.NewFailoverPair,
// Pair.Halves, Half.Stats, segstore.Open/Options/Stats. Vetting it
// type-checks its tests too, so a program change that breaks that
// compile contract fails here, in seconds, not in the driver.
func TestBenchmarkModuleCompiles(t *testing.T) {
	for _, args := range [][]string{{"vet", "."}, {"build", "-o", os.DevNull, "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
