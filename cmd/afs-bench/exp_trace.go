package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/page"
)

// runE17 prices the observability layer itself: the same commit loop
// against a mirrored cluster with tracing off, sampling 1% and sampling
// everything. "Off" is the deployment default and must cost nothing —
// the unsampled path hands back nil spans and unchanged contexts without
// allocating. "Full" pays for span records, the reply trailer on every
// hop and the async report of every trace, and bounds the worst case an
// operator can dial in.
func runE17() error {
	commits := 1500
	if *quick {
		commits = 48
	}
	arms := []struct {
		name   string
		sample float64
	}{
		{"off", 0},
		{"sampled-1%", 0.01},
		{"full", 1},
	}

	fmt.Printf("\nCommit loop (update+write+commit), 2 servers, mirrored pair, %d commits:\n", commits)
	header("tracing", "commits/s", "µs/commit", "allocs/commit")
	thpt := map[string]float64{}
	for _, arm := range arms {
		c, err := core.NewCluster(core.Config{
			Servers:     2,
			Backend:     core.Backend{Pair: true},
			TraceSample: arm.sample,
			TraceSlow:   time.Hour, // keep the slow list out of the picture
		})
		if err != nil {
			return err
		}
		cl := c.Client()
		fcap, err := cl.CreateFile([]byte("bench"))
		if err != nil {
			return err
		}
		payload := []byte("tracing overhead payload")

		// Warm up table and allocator state outside the window.
		for i := 0; i < 8; i++ {
			if err := commitOnce(cl, fcap, payload); err != nil {
				return err
			}
		}
		runtime.GC()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < commits; i++ {
			if err := commitOnce(cl, fcap, payload); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)

		perSec := float64(commits) / elapsed.Seconds()
		perOp := float64(elapsed.Microseconds()) / float64(commits)
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(commits)
		row(arm.name, perSec, perOp, allocs)
		thpt[arm.name] = perSec
		key := map[string]string{"off": "off", "sampled-1%": "sampled_1pct", "full": "full"}[arm.name]
		record("e17", "commits_per_sec_"+key, perSec)
		record("e17", "allocs_per_commit_"+key, allocs)
	}
	if base := thpt["off"]; base > 0 {
		for _, arm := range []string{"sampled-1%", "full"} {
			pct := (1 - thpt[arm]/base) * 100
			fmt.Printf("overhead %-10s vs off: %5.1f%%\n", arm, pct)
			key := map[string]string{"sampled-1%": "sampled_1pct", "full": "full"}[arm]
			record("e17", "overhead_pct_"+key, pct)
		}
	}
	fmt.Println("\nTracing off is the shared hot path: BindTrace returns the store")
	fmt.Println("unchanged and Start hands back a nil span, so the commit pipeline")
	fmt.Println("runs the same code it ran before tracing existed. Full sampling")
	fmt.Println("buys a complete span waterfall for every operation and prices the")
	fmt.Println("trailer encode/decode on each hop plus the async trace report.")
	return nil
}

// commitOnce runs one update+write+commit round trip.
func commitOnce(cl *client.Client, fcap capability.Capability, payload []byte) error {
	v, err := cl.Update(fcap, client.UpdateOpts{})
	if err != nil {
		return err
	}
	if err := v.Write(page.RootPath, payload); err != nil {
		return err
	}
	return v.Commit()
}
