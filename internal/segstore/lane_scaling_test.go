//go:build !race

package segstore

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// laneWrites runs writers goroutines against a fresh group-commit store
// striped over lanes log lanes, each writer rewriting its own 4 KiB
// block n times, and returns the writes per second.
func laneWrites(t *testing.T, lanes, writers, n int) float64 {
	t.Helper()
	s := openTest(t, Options{BlockSize: 4096, Capacity: 1 << 16, LogShards: lanes})
	payload := make([]byte, 4096)
	nums := make([]block.Num, writers)
	for i := range nums {
		var err error
		if nums[i], err = s.Alloc(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := s.Write(1, nums[w], payload); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return float64(writers*n) / elapsed.Seconds()
}

// TestFourLanesBeatOneUnderConcurrency checks what the lanes are for:
// with 16 concurrent writers, four append and fsync pipelines move more
// writes per second than one. It needs real cores to show, so it skips
// below 4 CPUs, and the race detector's overhead would swamp it, so this
// file is not built under -race. Each arm is the best of two trials.
func TestFourLanesBeatOneUnderConcurrency(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("lane scaling needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	const writers, perWriter = 16, 128
	best := func(lanes int) float64 {
		var b float64
		for trial := 0; trial < 2; trial++ {
			runtime.GC()
			if r := laneWrites(t, lanes, writers, perWriter); r > b {
				b = r
			}
		}
		return b
	}
	one, four := best(1), best(4)
	t.Logf("%d writers: 1 lane %.0f writes/s, 4 lanes %.0f writes/s (%.2fx)", writers, one, four, four/one)
	if four <= one {
		t.Fatalf("4 lanes did not beat 1 lane at %d writers: %.2fx", writers, four/one)
	}
}
