package segstore

import (
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

// TestTracingOffWriteAllocFree pins the observability bargain: with
// tracing off (an unsampled context), binding a trace to the store and
// writing through it costs at most one extra allocation per op over the
// bare store — in practice zero, because BindTrace returns the store
// itself. This is the segment log's hot write path.
func TestTracingOffWriteAllocFree(t *testing.T) {
	s := openTest(t, Options{BlockSize: 256, Sync: SyncNone, LogShards: 1})
	buf := make([]byte, 256)
	n, err := s.Alloc(1, buf)
	if err != nil {
		t.Fatal(err)
	}

	base := testing.AllocsPerRun(200, func() {
		if err := s.Write(1, n, buf); err != nil {
			t.Fatal(err)
		}
	})

	bound := block.BindTrace(s, trace.Context{})
	if bound != block.Store(s) {
		t.Fatal("BindTrace with unsampled context did not return the store unchanged")
	}
	traced := testing.AllocsPerRun(200, func() {
		if err := bound.Write(1, n, buf); err != nil {
			t.Fatal(err)
		}
	})

	if traced-base > 1 {
		t.Fatalf("tracing-off write path costs %.1f allocs/op over the %.1f baseline (budget: 1)",
			traced-base, base)
	}

	// A nil-span bracket — what a would-be caller pays when its own
	// context is unsampled — must also be free.
	extra := testing.AllocsPerRun(200, func() {
		sp, ctx := trace.Context{}.Start("segstore", "lane")
		_ = block.BindTrace(s, ctx)
		sp.End(nil)
	})
	if extra > 0 {
		t.Fatalf("unsampled span bracket allocates %.1f per op, want 0", extra)
	}
}
