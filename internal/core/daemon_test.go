package core

import (
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// TestShutdownSignalHandlesSIGTERM: kill, systemd and docker stop send
// SIGTERM, which must take the daemons down the same drain-and-close
// path as an interactive interrupt instead of killing them outright.
func TestShutdownSignalHandlesSIGTERM(t *testing.T) {
	ch := ShutdownSignal()
	t.Cleanup(func() { signal.Reset(os.Interrupt, syscall.SIGTERM) })
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got != syscall.SIGTERM {
			t.Fatalf("got %v, want SIGTERM", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM was not delivered to the shutdown channel")
	}
}
