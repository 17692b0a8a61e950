package core

import (
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"repro/internal/metrics"
)

// SetupLog replaces the default logger with a structured slog handler
// on stderr at the requested level (a daemon's -log-level).
func SetupLog(level string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q (want debug, info, warn or error)\n", level)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}

// Fatal logs the structured message and exits.
func Fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// SetProfiling applies a daemon's -mutex-profile-fraction and
// -block-profile-rate (non-positive leaves the profile off).
func SetProfiling(mutexFraction, blockRate int) {
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
}

// ServeDebug starts a daemon's -debug-addr listener on the default mux:
// the registry as Prometheus text on /metrics, whatever else the daemon
// mounts, and the Go profiling endpoints under /debug/pprof/ (the
// daemon imports net/http/pprof, which self-registers). An empty addr
// disables it.
func ServeDebug(addr string, reg *metrics.Registry, extra map[string]http.HandlerFunc) {
	if addr == "" {
		return
	}
	http.Handle("/metrics", reg)
	for path, h := range extra {
		http.HandleFunc(path, h)
	}
	paths := append(slices.Sorted(maps.Keys(extra)), "/debug/pprof/", "/metrics")
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			slog.Error("debug listener", "err", err)
		}
	}()
	slog.Info("debug endpoints up", "addr", addr, "paths", strings.Join(paths, " "))
}

// ShutdownSignal returns a channel that receives the first SIGINT or
// SIGTERM: both daemons run until it fires and then take the same
// shutdown path, so kill, systemd and docker stop drain and close
// exactly as an interactive ^C does.
func ShutdownSignal() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}
