// Command afs-block runs standalone block servers (§4) on TCP: the
// bottom of the storage hierarchy, serving fixed-size blocks with
// per-account protection, atomic writes, the lock facility and the
// recovery scan. An afs-server process mounts the printed endpoints
// with -blocks PORT@ADDR[,PORT@ADDR...].
//
// Two backends:
//
//	-store=mem          simulated RAM disk (default; contents die with
//	                    the process)
//	-store=seg -dir=D   durable segment-log store in directory D
//	                    (internal/segstore): contents survive restarts,
//	                    writes are group-committed to disk
//
// With -shards N the process serves N independent block stores, each
// on its own service port (with -store=seg each in its own
// subdirectory D/shard-XX), and prints the comma-separated endpoint
// list an afs-server -blocks flag consumes directly. That is the
// single-machine stand-in for N block-server machines; a real
// deployment runs one afs-block per machine and joins the printed
// endpoints by hand. The endpoint order is the shard placement order —
// keep it stable across restarts (see internal/shard).
//
// With -pair each served store is a pre-joined §4 companion pair
// (internal/stable) over two backends (with -store=seg in
// subdirectories half-a and half-b of the store directory): every
// block is written to both, reads repair from the good copy on
// corruption, and the mirroring is invisible to the mounting
// afs-server — it sees one ordinary block service per endpoint. Use
// afs-server -mirror instead when the two halves must live on
// different machines.
//
// With -debug-addr the process serves Prometheus text on /metrics
// (per-command afs_rpc_seconds and afs_rpc_errors_total for the block
// commands it answers, and per served shard the store's usage and
// operation counters, its segment logs' counters and histograms and its
// pair halves' protocol counters) and the Go profiling endpoints under
// /debug/pprof/ (enable contention profiles with
// -mutex-profile-fraction and -block-profile-rate).
//
// The process is flags -> core.Backend -> core.OpenBackend; see the
// Assembly section of docs/ARCHITECTURE.md.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	_ "net/http/pprof" // profiling endpoints on the -debug-addr mux
	"strings"
	"time"

	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		backend = flag.String("store", "mem", "block store backend: mem or seg")
		dir     = flag.String("dir", "", "store directory (required with -store=seg)")
		// Named -nblocks (not -blocks) to match afs-server, where
		// -blocks is the remote mount list this binary's output feeds.
		blocks  = flag.Int("nblocks", 1<<16, "number of blocks (per shard)")
		bsize   = flag.Int("bsize", 4096, "block size in bytes")
		sync    = flag.String("sync", "group", "seg durability: group or none")
		lanes   = flag.Int("log-shards", 0, "seg log lanes writes are striped over (0 = one per CPU, capped at 8; pinned at store creation)")
		compact = flag.Duration("compact", time.Minute, "seg compaction interval (0 disables)")
		shards  = flag.Int("shards", 1, "independent block stores to serve, one port each")
		pair    = flag.Bool("pair", false, "serve each store as a pre-joined §4 companion pair over two backends")
		// A pinned service port (with a pinned -listen address) lets a
		// rebooted block machine come back at the endpoint its mounters
		// already hold — which is what afs-server's mirror heal loop
		// probes. Without it every restart mints a fresh random port.
		portFlag  = flag.String("port", "", "fixed service port (16 hex digits); empty mints a random one; needs -shards=1")
		debugAddr = flag.String("debug-addr", "", "HTTP address serving Prometheus text on /metrics and profiling on /debug/pprof/ (empty disables)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		mutexFrac = flag.Int("mutex-profile-fraction", 0, "runtime mutex-contention sampling fraction for /debug/pprof/mutex (0 disables)")
		blockRate = flag.Int("block-profile-rate", 0, "runtime blocking-event sampling rate in ns for /debug/pprof/block (0 disables)")
	)
	flag.Parse()
	core.SetupLog(*logLevel)
	core.SetProfiling(*mutexFrac, *blockRate)

	if *shards < 1 {
		core.Fatal("-shards needs at least 1", "shards", *shards)
	}
	var ports []capability.Port
	if *portFlag != "" {
		if *shards != 1 {
			core.Fatal("-port needs -shards=1 (each shard needs its own port)")
		}
		// Strict parse: a typo must not register a different port than
		// the one the mounters hold.
		port, err := capability.ParsePort(*portFlag)
		if err != nil {
			core.Fatal("bad -port", "err", err)
		}
		ports = append(ports, port)
	}

	reg := new(metrics.Registry)
	m, err := core.StartBlockMachine(core.Backend{
		Kind: *backend, Dir: *dir, Shards: *shards, Pair: *pair,
		Blocks: *blocks, BlockSize: *bsize,
		Sync: *sync, LogShards: *lanes, Compact: *compact,
	}, *listen, reg, ports...)
	if err != nil {
		core.Fatal("start block service", "err", err)
	}

	// The endpoint line on stdout is the mount list for afs-server
	// (-blocks); with one shard it is the familiar single PORT@ADDR.
	endpoints := make([]string, len(m.Endpoints))
	for i, ep := range m.Endpoints {
		endpoints[i] = ep.String()
	}
	fmt.Println(strings.Join(endpoints, ","))
	slog.Info("block server up", "component", "block", "backend", *backend, "pair", *pair,
		"shards", *shards, "nblocks", *blocks, "bsize", *bsize, "addr", m.Endpoints[0].Addr)
	core.ServeDebug(*debugAddr, reg, nil)

	stop := make(chan struct{})
	if len(m.Pairs) > 0 {
		// Rejoin down halves (a boot-time stale mark, or an I/O outage)
		// as soon as a restore is possible: the full copy needs the
		// mounting file server's recovery scan to have announced its
		// account, so the loop simply retries until it has.
		go core.Every(core.HealEvery, stop, func() { core.Heal(m.Pairs, nil) })
	}

	<-core.ShutdownSignal()
	close(stop)
	slog.Info("shutting down", "component", "block")
	reg.LogTotals(slog.Default())
	if err := m.Close(); err != nil {
		slog.Error("close store", "component", "segstore", "err", err)
	}
}
