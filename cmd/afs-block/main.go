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
// commands it answers, plus store usage) and the Go profiling endpoints
// under /debug/pprof/ (enable contention profiles with
// -mutex-profile-fraction and -block-profile-rate).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -debug-addr mux
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/segstore"
	"repro/internal/stable"
)

// rpcMetrics observes the block commands this process serves, rendered
// on /metrics with side="server".
var rpcMetrics = &rpc.Metrics{Name: block.CmdName}

// setupLog replaces the default logger with a structured slog handler
// at the requested level.
func setupLog(level string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q (want debug, info, warn or error)\n", level)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}

// fatal logs the structured message and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		backend = flag.String("store", "mem", "block store backend: mem or seg")
		dir     = flag.String("dir", "", "store directory (required with -store=seg)")
		// Named -nblocks (not -blocks) to match afs-server, where
		// -blocks is the remote mount list this binary's output feeds.
		blocks  = flag.Int("nblocks", 1<<16, "number of blocks (per shard)")
		bsize   = flag.Int("bsize", 4096, "block size in bytes")
		sync    = flag.String("sync", "group", "seg durability: group, each or none")
		lanes   = flag.Int("log-shards", 0, "seg log lanes writes are striped over (0 = one per CPU, capped at 8; pinned at store creation)")
		syncWin = flag.Duration("sync-window", 0, "cap on the seg adaptive group-commit window (0 = 2ms default; negative disables the window)")
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
	setupLog(*logLevel)
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if *shards < 1 {
		fatal("-shards needs at least 1", "shards", *shards)
	}
	if *portFlag != "" && *shards != 1 {
		fatal("-port needs -shards=1 (each shard needs its own port)")
	}

	tcp, err := rpc.NewTCPServer(*listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}

	var endpoints []string
	var closers []func()
	var pairs []*stable.Pair
	var stores []block.Store
	for i := 0; i < *shards; i++ {
		shardDir := *dir
		if *shards > 1 && shardDir != "" {
			shardDir = filepath.Join(shardDir, fmt.Sprintf("shard-%02d", i))
		}
		store, served, closeStore, err := openServed(*backend, shardDir, *blocks, *bsize, *sync, *lanes, *syncWin, *compact, *pair)
		if err != nil {
			fatal("open store", "shard", i, "err", err)
		}
		closers = append(closers, closeStore)
		stores = append(stores, store)
		if served != nil {
			pairs = append(pairs, served)
		}
		var port capability.Port
		if *portFlag != "" {
			// Strict parse: a typo that Sscanf would silently truncate
			// must not register a different port than the one the
			// mounters hold.
			p, err := strconv.ParseUint(*portFlag, 16, 64)
			if err != nil {
				fatal("bad -port", "port", *portFlag, "err", err)
			}
			port = capability.Port(p)
		} else {
			port = capability.NewPort().Public()
		}
		tcp.Register(port, rpc.Instrument(rpcMetrics, block.Serve(store)))
		endpoints = append(endpoints, fmt.Sprintf("%s@%s", port, tcp.Addr()))
	}

	// The endpoint line on stdout is the mount list for afs-server
	// (-blocks); with one shard it is the familiar single PORT@ADDR.
	fmt.Println(strings.Join(endpoints, ","))
	kind := *backend
	if *pair {
		kind += " mirrored pair"
	}
	slog.Info("block server up", "component", "block", "backend", kind,
		"shards", *shards, "nblocks", *blocks, "bsize", *bsize, "addr", tcp.Addr())

	if *debugAddr != "" {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			rpc.WriteMetricsHeaders(w)
			rpcMetrics.Write(w, map[string]string{"side": "server"})
			metrics.WriteHelp(w, "afs_blocks_capacity", "gauge", "Allocatable blocks per served shard.")
			metrics.WriteHelp(w, "afs_blocks_in_use", "gauge", "Allocated blocks per served shard.")
			for i, st := range stores {
				if ur, ok := st.(block.UsageReporter); ok {
					if u, err := ur.Usage(); err == nil {
						l := map[string]string{"shard": fmt.Sprint(i)}
						metrics.WriteSample(w, "afs_blocks_capacity", l, float64(u.Capacity))
						metrics.WriteSample(w, "afs_blocks_in_use", l, float64(u.InUse))
					}
				}
			}
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				slog.Error("debug listener", "err", err)
			}
		}()
		slog.Info("debug endpoints up", "addr", *debugAddr, "paths", "/metrics /debug/pprof/")
	}

	stop := make(chan struct{})
	if len(pairs) > 0 {
		// Rejoin down halves (a boot-time stale mark, or an I/O outage)
		// as soon as a restore is possible: the full copy needs the
		// mounting file server's recovery scan to have announced its
		// account, so the loop simply retries until it has.
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for i, p := range pairs {
						n, err := p.Heal()
						if n > 0 {
							slog.Info("halves restored", "component", "pair", "pair", i, "count", n)
						}
						if err != nil {
							slog.Warn("restore pending", "component", "pair", "pair", i, "err", err)
						}
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stop)
	tcp.Close()
	for _, c := range closers {
		c()
	}
}

// openServed builds one served store: a single backend, or a pre-joined
// companion pair of two of them (mem: two simulated disks; seg: the
// half-a and half-b subdirectories).
func openServed(backend, dir string, blocks, bsize int, sync string, lanes int, syncWin, compact time.Duration, pair bool) (block.Store, *stable.Pair, func(), error) {
	if !pair {
		st, closer, err := openStore(backend, dir, blocks, bsize, sync, lanes, syncWin, compact)
		return st, nil, closer, err
	}
	var halves [2]block.PairStore
	var closers [2]func()
	for i, sub := range []string{"half-a", "half-b"} {
		halfDir := dir
		if halfDir != "" {
			halfDir = filepath.Join(dir, sub)
		}
		st, closeStore, err := openStore(backend, halfDir, blocks, bsize, sync, lanes, syncWin, compact)
		if err != nil {
			for j := 0; j < i; j++ {
				closers[j]()
			}
			return nil, nil, nil, err
		}
		ps, ok := st.(block.PairStore)
		if !ok {
			return nil, nil, nil, fmt.Errorf("backend %q cannot serve as a pair half", backend)
		}
		halves[i], closers[i] = ps, closeStore
	}
	p := stable.NewFailoverPair(halves[0], halves[1])
	// Boot-time divergence check: if one half's epoch lags (it missed
	// writes while no pair process was alive), it is marked stale and
	// the pair comes up degraded until the stale half is restored.
	if name, err := p.DetectStale(); err == nil && name != "" {
		slog.Warn("pair half has a lower epoch (missed writes); marked stale, restore by full copy before it serves",
			"component", "pair", "dir", dir, "half", name)
	}
	return p, p, func() {
		a, b := p.Halves()
		for _, h := range []*stable.Half{a, b} {
			s := h.Stats()
			slog.Info("pair half totals", "component", "pair", "half", h.Name(),
				"companion_writes", s.CompanionWrites, "collisions", s.Collisions,
				"corrupt_fallbacks", s.CorruptFallbacks)
		}
		closers[0]()
		closers[1]()
	}, nil
}

// openStore builds one backend instance.
func openStore(backend, dir string, blocks, bsize int, sync string, lanes int, syncWin, compact time.Duration) (block.Store, func(), error) {
	switch backend {
	case "mem":
		d, err := disk.New(disk.Geometry{Blocks: blocks, BlockSize: bsize})
		if err != nil {
			return nil, nil, err
		}
		srv := block.NewServer(d)
		return srv, func() {
			slog.Info("shutting down", "component", "block", "in_use", srv.InUse())
		}, nil
	case "seg":
		if dir == "" {
			return nil, nil, fmt.Errorf("-store=seg needs -dir")
		}
		mode, err := segstore.ParseSyncMode(sync)
		if err != nil {
			return nil, nil, err
		}
		st, err := segstore.Open(dir, segstore.Options{
			BlockSize:    bsize,
			Capacity:     blocks,
			Sync:         mode,
			LogShards:    lanes,
			SyncWindow:   syncWin,
			CompactEvery: compact,
		})
		if err != nil {
			return nil, nil, err
		}
		slog.Info("segstore recovered", "component", "segstore", "dir", dir,
			"blocks", st.InUse(), "segments", st.Segments(), "lanes", st.Lanes(),
			"truncated_bytes", st.Stats().TruncatedBytes)
		if rl := st.RecreatedLanes(); len(rl) > 0 {
			slog.Warn("lane directories were missing and recreated empty; their acknowledged blocks read as unallocated — restore from a replica if the loss matters",
				"component", "segstore", "dir", dir, "lanes", fmt.Sprint(rl))
		}
		return st, func() {
			slog.Info("shutting down", "component", "segstore", "in_use", st.InUse())
			if cs := st.Stats(); cs.CompactErrors > 0 {
				slog.Warn("background compaction errors", "component", "segstore",
					"count", cs.CompactErrors, "last", st.LastCompactError())
			}
			if err := st.Close(); err != nil {
				slog.Error("close", "component", "segstore", "err", err)
			}
		}, nil
	default:
		return nil, nil, fmt.Errorf("unknown -store %q (want mem or seg)", backend)
	}
}
