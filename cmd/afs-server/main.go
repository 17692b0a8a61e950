// Command afs-server runs an Amoeba File Service on TCP: any number of
// logical file server processes sharing one file table and one block
// store — an in-process simulated disk (-store=mem), a durable
// segment-log store on the local filesystem (-store=seg -dir=D), or
// one or more remote afs-block services mounted with
// -blocks PORT@ADDR[,PORT@ADDR...].
//
// With more than one mount the block services are composed behind the
// sharded facade (internal/shard): block numbers are partitioned across
// them by the fixed placement function, batched operations fan out one
// RPC stream per shard, and storage bandwidth scales with the number of
// block servers. The mount order is the placement order — reopening a
// deployment with the same stores in a different order is a different
// (wrong) layout.
//
// With -mirror PORT@ADDR+PORT@ADDR[,...] every element names TWO block
// services joined as a §4 companion pair (internal/stable): each block
// lives on both, reads fall back to (and repair from) the companion on
// corruption, and either half can be killed without interrupting the
// file service — mutations made during the outage are replayed when the
// half comes back (the server probes and rejoins down halves
// automatically on the -heal interval). Several mirrored pairs compose
// behind the sharded facade exactly like -blocks mounts do: mirrored
// shards, the RAID-10 topology.
//
// With -archive DIR (or -archive PORT@ADDR for a remote block service)
// the server gains a content-addressed archive tier: the garbage
// collector demotes committed versions falling past the -retain horizon
// into it — deduplicated, framed with per-block SHA-256 scores, and
// logged as snapshots — instead of deleting them. Archived versions
// stay readable through the snapshot commands (afs snapshots / openat)
// after any number of restarts.
//
// With a durable or remote store the server recovers on startup: it
// scans its account's blocks (§4; with shards, one concurrent scan per
// block server), rebuilds the file table from the version pages found,
// and mints fresh capabilities for the recovered files. Files written
// before a crash are served again after it.
//
// With -debug-addr the server exposes every layer's counters over HTTP
// as Prometheus text (GET /metrics): block-store operation and fsync
// counts, per-shard and per-mirror-half snapshots, segstore
// group-commit and compaction counters, the OCC commit/validation
// counters, and the per-command afs_rpc_seconds/afs_rpc_errors_total
// families for both the commands this process serves and the block
// commands it issues. The same listener serves the replicated file
// table on /ftab, the Go profiling endpoints under /debug/pprof/
// (enable contention profiles with -mutex-profile-fraction and
// -block-profile-rate), and recent and slowest distributed traces on
// /debug/traces.
//
// With -trace-sample R the server samples that ratio of requests into
// distributed traces: span trees covering command dispatch, OCC
// validate/commit, shard fan-out legs, mirror halves and segstore
// lanes, crossing the RPC to remote block services. Clients that mint
// their own traces (the in-proc harness, afs.Options.TraceSample)
// report them here too over CmdTraceReport. Traces at least
// -trace-slow long are kept in a slowest-N list and logged.
//
// The service line printed on stdout (comma-separated PORT@ADDR pairs,
// one per file server; the service capability secret is kept
// in-process) is what the afs CLI consumes via -servers.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -debug-addr mux
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/version"
)

// rpcMetrics observes the file-service commands this process serves
// (side="server" on /metrics); blockMetrics observes the block-service
// commands it issues to mounted remote stores (side="client").
var (
	rpcMetrics   = &rpc.Metrics{Name: server.CmdName}
	blockMetrics = &rpc.Metrics{Name: block.CmdName}
)

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
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		servers     = flag.Int("servers", 2, "number of file server processes")
		backend     = flag.String("store", "mem", "block store backend: mem or seg (ignored with -blocks)")
		dir         = flag.String("dir", "", "store directory (required with -store=seg)")
		nblocks     = flag.Int("nblocks", 1<<16, "blocks of the in-process store (ignored with -blocks)")
		bsize       = flag.Int("bsize", 4096, "block size of the in-process store (ignored with -blocks)")
		sync        = flag.String("sync", "group", "seg durability: group, each or none")
		shards      = flag.Int("log-shards", 0, "seg log lanes writes are striped over (0 = one per CPU, capped at 8; pinned at store creation)")
		syncWin     = flag.Duration("sync-window", 0, "cap on the seg adaptive group-commit window (0 = 2ms default; negative disables the window)")
		compact     = flag.Duration("compact", time.Minute, "seg compaction interval (0 disables)")
		mounts      = flag.String("blocks", "", "remote block services as PORT@ADDR[,PORT@ADDR...] (from afs-block); two or more are sharded")
		mount       = flag.String("block", "", "single remote block service as PORT@ADDR (alias for -blocks)")
		mirrors     = flag.String("mirror", "", "mirrored block services as PORT@ADDR+PORT@ADDR[,PORT@ADDR+PORT@ADDR...]: each element is a §4 companion pair; several pairs are sharded")
		heal        = flag.Duration("heal", 2*time.Second, "probe interval for rejoining down mirror halves (0 disables)")
		stale       = flag.String("stale", "", "mirror halves known to have missed writes, as PAIR:a|b[,PAIR:a|b...] (e.g. 0:b): mounted down and restored by full copy (usually unnecessary: epochs detect this)")
		debugAddr   = flag.String("debug-addr", "", "HTTP address serving Prometheus text on /metrics, the file table on /ftab, traces on /debug/traces and profiling on /debug/pprof/ (empty disables)")
		archSpec    = flag.String("archive", "", "archive tier backing: a directory (durable segstore, sized by -nblocks) or PORT@ADDR (remote block service); the collector demotes retired versions here instead of deleting them")
		gcEvery     = flag.Duration("gc", 5*time.Second, "garbage collection interval (0 disables; safe to leave on everywhere in a -peers mesh — the lowest-ID replica is elected sweeper)")
		gcRetain    = flag.Int("retain", 4, "committed versions retained per file")
		serverID    = flag.Uint("id", 0, "replica ID of this process, 0..63: bands its object numbers and names its file-table replication port (must be unique across a -peers mesh)")
		peers       = flag.String("peers", "", "sibling afs-server processes as ID@ADDR[,ID@ADDR...]: replicates the file table (and capability secrets) so all of them serve one file system over one shared block store")
		pushBatch   = flag.Int("push-batch", ftab.DefaultPushBatch, "file-table updates carried per replication frame: the per-peer streams coalesce up to this many pending pushes into one wire round trip")
		pushWin     = flag.Duration("push-window", 0, "how long a below-batch-size replication frame waits for company before it is sent (0 sends immediately; raise to trade propagation lag for larger batches)")
		traceSample = flag.Float64("trace-sample", 0, "ratio of requests sampled into distributed traces, 0..1 (0 disables server-side sampling; client-reported traces are accepted regardless)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "traces at least this long are kept in the slowest list and logged as warnings")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		mutexFrac   = flag.Int("mutex-profile-fraction", 0, "runtime mutex-contention sampling fraction for /debug/pprof/mutex (0 disables)")
		blockRate   = flag.Int("block-profile-rate", 0, "runtime blocking-event sampling rate in ns for /debug/pprof/block (0 disables)")
	)
	flag.Parse()
	setupLog(*logLevel)
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *serverID > ftab.MaxID {
		fatal("-id out of range", "id", *serverID, "max", ftab.MaxID)
	}

	mountList := *mounts
	if mountList == "" {
		mountList = *mount
	}
	if *mirrors != "" && mountList != "" {
		fatal("-mirror and -blocks are mutually exclusive (a -mirror element is itself a mount)")
	}

	var store block.Store
	var sharded *shard.Store
	var pairs []*stable.Pair
	var segStore *segstore.Store
	var closeStore func()
	durable := false // the store may hold a file system from a past life
	switch {
	case *mirrors != "":
		var err error
		pairs, err = dialMirrors(*mirrors)
		if err != nil {
			fatal("mount mirrors", "err", err)
		}
		// Halves the operator knows diverged (the pair ran degraded
		// under a previous server process, so no intentions record
		// exists anymore) are mounted stale: the heal loop restores
		// them by full copy before they serve anything.
		if err := markStale(pairs, *stale); err != nil {
			fatal("mark stale halves", "err", err)
		}
		// And the halves the pair can tell diverged by itself: the §4
		// survivor bumps its persisted epoch at every companion
		// markdown, so a half that missed writes boots with a lower
		// epoch and is auto-routed onto the full-copy path — no -stale
		// flag needed when both backends track epochs.
		for i, p := range pairs {
			if name, err := p.DetectStale(); err == nil && name != "" {
				slog.Warn("mirror half has a lower epoch (missed writes while no pair was alive); marked stale, heal loop will restore it by full copy",
					"component", "mirror", "pair", i, "half", name)
			}
		}
		if len(pairs) == 1 {
			store = pairs[0]
			slog.Info("mounted mirrored pair", "component", "store", "mounts", *mirrors)
		} else {
			backends := make([]block.Store, len(pairs))
			for i, p := range pairs {
				backends[i] = p
			}
			sharded, err = shard.New(backends...)
			if err != nil {
				fatal("shard mirrored pairs", "mounts", *mirrors, "err", err)
			}
			store = sharded
			slog.Info("mounted mirrored pairs behind the sharded facade", "component", "store", "pairs", len(pairs))
		}
		durable = true
	case mountList != "":
		remotes, err := dialMounts(mountList)
		if err != nil {
			fatal("mount block services", "err", err)
		}
		if len(remotes) == 1 {
			store = remotes[0]
			slog.Info("mounted remote block service", "component", "store", "mount", mountList)
		} else {
			sharded, err = shard.New(remotes...)
			if err != nil {
				fatal("shard block services", "mounts", mountList, "err", err)
			}
			store = sharded
			for _, st := range sharded.ShardStats() {
				slog.Info("shard usage", "component", "shard", "shard", st.Shard,
					"in_use", st.Usage.InUse, "capacity", st.Usage.Capacity)
			}
			slog.Info("mounted block services behind the sharded facade", "component", "store", "count", len(remotes))
		}
		durable = true
	case *backend == "seg":
		if *dir == "" {
			fatal("-store=seg needs -dir")
		}
		mode, err := segstore.ParseSyncMode(*sync)
		if err != nil {
			fatal("bad -sync", "err", err)
		}
		st, err := segstore.Open(*dir, segstore.Options{
			BlockSize:    *bsize,
			Capacity:     *nblocks,
			Sync:         mode,
			LogShards:    *shards,
			SyncWindow:   *syncWin,
			CompactEvery: *compact,
		})
		if err != nil {
			fatal("open segstore", "dir", *dir, "err", err)
		}
		store = st
		segStore = st
		durable = true
		closeStore = func() {
			if err := st.Close(); err != nil {
				slog.Error("close store", "component", "segstore", "err", err)
			}
		}
		slog.Info("segstore recovered", "component", "segstore", "dir", *dir,
			"blocks", st.InUse(), "segments", st.Segments(), "lanes", st.Lanes())
		if rl := st.RecreatedLanes(); len(rl) > 0 {
			slog.Warn("lane directories were missing and recreated empty; their acknowledged blocks read as unallocated — restore from a replica if the loss matters",
				"component", "segstore", "dir", *dir, "lanes", fmt.Sprint(rl))
		}
	case *backend == "mem":
		d, err := disk.New(disk.Geometry{Blocks: *nblocks, BlockSize: *bsize})
		if err != nil {
			fatal("create simulated disk", "err", err)
		}
		store = block.NewServer(d)
	default:
		fatal("unknown -store (want mem or seg)", "store", *backend)
	}

	var arch *archive.Store
	var archiver *archive.Archiver
	var closeArchive func()
	if *archSpec != "" {
		backing, closer, err := openArchiveBacking(*archSpec, store.BlockSize(), *nblocks, *sync)
		if err != nil {
			fatal("open archive backing", "err", err)
		}
		closeArchive = closer
		arch, err = archive.New(backing, 1)
		if err != nil {
			fatal("open archive", "backing", *archSpec, "err", err)
		}
		u, _ := arch.Usage()
		slog.Info("archive mounted", "component", "archive", "backing", *archSpec,
			"in_use", u.InUse, "capacity", u.Capacity, "snapshots", arch.Stats().Snapshots)
	}

	sh := server.NewShared(store, 1)
	sh.SetID(uint32(*serverID))

	// The tracer samples requests into distributed traces (-trace-sample)
	// and is the sink for traces clients assemble and report; either way
	// they show up on /debug/traces. Slow traces are logged.
	tracer := trace.New(*traceSample, *traceSlow, 512)
	tracer.OnSlow = func(tr *trace.Trace) {
		root := tr.Root()
		slog.Warn("slow trace", "component", "trace",
			"trace", fmt.Sprintf("%016x", tr.ID), "op", root.Name,
			"dur", tr.Duration(), "spans", len(tr.Spans))
	}
	sh.Tracer = tracer
	if arch != nil {
		// The servers answer the snapshot commands from the archive, and
		// the collector's demote hook (below) rewrites retired versions
		// into it.
		sh.Archive = arch
		archiver = &archive.Archiver{
			Front: version.NewStore(store, sh.Acct),
			Store: arch,
			Acct:  sh.Acct,
			Ratio: new(metrics.Histogram),
		}
	}

	tcp, err := rpc.NewTCPServer(*listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}

	// Replicated file table (-peers): register this replica's
	// well-known table port before anything else, join the mesh, and
	// only then recover — a peer booting during our recovery pulls what
	// we have and receives the rest as adoption pushes.
	var rep *ftab.Replicated
	var liveSrvs atomic.Value // holds []*server.Server for the ftab handler
	if *peers != "" {
		rep = buildFtab(sh, store, uint32(*serverID), *peers, *pushBatch, *pushWin, &liveSrvs)
		sh.Table = rep
		tcp.Register(ftab.PortFor(uint32(*serverID)), rep.Handler())
		if n := rep.Bootstrap(); n > 0 {
			slog.Info("joined replication mesh", "component", "ftab", "replica", *serverID,
				"snapshots_pulled", n, "files", sh.Table.Len(), "identity", sh.Fact.Port().String())
		} else {
			slog.Info("no peer answered; establishing service identity (peers join via heal)",
				"component", "ftab", "replica", *serverID, "identity", sh.Fact.Port().String())
		}
		if *gcEvery > 0 {
			if rep.SweepLeader() {
				slog.Info("elected sweeper (lowest configured ID); siblings' collectors stand by",
					"component", "ftab", "replica", *serverID)
			} else {
				slog.Info("collector standing by; a lower-ID replica is the elected sweeper",
					"component", "ftab", "replica", *serverID)
			}
		}
	}

	// If the store already holds a file system (a durable directory or
	// a remote block server that survived us), rebuild the file table
	// from the §4 recovery scan and mint fresh capabilities for the
	// recovered files. Adoption is guarded: files the mesh already
	// replicated to us keep their existing capabilities and are not in
	// the returned map.
	if durable {
		st := version.NewStore(store, sh.Acct)
		t, err := file.Rebuild(st)
		if err != nil {
			// Starting empty over a store we cannot read would leave
			// the old files allocated but unreachable.
			fatal("recover file table", "err", err)
		}
		if t.Len() > 0 {
			caps := sh.AdoptTable(t)
			slog.Info("recovered files from block store", "component", "recovery",
				"files", len(caps), "already_live", t.Len()-len(caps))
			for obj, c := range caps {
				// The text form is what the afs CLI accepts.
				slog.Info("recovered file", "component", "recovery", "object", obj, "cap", c.Text())
			}
		}
	}

	var srvs []*server.Server
	var endpoints []string
	for i := 0; i < *servers; i++ {
		s := server.New(sh, proberFor(sh, rep))
		tcp.Register(s.Port(), rpc.Instrument(rpcMetrics, s.Handler()))
		srvs = append(srvs, s)
		endpoints = append(endpoints, fmt.Sprintf("%s@%s", s.Port(), tcp.Addr()))
	}
	liveSrvs.Store(srvs)
	fmt.Println(strings.Join(endpoints, ","))
	slog.Info("file service up", "component", "server", "servers", *servers, "addr", tcp.Addr())

	if *debugAddr != "" {
		// The net/http/pprof profiling endpoints (/debug/pprof/)
		// self-register on the default mux; /metrics renders every
		// layer's counters (plus the commit latency histogram and the
		// per-command RPC families) in Prometheus text exposition format,
		// /ftab dumps the replicated file table for convergence checks,
		// and /debug/traces the recent and slowest distributed traces.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			writeProm(w, store, sharded, pairs, segStore, srvs, sh, rep, arch, archiver)
		})
		http.HandleFunc("/ftab", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			writeTableDump(w, sh)
		})
		http.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTraces(w, tracer, r.URL.Query().Get("n"))
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				slog.Error("debug listener", "err", err)
			}
		}()
		slog.Info("debug endpoints up", "addr", *debugAddr,
			"paths", "/metrics /ftab /debug/traces /debug/pprof/")
	}

	stop := make(chan struct{})
	if (len(pairs) > 0 || rep != nil) && *heal > 0 {
		// Probe down mirror halves and rejoin them (§4 "compares notes
		// ... and restores its disk") as soon as their backend answers;
		// the same loop resyncs down file-table peers.
		go func() {
			t := time.NewTicker(*heal)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for i, p := range pairs {
						n, err := p.Heal()
						if n > 0 {
							slog.Info("halves rejoined", "component", "mirror", "pair", i, "count", n)
						}
						if err != nil {
							slog.Warn("rejoin failed (will retry)", "component", "mirror", "pair", i, "err", err)
						}
					}
					if rep != nil {
						n, err := rep.Heal()
						if n > 0 {
							slog.Info("peers resynced", "component", "ftab", "count", n)
						}
						if err != nil {
							slog.Warn("resync failed (will retry)", "component", "ftab", "err", err)
						}
					}
				}
			}
		}()
	}
	if *gcEvery > 0 {
		// Peer pins are gathered by the gate below (fail closed) and
		// consumed by the live callback within the same cycle.
		var peerPins atomic.Value
		col := gc.New(version.NewStore(store, sh.Acct), sh.Table, *gcRetain, func() []block.Num {
			var out []block.Num
			for _, s := range srvs {
				out = append(out, s.LiveVersions()...)
			}
			if pins, _ := peerPins.Load().([]block.Num); pins != nil {
				// The peers' open versions: their uncommitted pages
				// live in the same shared store.
				out = append(out, pins...)
			}
			return out
		})
		if archiver != nil {
			col.Demote = func(object uint32, root block.Num) error {
				_, _, err := archiver.Demote(object, root)
				return err
			}
		}
		if rep != nil {
			col.Gate = func() bool {
				// Election first: every server may run the collector, but
				// only the lowest-ID replica sweeps (concurrent sweeps
				// could free a sibling's not-yet-linked shadow pages).
				if !rep.SweepLeader() {
					return false
				}
				pins, ok := rep.PeerLive()
				if !ok {
					slog.Warn("cycle skipped: a file-table peer is unreachable and its open versions cannot be pinned",
						"component", "gc")
					return false
				}
				peerPins.Store(pins)
				return true
			}
		}
		// Surface collection failures — including demote failures, which
		// stall retirement and let the front tier grow until the archive
		// recovers — in the server log.
		gcErrs := make(chan error, 1)
		go func() {
			for err := range gcErrs {
				slog.Error("collection error", "component", "gc", "err", err)
			}
		}()
		go col.Run(*gcEvery, stop, gcErrs)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stop)
	if rep != nil {
		// Drain the push streams before tearing anything down: updates
		// already acknowledged to clients may still be queued for peers.
		// A timeout is not data loss — peers that missed the tail catch
		// up by snapshot when they next heal against a live replica.
		if !rep.Close(5 * time.Second) {
			slog.Warn("shutdown flush timed out; unreached peers catch up by snapshot resync",
				"component", "ftab")
		}
	}
	tcp.Close()
	if segStore != nil {
		st := segStore.Stats()
		slog.Info("segstore totals", "component", "segstore",
			"batches", st.Batches, "records", st.BatchRecords, "fsyncs", st.Syncs,
			"window_grows", st.WindowGrows, "window_shrinks", st.WindowShrinks,
			"compactions", st.Compactions, "segments_reclaimed", st.SegmentsReclaimed,
			"recycles", st.Recycles)
		if st.CompactErrors > 0 {
			slog.Warn("background compaction errors", "component", "segstore",
				"count", st.CompactErrors, "last", segStore.LastCompactError())
		}
		for _, ls := range segStore.LaneStats() {
			slog.Info("lane totals", "component", "segstore", "lane", ls.Lane,
				"segments", ls.Segments, "pooled", ls.PoolFree, "window", ls.Window,
				"queue", ls.QueueDepth)
		}
	}
	if closeStore != nil {
		closeStore()
	}
	if arch != nil {
		st := arch.Stats()
		as := archiver.Stats()
		slog.Info("archive totals", "component", "archive",
			"puts", st.Puts, "stored", st.Stored, "dedup_hits", st.DedupHits,
			"reads", st.Reads, "corrupt_reads", st.CorruptReads, "snapshots", st.Snapshots,
			"demoted", as.Demotes, "skipped", as.Skipped)
	}
	if closeArchive != nil {
		closeArchive()
	}
	if sharded != nil {
		for _, st := range sharded.ShardStats() {
			slog.Info("shard totals", "component", "shard", "shard", st.Shard,
				"reads", st.Stats.Reads, "writes", st.Stats.Writes, "allocs", st.Stats.Allocs,
				"frees", st.Stats.Frees, "fsyncs", st.Stats.Syncs)
		}
	}
	for i, p := range pairs {
		a, b := p.Halves()
		for _, h := range []*stable.Half{a, b} {
			s := h.Stats()
			slog.Info("mirror half totals", "component", "mirror", "pair", i, "half", h.Name(),
				"companion_writes", s.CompanionWrites, "collisions", s.Collisions,
				"corrupt_fallbacks", s.CorruptFallbacks, "intents", s.IntentionsKept,
				"replayed", s.Replayed, "full_copied", s.FullCopied)
		}
	}
	if rep != nil {
		s := rep.StatsSnapshot()
		slog.Info("ftab totals", "component", "ftab",
			"pushes", s.Pushes, "frames", s.Batches, "coalesced", s.Coalesced,
			"overflows", s.Overflows, "push_failures", s.PushFailures,
			"applied", s.Applied, "fast_applied", s.FastApplied, "resolved", s.Resolved,
			"tie_breaks", s.TieBreaks, "resyncs", s.Resyncs,
			"peers_up", s.PeersUp, "peers_down", s.PeersDown)
	}
	slog.Info("file service down", "component", "server", "files", sh.Table.Len())
}

// writeTraces renders the tracer's recent and slowest traces as
// per-span waterfalls for GET /debug/traces (?n= caps the recent list,
// default 20).
func writeTraces(w io.Writer, tracer *trace.Tracer, nParam string) {
	n := 20
	if nParam != "" {
		if v, err := strconv.Atoi(nParam); err == nil && v > 0 {
			n = v
		}
	}
	recent := tracer.Recent(n)
	fmt.Fprintf(w, "%d recent traces (newest first):\n\n", len(recent))
	for _, tr := range recent {
		trace.WriteWaterfall(w, tr)
		fmt.Fprintln(w)
	}
	slowest := tracer.Slowest()
	fmt.Fprintf(w, "%d slowest traces (threshold %s):\n\n", len(slowest), tracer.Slow)
	for _, tr := range slowest {
		trace.WriteWaterfall(w, tr)
		fmt.Fprintln(w)
	}
}

// buildFtab assembles the replicated file table for a -peers mesh: the
// in-process table becomes the local replica, the capability factory
// rides along (secrets travel with entries), and each ID@ADDR peer is
// dialled lazily with a fail-fast retry policy so a dead sibling never
// stalls the commit path.
func buildFtab(sh *server.Shared, store block.Store, id uint32, peerList string, pushBatch int, pushWin time.Duration, liveSrvs *atomic.Value) *ftab.Replicated {
	local, ok := sh.Table.(*file.Table)
	if !ok {
		fatal("shared table already replaced", "component", "ftab")
	}
	rep := ftab.NewReplicated(ftab.Options{
		ID:         id,
		Local:      local,
		Store:      version.NewStore(store, sh.Acct),
		Ident:      sh.Fact,
		PortAlive:  sh.Ports.Alive,
		PushBatch:  pushBatch,
		PushWindow: pushWin,
		Live: func() []block.Num {
			srvs, _ := liveSrvs.Load().([]*server.Server)
			var out []block.Num
			for _, s := range srvs {
				out = append(out, s.LiveVersions()...)
			}
			return out
		},
	})
	seen := map[uint64]bool{uint64(id): true}
	for _, ep := range strings.Split(peerList, ",") {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		i := strings.IndexByte(ep, '@')
		if i < 0 {
			fatal("bad peer (want ID@ADDR)", "component", "ftab", "peer", ep)
		}
		pid, err := strconv.ParseUint(ep[:i], 10, 32)
		if err != nil || pid > ftab.MaxID {
			fatal("bad peer replica ID", "component", "ftab", "peer", ep, "max", ftab.MaxID)
		}
		if seen[pid] {
			fatal("peer replica ID repeated", "component", "ftab", "peer", ep, "id", pid, "own", id)
		}
		seen[pid] = true
		res := rpc.NewResolver()
		res.Set(ftab.PortFor(uint32(pid)), ep[i+1:])
		cli := rpc.NewTCPClient(res)
		cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2})
		rep.AddPeer(uint32(pid), cli)
	}
	return rep
}

// proberFor builds the lock-holder liveness probe: the local update-port
// registry, extended across the mesh — an update owned by a sibling
// server holds its locks under a port only that sibling can vouch for.
func proberFor(sh *server.Shared, rep *ftab.Replicated) func(capability.Port) bool {
	if rep == nil {
		return nil // the server defaults to the local registry
	}
	return func(p capability.Port) bool {
		return sh.Ports.Alive(p) || rep.PortAlive(p)
	}
}

// writeTableDump renders the file table deterministically (object
// order) for GET /ftab: comparing two servers' dumps byte for byte is
// the operator's convergence check.
func writeTableDump(w io.Writer, sh *server.Shared) {
	fmt.Fprintf(w, "identity %s\n", sh.Fact.Port())
	fmt.Fprintf(w, "fingerprint %s\n", ftab.Fingerprint(sh.Table))
	entries := sh.Table.Entries()
	objs := make([]uint32, 0, len(entries))
	for o := range entries {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, o := range objs {
		e := entries[o]
		fmt.Fprintf(w, "file %d root %d super %v cap %s\n", o, e.Entry, e.Super, e.Cap.Text())
	}
}

// dialMirrors parses PORT@ADDR+PORT@ADDR[,...] and joins each element's
// two endpoints as a stable companion pair. The element order is the
// shard placement order, exactly as with -blocks. One unreachable half
// does not block the mount — that is the situation the mirror exists
// for: the pair comes up degraded with that half down, and the heal
// loop rejoins it when its machine answers again. Only a pair with
// BOTH halves unreachable is fatal.
func dialMirrors(list string) ([]*stable.Pair, error) {
	var out []*stable.Pair
	for _, m := range strings.Split(list, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		halves := strings.Split(m, "+")
		if len(halves) != 2 {
			return nil, fmt.Errorf("mirror %q: want PORT@ADDR+PORT@ADDR", m)
		}
		var stores [2]block.PairStore
		var errs [2]error
		for i, hm := range halves {
			stores[i], errs[i] = dialPairStore(strings.TrimSpace(hm))
		}
		if errs[0] != nil && errs[1] != nil {
			return nil, fmt.Errorf("mirror %q: both halves unreachable: %v; %v", m, errs[0], errs[1])
		}
		for i := range stores {
			if errs[i] == nil {
				continue
			}
			other := stores[1-i]
			lazy, err := lazyPairStore(strings.TrimSpace(halves[i]), other.BlockSize())
			if err != nil {
				return nil, fmt.Errorf("mirror %q: %w", m, err)
			}
			stores[i] = lazy
		}
		if stores[0].BlockSize() != stores[1].BlockSize() {
			return nil, fmt.Errorf("mirror %q: halves disagree on block size (%d vs %d)",
				m, stores[0].BlockSize(), stores[1].BlockSize())
		}
		p := stable.NewFailoverPair(stores[0], stores[1])
		a, b := p.Halves()
		for i, h := range []*stable.Half{a, b} {
			if errs[i] != nil {
				// Stale, not merely crashed: this process never saw the
				// outage begin, so the heal rejoin must restore the
				// half by full copy, never by intentions replay.
				h.MarkStale()
				slog.Warn("mirror half unreachable; mounted degraded (block size assumed from companion), heal loop will rejoin it by full copy",
					"component", "mirror", "half", h.Name(), "mount", strings.TrimSpace(halves[i]), "err", errs[i])
			}
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mirror list %q names no pairs", list)
	}
	return out, nil
}

// markStale parses PAIR:a|b[,...] and marks those halves stale: down
// until the heal loop restores them by full copy. The operator uses it
// after a service restart when one half is reachable but known to have
// missed writes — the fresh pair itself cannot tell (see ROADMAP on
// boot-time divergence detection).
func markStale(pairs []*stable.Pair, list string) error {
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var idx int
		var half string
		if _, err := fmt.Sscanf(entry, "%d:%s", &idx, &half); err != nil || (half != "a" && half != "b") {
			return fmt.Errorf("-stale entry %q: want PAIR:a or PAIR:b", entry)
		}
		if idx < 0 || idx >= len(pairs) {
			return fmt.Errorf("-stale entry %q: pair index out of range (have %d pairs)", entry, len(pairs))
		}
		a, b := pairs[idx].Halves()
		h := a
		if half == "b" {
			h = b
		}
		h.MarkStale()
		slog.Warn("mirror half marked stale; heal loop will restore it by full copy",
			"component", "mirror", "pair", idx, "half", h.Name())
	}
	return nil
}

// dialPairStore dials one endpoint and requires the full companion-pair
// surface (Claim/ClearLocks), which every afs-block store serves. The
// retry policy fails fast so a dead half flips to outage mode promptly
// instead of stalling every write on transport retries.
func dialPairStore(m string) (block.PairStore, error) {
	port, _, err := splitMount(m)
	if err != nil {
		return nil, err
	}
	cli, err := mirrorClient(m)
	if err != nil {
		return nil, err
	}
	remote, err := block.Dial(cli, port)
	if err != nil {
		return nil, fmt.Errorf("mount %s: %w", m, err)
	}
	ps, ok := remote.(block.PairStore)
	if !ok {
		return nil, fmt.Errorf("mount %s: store does not serve the pair operations", m)
	}
	return ps, nil
}

// lazyPairStore mounts an endpoint that is currently unreachable,
// assuming the companion's block size; the pair holds it down until
// the heal probe succeeds.
func lazyPairStore(m string, blockSize int) (block.PairStore, error) {
	port, _, err := splitMount(m)
	if err != nil {
		return nil, err
	}
	cli, err := mirrorClient(m)
	if err != nil {
		return nil, err
	}
	return block.Remote(cli, port, blockSize).(block.PairStore), nil
}

// mirrorClient builds the fail-fast TCP client a mirror half uses.
func mirrorClient(m string) (*rpc.TCPClient, error) {
	port, addr, err := splitMount(m)
	if err != nil {
		return nil, err
	}
	res := rpc.NewResolver()
	res.Set(port, addr)
	cli := rpc.NewTCPClient(res)
	cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2})
	cli.SetMetrics(blockMetrics)
	return cli, nil
}

// openArchiveBacking mounts the archive tier's backing store: a
// directory opens a durable segstore, PORT@ADDR mounts a remote block
// service (from afs-block). Either way the backing blocks must be large
// enough to frame a front-tier block — payload plus the magic, kind,
// length and score fields — so every framed page fits in one block.
func openArchiveBacking(spec string, frontSize, capacity int, syncMode string) (block.Store, func(), error) {
	need := frontSize + archive.FrameOverhead
	if strings.ContainsRune(spec, '@') {
		port, addr, err := splitMount(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("archive %w", err)
		}
		res := rpc.NewResolver()
		res.Set(port, addr)
		cli := rpc.NewTCPClient(res)
		cli.SetMetrics(blockMetrics)
		remote, err := block.Dial(cli, port)
		if err != nil {
			return nil, nil, fmt.Errorf("archive mount %s: %w", spec, err)
		}
		if remote.BlockSize() < need {
			return nil, nil, fmt.Errorf("archive mount %s: blocks are %d bytes; framing %d-byte front blocks needs at least %d",
				spec, remote.BlockSize(), frontSize, need)
		}
		return remote, nil, nil
	}
	mode, err := segstore.ParseSyncMode(syncMode)
	if err != nil {
		return nil, nil, err
	}
	// Write-once tier: nothing is ever freed, so the compactor would
	// never find a reclaimable segment — leave it off.
	st, err := segstore.Open(spec, segstore.Options{
		BlockSize: need,
		Capacity:  capacity,
		Sync:      mode,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("archive %s: %w", spec, err)
	}
	if st.BlockSize() < need {
		st.Close()
		return nil, nil, fmt.Errorf("archive %s: existing store has %d-byte blocks; framing %d-byte front blocks needs at least %d",
			spec, st.BlockSize(), frontSize, need)
	}
	if rl := st.RecreatedLanes(); len(rl) > 0 {
		slog.Warn("lane directories were missing and recreated empty; their acknowledged blocks read as unallocated",
			"component", "archive", "dir", spec, "lanes", fmt.Sprint(rl))
	}
	closer := func() {
		if err := st.Close(); err != nil {
			slog.Error("close archive", "component", "archive", "err", err)
		}
	}
	return st, closer, nil
}

// dialMounts parses a comma-separated PORT@ADDR list and dials each
// endpoint, in order (the order is the shard placement order).
func dialMounts(list string) ([]block.Store, error) {
	var out []block.Store
	for _, m := range strings.Split(list, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		port, addr, err := splitMount(m)
		if err != nil {
			return nil, err
		}
		res := rpc.NewResolver()
		res.Set(port, addr)
		cli := rpc.NewTCPClient(res)
		cli.SetMetrics(blockMetrics)
		remote, err := block.Dial(cli, port)
		if err != nil {
			return nil, fmt.Errorf("mount %s: %w", m, err)
		}
		out = append(out, remote)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mount list %q names no endpoints", list)
	}
	return out, nil
}

// splitMount parses PORT@ADDR.
func splitMount(s string) (capability.Port, string, error) {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return 0, "", fmt.Errorf("mount %q: want PORT@ADDR", s)
	}
	var p uint64
	if _, err := fmt.Sscanf(s[:i], "%x", &p); err != nil {
		return 0, "", fmt.Errorf("mount %q: bad port: %w", s, err)
	}
	return capability.Port(p), s[i+1:], nil
}

// writeProm renders every layer's counters in Prometheus text
// exposition format (GET /metrics), each computed on read from the
// layer's live state, plus the commit-path latency histogram aggregated
// across this process's file servers.
func writeProm(w io.Writer, store block.Store, sharded *shard.Store, pairs []*stable.Pair, seg *segstore.Store, srvs []*server.Server, sh *server.Shared, rep *ftab.Replicated, arch *archive.Store, archiver *archive.Archiver) {
	metrics.WriteHelp(w, "afs_files", "gauge", "Files in the table.")
	metrics.WriteSample(w, "afs_files", nil, float64(sh.Table.Len()))

	// Per-command RPC latency and error families: the file-service
	// commands this process serves, and the block commands it issues to
	// remote mounts (empty without -blocks/-mirror/-archive mounts).
	rpc.WriteMetricsHeaders(w)
	rpcMetrics.Write(w, map[string]string{"side": "server"})
	blockMetrics.Write(w, map[string]string{"side": "client"})

	if sr, ok := store.(block.StatsReporter); ok {
		if st, err := sr.BlockStats(); err == nil {
			metrics.WriteHelp(w, "afs_block_ops_total", "counter", "Block store operations by kind.")
			for kind, v := range map[string]uint64{
				"alloc": st.Allocs, "free": st.Frees, "read": st.Reads, "write": st.Writes,
				"lock": st.Locks, "unlock": st.Unlocks, "lock_conflict": st.LockConflicts, "fsync": st.Syncs,
			} {
				metrics.WriteSample(w, "afs_block_ops_total", map[string]string{"op": kind}, float64(v))
			}
		}
	}
	if ur, ok := store.(block.UsageReporter); ok {
		if u, err := ur.Usage(); err == nil {
			metrics.WriteHelp(w, "afs_blocks_capacity", "gauge", "Allocatable blocks.")
			metrics.WriteSample(w, "afs_blocks_capacity", nil, float64(u.Capacity))
			metrics.WriteHelp(w, "afs_blocks_in_use", "gauge", "Allocated blocks.")
			metrics.WriteSample(w, "afs_blocks_in_use", nil, float64(u.InUse))
		}
	}
	if sharded != nil {
		metrics.WriteHelp(w, "afs_shard_ops_total", "counter", "Per-shard operations by kind.")
		metrics.WriteHelp(w, "afs_shard_blocks_in_use", "gauge", "Per-shard allocated blocks.")
		for _, st := range sharded.ShardStats() {
			l := func(extra string) map[string]string {
				return map[string]string{"shard": fmt.Sprint(st.Shard), "op": extra}
			}
			metrics.WriteSample(w, "afs_shard_ops_total", l("read"), float64(st.Stats.Reads))
			metrics.WriteSample(w, "afs_shard_ops_total", l("write"), float64(st.Stats.Writes))
			metrics.WriteSample(w, "afs_shard_ops_total", l("alloc"), float64(st.Stats.Allocs))
			metrics.WriteSample(w, "afs_shard_ops_total", l("free"), float64(st.Stats.Frees))
			metrics.WriteSample(w, "afs_shard_ops_total", l("fsync"), float64(st.Stats.Syncs))
			metrics.WriteSample(w, "afs_shard_blocks_in_use",
				map[string]string{"shard": fmt.Sprint(st.Shard)}, float64(st.Usage.InUse))
		}
	}
	if seg != nil {
		st := seg.Stats()
		metrics.WriteHelp(w, "afs_segstore_total", "counter", "Segment-log events by kind.")
		for kind, v := range map[string]uint64{
			"batches": st.Batches, "batch_records": st.BatchRecords, "fsyncs": st.Syncs,
			"compactions": st.Compactions, "relocations": st.Relocations, "segments_reclaimed": st.SegmentsReclaimed,
			"recycles": st.Recycles, "window_grows": st.WindowGrows, "window_shrinks": st.WindowShrinks,
			"compact_errors": st.CompactErrors, "lanes_recreated": st.LanesRecreated,
		} {
			metrics.WriteSample(w, "afs_segstore_total", map[string]string{"event": kind}, float64(v))
		}
		h := seg.Histograms()
		metrics.WriteHelp(w, "afs_segstore_append_seconds", "histogram", "Client-visible append latency, submit to durable acknowledgement.")
		h.Append.Snapshot().Write(w, "afs_segstore_append_seconds", nil)
		metrics.WriteHelp(w, "afs_segstore_flush_seconds", "histogram", "Duration of each segment-log fsync.")
		h.Flush.Snapshot().Write(w, "afs_segstore_flush_seconds", nil)
		metrics.WriteHelp(w, "afs_segstore_batch_pages", "histogram", "Records carried per group-commit batch.")
		h.BatchPages.Snapshot().Write(w, "afs_segstore_batch_pages", nil)
		metrics.WriteHelp(w, "afs_segstore_window_seconds", "histogram", "Adaptive group-commit window in force at each batch.")
		h.Window.Snapshot().Write(w, "afs_segstore_window_seconds", nil)
		metrics.WriteHelp(w, "afs_segstore_lane_queue_depth", "gauge", "Request groups waiting per log lane.")
		metrics.WriteHelp(w, "afs_segstore_lane_window_seconds", "gauge", "Current adaptive commit window per log lane.")
		metrics.WriteHelp(w, "afs_segstore_lane_segments", "gauge", "Live segment files per log lane.")
		metrics.WriteHelp(w, "afs_segstore_lane_pool_free", "gauge", "Recycled segment files awaiting reuse per log lane.")
		for _, ls := range seg.LaneStats() {
			l := map[string]string{"lane": fmt.Sprint(ls.Lane)}
			metrics.WriteSample(w, "afs_segstore_lane_queue_depth", l, float64(ls.QueueDepth))
			metrics.WriteSample(w, "afs_segstore_lane_window_seconds", l, ls.Window.Seconds())
			metrics.WriteSample(w, "afs_segstore_lane_segments", l, float64(ls.Segments))
			metrics.WriteSample(w, "afs_segstore_lane_pool_free", l, float64(ls.PoolFree))
		}
	}
	if len(pairs) > 0 {
		metrics.WriteHelp(w, "afs_mirror_half_down", "gauge", "1 when the half is down.")
		metrics.WriteHelp(w, "afs_mirror_half_events_total", "counter", "Pair-protocol events by kind.")
		for i, p := range pairs {
			a, b := p.Halves()
			for _, h := range []*stable.Half{a, b} {
				base := map[string]string{"pair": fmt.Sprint(i), "half": h.Name()}
				down := 0.0
				if h.Down() {
					down = 1
				}
				metrics.WriteSample(w, "afs_mirror_half_down", base, down)
				st := h.Stats()
				for kind, v := range map[string]uint64{
					"companion_write": st.CompanionWrites, "collision": st.Collisions,
					"corrupt_fallback": st.CorruptFallbacks, "repair": st.Repairs,
					"intent": st.IntentionsKept, "replayed": st.Replayed,
					"full_copied": st.FullCopied, "auto_markdown": st.AutoMarkdowns,
				} {
					l := map[string]string{"pair": base["pair"], "half": base["half"], "event": kind}
					metrics.WriteSample(w, "afs_mirror_half_events_total", l, float64(v))
				}
			}
		}
	}

	if arch != nil {
		st := arch.Stats()
		metrics.WriteHelp(w, "afs_archive_ops_total", "counter", "Archive-tier content-addressed store events by kind.")
		for kind, v := range map[string]uint64{
			"put": st.Puts, "stored": st.Stored, "dedup_hit": st.DedupHits,
			"read": st.Reads, "corrupt_read": st.CorruptReads,
		} {
			metrics.WriteSample(w, "afs_archive_ops_total", map[string]string{"op": kind}, float64(v))
		}
		metrics.WriteHelp(w, "afs_archive_bytes", "gauge", "Archive payload bytes; dedup saves logical minus stored.")
		metrics.WriteSample(w, "afs_archive_bytes", map[string]string{"form": "logical"}, float64(st.BytesLogical))
		metrics.WriteSample(w, "afs_archive_bytes", map[string]string{"form": "stored"}, float64(st.BytesStored))
		metrics.WriteHelp(w, "afs_archive_snapshots", "gauge", "Snapshot-log records held.")
		metrics.WriteSample(w, "afs_archive_snapshots", nil, float64(st.Snapshots))
		metrics.WriteHelp(w, "afs_archive_blocks", "gauge", "Archive blocks by kind.")
		for kind, v := range st.BlocksByKind {
			metrics.WriteSample(w, "afs_archive_blocks", map[string]string{"kind": kind}, float64(v))
		}
		as := archiver.Stats()
		metrics.WriteHelp(w, "afs_archive_demote_total", "counter", "Archiver demotion events by kind.")
		for kind, v := range map[string]uint64{
			"demoted": as.Demotes, "skipped": as.Skipped,
			"pages": as.Pages, "page_dedup": as.Deduped,
		} {
			metrics.WriteSample(w, "afs_archive_demote_total", map[string]string{"event": kind}, float64(v))
		}
		metrics.WriteHelp(w, "afs_archive_dedup_ratio", "histogram", "Per-demote fraction of pages answered by existing archive blocks.")
		archiver.Ratio.Snapshot().Write(w, "afs_archive_dedup_ratio", nil)
	}

	// OCC counters plus the commit-path latency histogram, aggregated
	// across this process's file servers (identical bucket bounds, so
	// summing the snapshots is exact).
	var occSum struct {
		commits, fast, validations, conflicts, compared, merged, retries uint64
	}
	var lat metrics.HistogramSnapshot
	for i, s := range srvs {
		st := s.OCCStats()
		occSum.commits += st.Commits.Load()
		occSum.fast += st.FastCommits.Load()
		occSum.validations += st.Validations.Load()
		occSum.conflicts += st.Conflicts.Load()
		occSum.compared += st.PagesCompared.Load()
		occSum.merged += st.Merged.Load()
		occSum.retries += st.ChainRetries.Load()
		snap := st.Latency.Snapshot()
		if i == 0 {
			lat = snap
			continue
		}
		lat.Count += snap.Count
		lat.SumSeconds += snap.SumSeconds
		for j := range lat.Buckets {
			lat.Buckets[j].Count += snap.Buckets[j].Count
		}
	}
	metrics.WriteHelp(w, "afs_occ_total", "counter", "OCC commit-path events by kind.")
	for kind, v := range map[string]uint64{
		"commits": occSum.commits, "fast_commits": occSum.fast, "validations": occSum.validations,
		"conflicts": occSum.conflicts, "pages_compared": occSum.compared, "merged_refs": occSum.merged,
		"chain_retries": occSum.retries,
	} {
		metrics.WriteSample(w, "afs_occ_total", map[string]string{"event": kind}, float64(v))
	}
	metrics.WriteHelp(w, "afs_commit_seconds", "histogram", "Commit operation latency (validation, critical section, locks, table CAS).")
	lat.Write(w, "afs_commit_seconds", nil)

	if rep != nil {
		s := rep.StatsSnapshot()
		metrics.WriteHelp(w, "afs_ftab_total", "counter", "Replicated file-table events by kind.")
		for kind, v := range map[string]uint64{
			"pushes": s.Pushes, "push_failures": s.PushFailures, "applied": s.Applied,
			"fast_applied": s.FastApplied, "resolved": s.Resolved, "tie_breaks": s.TieBreaks,
			"resyncs": s.Resyncs, "batches": s.Batches, "coalesced": s.Coalesced,
			"overflows": s.Overflows,
		} {
			metrics.WriteSample(w, "afs_ftab_total", map[string]string{"event": kind}, float64(v))
		}
		metrics.WriteHelp(w, "afs_ftab_peers", "gauge", "File-table peers by state.")
		metrics.WriteSample(w, "afs_ftab_peers", map[string]string{"state": "up"}, float64(s.PeersUp))
		metrics.WriteSample(w, "afs_ftab_peers", map[string]string{"state": "down"}, float64(s.PeersDown))
		metrics.WriteHelp(w, "afs_ftab_queue_depth", "gauge", "Updates pending across the per-peer push streams.")
		metrics.WriteSample(w, "afs_ftab_queue_depth", nil, float64(s.QueueDepth))
		metrics.WriteHelp(w, "afs_ftab_batch_size", "histogram", "Updates carried per replication frame.")
		rep.BatchSizes.Snapshot().Write(w, "afs_ftab_batch_size", nil)
		metrics.WriteHelp(w, "afs_ftab_push_seconds", "histogram", "Wire round-trip latency per replication frame.")
		rep.PushLatency.Snapshot().Write(w, "afs_ftab_push_seconds", nil)
	}
}
