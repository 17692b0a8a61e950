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
// automatically every two seconds). A half that missed writes while no
// server process was alive boots with the lower persisted epoch and is
// mounted stale, then restored by full copy. Several mirrored pairs compose
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
//
// The process is flags -> core.Backend or core.Mount -> core.Service ->
// core.NewInstance; see the Assembly section of docs/ARCHITECTURE.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -debug-addr mux
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/ftab"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/stable"
	"repro/internal/trace"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		servers     = flag.Int("servers", 2, "number of file server processes")
		backend     = flag.String("store", "mem", "block store backend: mem or seg (ignored with -blocks)")
		dir         = flag.String("dir", "", "store directory (required with -store=seg)")
		nblocks     = flag.Int("nblocks", 1<<16, "blocks of the in-process store (ignored with -blocks)")
		bsize       = flag.Int("bsize", 4096, "block size of the in-process store (ignored with -blocks)")
		sync        = flag.String("sync", "group", "seg durability: group or none")
		shards      = flag.Int("log-shards", 0, "seg log lanes writes are striped over (0 = one per CPU, capped at 8; pinned at store creation)")
		compact     = flag.Duration("compact", time.Minute, "seg compaction interval (0 disables)")
		mounts      = flag.String("blocks", "", "remote block services as PORT@ADDR[,PORT@ADDR...] (from afs-block); two or more are sharded")
		mirrors     = flag.String("mirror", "", "mirrored block services as PORT@ADDR+PORT@ADDR[,PORT@ADDR+PORT@ADDR...]: each element is a §4 companion pair; several pairs are sharded")
		debugAddr   = flag.String("debug-addr", "", "HTTP address serving Prometheus text on /metrics, the file table on /ftab, traces on /debug/traces and profiling on /debug/pprof/ (empty disables)")
		archSpec    = flag.String("archive", "", "archive tier backing: a directory (durable segstore, sized by -nblocks) or PORT@ADDR (remote block service); the collector demotes retired versions here instead of deleting them")
		gcEvery     = flag.Duration("gc", 5*time.Second, "garbage collection interval (0 disables; safe to leave on everywhere in a -peers mesh — the lowest-ID replica is elected sweeper)")
		gcRetain    = flag.Int("retain", 4, "committed versions retained per file")
		serverID    = flag.Uint("id", 0, "replica ID of this process, 0..63: bands its object numbers and names its file-table replication port (must be unique across a -peers mesh)")
		peers       = flag.String("peers", "", "sibling afs-server processes as ID@ADDR[,ID@ADDR...]: replicates the file table (and capability secrets) so all of them serve one file system over one shared block store")
		traceSample = flag.Float64("trace-sample", 0, "ratio of requests sampled into distributed traces, 0..1 (0 disables server-side sampling; client-reported traces are accepted regardless)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "traces at least this long are kept in the slowest list and logged as warnings")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		mutexFrac   = flag.Int("mutex-profile-fraction", 0, "runtime mutex-contention sampling fraction for /debug/pprof/mutex (0 disables)")
		blockRate   = flag.Int("block-profile-rate", 0, "runtime blocking-event sampling rate in ns for /debug/pprof/block (0 disables)")
	)
	flag.Parse()
	core.SetupLog(*logLevel)
	core.SetProfiling(*mutexFrac, *blockRate)
	if *serverID > ftab.MaxID {
		core.Fatal("-id out of range", "id", *serverID, "max", ftab.MaxID)
	}
	if *mirrors != "" && *mounts != "" {
		core.Fatal("-mirror and -blocks are mutually exclusive (a -mirror element is itself a mount)")
	}

	// The block commands this process issues to mounted remote stores
	// are observed with side="client"; the file-service commands it
	// serves register with side="server" inside the instance.
	reg := new(metrics.Registry)
	issued := &rpc.Metrics{Name: block.CmdName}
	reg.Register("rpc", issued.Collect, "side", "client")
	dial := core.TCPDialer(issued)

	spec := core.Service{
		ID:      uint32(*serverID),
		Servers: *servers,
		Retain:  *gcRetain,
		Recover: true, // a durable or remote store may hold a file system from a past life
		Metrics: reg,
	}
	local := core.Backend{
		Kind: *backend, Dir: *dir, Blocks: *nblocks, BlockSize: *bsize,
		Sync: *sync, LogShards: *shards, Compact: *compact,
	}
	var pairs []*stable.Pair
	var opened []*core.Storage
	list, width := *mounts, 1
	if *mirrors != "" {
		list, width = *mirrors, 2 // every -mirror element joins two endpoints
	}
	if list != "" {
		parsed, err := core.ParseMounts(list, width)
		if err != nil {
			core.Fatal("mount block services", "err", err)
		}
		if spec.Store, pairs, err = core.Mount(parsed, dial, reg); err != nil {
			core.Fatal("mount block services", "err", err)
		}
		slog.Info("mounted remote block services", "component", "store", "mounts", list)
	} else {
		st, err := core.OpenBackend(local)
		if err != nil {
			core.Fatal("open store", "err", err)
		}
		st.Register(reg, 0)
		opened = append(opened, st)
		spec.Store, spec.Recover = st.Stores[0], *backend == "seg"
	}

	if *archSpec != "" {
		// Either way the backing blocks must be large enough to frame a
		// front-tier block (the instance checks).
		if strings.ContainsRune(*archSpec, '@') {
			parsed, err := core.ParseMounts(*archSpec, 1)
			if err == nil {
				spec.Archive, _, err = core.Mount(parsed, dial, nil)
			}
			if err != nil {
				core.Fatal("mount archive", "err", err)
			}
		} else {
			// Write-once tier: nothing is ever freed, so the compactor
			// would never find a reclaimable segment — leave it off.
			st, err := core.OpenBackend(core.Backend{Kind: "seg", Dir: *archSpec, Blocks: *nblocks,
				BlockSize: spec.Store.BlockSize() + archive.FrameOverhead, Sync: *sync})
			if err != nil {
				core.Fatal("open archive", "err", err)
			}
			opened = append(opened, st)
			spec.Archive = st.Stores[0]
		}
	}

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
	spec.Tracer = tracer

	tcp, err := rpc.NewTCPServer(*listen)
	if err != nil {
		core.Fatal("listen", "addr", *listen, "err", err)
	}
	spec.Register = tcp.Register
	if spec.Peers, err = parsePeers(*peers, uint32(*serverID)); err != nil {
		core.Fatal("bad -peers", "component", "ftab", "err", err)
	}

	inst, err := core.NewInstance(spec)
	if err != nil {
		core.Fatal("start file service", "err", err)
	}
	sh := inst.Shared
	if inst.Table != nil {
		// Zero snapshots pulled: no peer answered, this replica
		// establishes the service identity and peers join via heal.
		slog.Info("joined replication mesh", "component", "ftab", "replica", *serverID,
			"snapshots_pulled", inst.Table.StatsSnapshot().Resyncs, "files", sh.Table.Len(),
			"identity", sh.Fact.Port().String())
	}
	if spec.Archive != nil {
		u, _ := sh.Archive.Usage()
		slog.Info("archive mounted", "component", "archive", "backing", *archSpec,
			"in_use", u.InUse, "capacity", u.Capacity, "snapshots", sh.Archive.Stats().Snapshots)
	}
	if spec.Recover && sh.Table.Len() > 0 {
		slog.Info("recovered files from block store", "component", "recovery",
			"files", len(inst.Recovered), "already_live", sh.Table.Len()-len(inst.Recovered))
		for obj, c := range inst.Recovered {
			// The text form is what the afs CLI accepts.
			slog.Info("recovered file", "component", "recovery", "object", obj, "cap", c.Text())
		}
	}

	var endpoints []string
	for _, s := range inst.Servers() {
		endpoints = append(endpoints, core.Endpoint{Port: s.Port(), Addr: tcp.Addr()}.String())
	}
	fmt.Println(strings.Join(endpoints, ","))
	slog.Info("file service up", "component", "server", "servers", *servers, "addr", tcp.Addr())

	// /ftab dumps the replicated file table for convergence checks and
	// /debug/traces the recent and slowest distributed traces.
	core.ServeDebug(*debugAddr, reg, map[string]http.HandlerFunc{
		"/ftab": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			writeTableDump(w, sh)
		},
		"/debug/traces": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTraces(w, tracer, r.URL.Query().Get("n"))
		},
	})
	inst.Start(*gcEvery, pairs)

	<-core.ShutdownSignal()
	// Drain the push streams before tearing anything down.
	if !inst.Close(5 * time.Second) {
		slog.Warn("shutdown flush timed out; unreached peers catch up by snapshot resync",
			"component", "ftab")
	}
	tcp.Close()
	reg.LogTotals(slog.Default())
	for _, st := range opened {
		if err := st.Close(); err != nil {
			slog.Error("close store", "component", "segstore", "err", err)
		}
	}
	slog.Info("file service down", "component", "server", "files", sh.Table.Len())
}

// parsePeers parses -peers, ID@ADDR[,ID@ADDR...], into one fail-fast
// TCP transactor per sibling (dialled lazily, so a dead sibling never
// stalls the commit path). ADDR is the sibling's -listen address; its
// table port derives from the ID.
func parsePeers(list string, own uint32) ([]core.Peer, error) {
	var out []core.Peer
	dial := core.TCPDialer(nil)
	seen := map[uint64]bool{uint64(own): true}
	for _, ep := range strings.Split(list, ",") {
		if ep = strings.TrimSpace(ep); ep == "" {
			continue
		}
		id, addr, ok := strings.Cut(ep, "@")
		if !ok {
			return nil, fmt.Errorf("peer %q: want ID@ADDR", ep)
		}
		pid, err := strconv.ParseUint(id, 10, 32)
		if err != nil || pid > ftab.MaxID {
			return nil, fmt.Errorf("peer %q: replica ID must be 0..%d", ep, ftab.MaxID)
		}
		if seen[pid] {
			return nil, fmt.Errorf("peer %q: replica ID %d repeated (own ID %d)", ep, pid, own)
		}
		seen[pid] = true
		out = append(out, core.Peer{ID: uint32(pid),
			Via: dial(core.Endpoint{Port: ftab.PortFor(uint32(pid)), Addr: addr})})
	}
	return out, nil
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

// writeTableDump renders the file table deterministically (object
// order) for GET /ftab: comparing two servers' dumps byte for byte is
// the operator's convergence check.
func writeTableDump(w io.Writer, sh *server.Shared) {
	fmt.Fprintf(w, "identity %s\n", sh.Fact.Port())
	fmt.Fprintf(w, "fingerprint %s\n", ftab.Fingerprint(sh.Table))
	entries := sh.Table.Entries()
	for _, o := range slices.Sorted(maps.Keys(entries)) {
		e := entries[o]
		fmt.Fprintf(w, "file %d root %d super %v cap %s\n", o, e.Entry, e.Super, e.Cap.Text())
	}
}
