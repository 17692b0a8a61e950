package core

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/version"
)

// Peer is one sibling service instance of a replicated deployment,
// reached through its own transactor at its well-known table port.
type Peer struct {
	ID  uint32
	Via rpc.Transactor
}

// Service describes one file-service instance: one afs-server process,
// or one "machine" of an in-proc cluster. The transport enters only as
// Register and the peers' transactors, so the same assembly runs over
// TCP and over rpc.Network.
type Service struct {
	// ID is the replica ID (0..ftab.MaxID): it bands the instance's
	// object numbers and names its table port.
	ID uint32
	// Store is the block service underneath, already opened or mounted.
	Store block.Store
	// Archive, when set, is the backing store of the content-addressed
	// archive tier: the collector demotes retired versions into it and
	// the servers answer the snapshot commands from it. Its blocks must
	// hold a front block plus archive.FrameOverhead.
	Archive block.Store
	// Servers is the number of file server processes started.
	Servers int
	// Retain is the collector's committed-version horizon per file.
	Retain int
	// Tracer, when set, is the sink for reported traces and samples
	// requests itself according to its ratio.
	Tracer *trace.Tracer
	// Peers, when non-empty, replicates the file table (owner
	// capabilities included) across the mesh.
	Peers []Peer
	// Recover runs the §4 recovery scan before the servers start: set
	// it when Store may hold a file system from a past life.
	Recover bool
	// Register serves a handler on a port of this instance's listener
	// ((*rpc.TCPServer).Register has this shape).
	Register func(capability.Port, rpc.Handler)
	// Metrics receives every layer's collectors (nil: unobserved).
	Metrics *metrics.Registry
}

// Instance is a running service instance.
type Instance struct {
	Shared *server.Shared
	// Table is the replicated file table, nil without peers (the
	// instance then serves the plain in-process table).
	Table *ftab.Replicated
	// GC is the instance's collector. In a mesh every instance has one
	// but only the elected sweeper's cycles run (see gate).
	GC *gc.Collector
	// Archiver is the demote engine the collector feeds into the
	// archive tier (Shared.Archive); nil without Service.Archive.
	Archiver *archive.Archiver
	// Recovered holds the owner capabilities of the files the boot-time
	// recovery scan adopted, by object (Service.Recover).
	Recovered map[uint32]capability.Capability

	spec Service
	rpc  *rpc.Metrics

	mu      sync.Mutex
	servers []*server.Server

	// peerPins carries the peers' open versions from the collector's
	// gate (which gathers them, failing closed) to its live callback
	// within the same cycle.
	peerPins atomic.Value

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewInstance assembles and starts a service instance: shared state,
// archive tier, replicated table joined to its mesh, guarded recovery
// adoption, servers, and the collector wired for its role in the mesh.
// Background work (collection, healing) starts with Start.
func NewInstance(spec Service) (*Instance, error) {
	sh := server.NewShared(spec.Store, 1)
	sh.SetID(spec.ID)
	sh.Tracer = spec.Tracer
	in := &Instance{Shared: sh, spec: spec, rpc: &rpc.Metrics{Name: server.CmdName}, stop: make(chan struct{})}
	reg := spec.Metrics

	if spec.Archive != nil {
		if need := spec.Store.BlockSize() + archive.FrameOverhead; spec.Archive.BlockSize() < need {
			return nil, fmt.Errorf("archive backing has %d-byte blocks; framing %d-byte front blocks needs at least %d",
				spec.Archive.BlockSize(), spec.Store.BlockSize(), need)
		}
		arch, err := archive.New(spec.Archive, sh.Acct)
		if err != nil {
			return nil, fmt.Errorf("open archive: %w", err)
		}
		sh.Archive = arch
		in.Archiver = &archive.Archiver{
			Front: version.NewStore(spec.Store, sh.Acct),
			Store: arch,
			Acct:  sh.Acct,
			Ratio: new(metrics.Histogram),
		}
		reg.Register("archive", in.Archiver.Collect)
	}

	if len(spec.Peers) > 0 {
		// Register the replica's well-known table port before anything
		// else, join the mesh, and only then recover: a peer booting
		// during our recovery pulls what we have and receives the rest
		// as adoption pushes.
		rep := ftab.NewReplicated(ftab.Options{
			ID:        spec.ID,
			Local:     sh.Table.(*file.Table),
			Store:     version.NewStore(spec.Store, sh.Acct),
			PortAlive: sh.Ports.Alive,
			Live:      in.live,
		})
		for _, p := range spec.Peers {
			rep.AddPeer(p.ID, p.Via)
		}
		sh.Table = rep
		in.Table = rep
		spec.Register(ftab.PortFor(spec.ID), rep.Handler())
		rep.Bootstrap()
		reg.Register("ftab", rep.Collect)
	}

	if spec.Recover {
		caps, err := in.Recover()
		if err != nil {
			// Starting empty over a store we cannot read would leave
			// the old files allocated but unreachable.
			return nil, fmt.Errorf("recover file table: %w", err)
		}
		in.Recovered = caps
	}

	for i := 0; i < spec.Servers; i++ {
		in.AddServer()
	}

	in.GC = gc.New(version.NewStore(spec.Store, sh.Acct), sh.Table, spec.Retain, func() []block.Num {
		pins, _ := in.peerPins.Load().([]block.Num)
		return append(in.live(), pins...)
	})
	if in.Archiver != nil {
		in.GC.Demote = func(object uint32, root block.Num) error {
			_, _, err := in.Archiver.Demote(object, root)
			return err
		}
	}
	if in.Table != nil {
		in.GC.Gate = in.gate
	}

	reg.Register("server", server.Collect(sh, in.Servers))
	reg.Register("rpc", in.rpc.Collect, "side", "server")
	reg.Register("block", block.Collect(spec.Store))
	return in, nil
}

// Servers returns the instance's file servers, crashed ones included.
func (in *Instance) Servers() []*server.Server {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*server.Server(nil), in.servers...)
}

// AddServer starts one more file server process on this instance: at
// bring-up, and to replace a crashed one.
func (in *Instance) AddServer() *server.Server {
	var probe lock.Prober // nil: the service's own update-port registry
	if rep := in.Table; rep != nil {
		// Across the mesh, an update owned by a sibling instance holds
		// its locks under a port only that sibling can vouch for.
		probe = func(p capability.Port) bool { return in.Shared.Ports.Alive(p) || rep.PortAlive(p) }
	}
	s := server.New(in.Shared, probe)
	in.spec.Register(s.Port(), rpc.Instrument(in.rpc, s.Handler()))
	in.mu.Lock()
	in.servers = append(in.servers, s)
	in.mu.Unlock()
	return s
}

// live lists the open version roots of this instance's servers: what
// its collector pins and what its table replica reports to the peers'
// collectors.
func (in *Instance) live() []block.Num {
	var out []block.Num
	for _, s := range in.Servers() {
		out = append(out, s.LiveVersions()...)
	}
	return out
}

// gate is the mesh collector's start-of-cycle check. Election first:
// every instance may run its collector, but only the lowest-ID replica
// sweeps (concurrent sweeps could free a sibling's not-yet-linked
// shadow pages). Then the peers' open versions — their uncommitted
// pages live in the same shared store — are gathered for pinning,
// failing closed when a peer cannot be asked.
func (in *Instance) gate() bool {
	if !in.Table.SweepLeader() {
		return false
	}
	pins, ok := in.Table.PeerLive()
	if !ok {
		slog.Warn("cycle skipped: a file-table peer is unreachable and its open versions cannot be pinned",
			"component", "gc")
		return false
	}
	in.peerPins.Store(pins)
	return true
}

// Recover runs the §4 recovery scan over the store and adopts the
// rebuilt table. Each recovered file keeps the owner capability its
// version pages carry, so capabilities issued before the restart still
// verify. Adoption is guarded and idempotent (server.Shared.AdoptTable):
// files the mesh already replicated here are not in the returned map.
func (in *Instance) Recover() (map[uint32]capability.Capability, error) {
	t, err := file.Rebuild(version.NewStore(in.Shared.Store, in.Shared.Acct))
	if err != nil {
		return nil, err
	}
	return in.Shared.AdoptTable(t), nil
}

// Start launches the instance's background work until Close: a
// collection cycle every gcEvery (non-positive disables it), and every
// HealEvery a heal pass over the mounted pairs and the table's down
// peers.
func (in *Instance) Start(gcEvery time.Duration, pairs []*stable.Pair) {
	if gcEvery > 0 && in.Table != nil {
		slog.Info("collector elected by lowest configured ID; the others stand by",
			"component", "gc", "replica", in.spec.ID, "sweeper", in.Table.SweepLeader())
	}
	in.every(gcEvery, func() {
		rep, err := in.GC.Collect()
		if err == nil {
			// A cycle that could not demote stalls retirement and lets
			// the front tier grow until the archive recovers: the
			// operator must hear about it.
			err = rep.DemoteErr
		}
		if err != nil {
			slog.Error("collection error", "component", "gc", "err", err)
		}
	})
	if len(pairs) > 0 || in.Table != nil {
		in.every(HealEvery, func() { Heal(pairs, in.Table) })
	}
}

// every runs fn on the instance's own goroutine at the given interval
// until Close.
func (in *Instance) every(interval time.Duration, fn func()) {
	if interval <= 0 {
		return
	}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		Every(interval, in.stop, fn)
	}()
}

// Close stops the background work and drains the table's push streams
// for at most timeout: updates already acknowledged to clients may
// still be queued for peers. It reports whether everything drained; a
// timeout is not data loss — peers that missed the tail catch up by
// snapshot when they next heal against a live replica.
func (in *Instance) Close(timeout time.Duration) bool {
	in.stopOnce.Do(func() { close(in.stop) })
	in.wg.Wait()
	return in.Table == nil || in.Table.Close(timeout)
}

// Every calls fn at the given interval until stop closes.
func Every(interval time.Duration, stop <-chan struct{}, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// HealEvery is how often a process runs Heal over its pairs and its
// table's peers: how soon a returned mirror half or file-table peer
// rejoins.
const HealEvery = 2 * time.Second

// Heal is one heal pass: down mirror halves are probed and rejoined (§4
// "compares notes ... and restores its disk") as soon as their backend
// answers, and down file-table peers resynced. rep may be nil.
func Heal(pairs []*stable.Pair, rep *ftab.Replicated) {
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
