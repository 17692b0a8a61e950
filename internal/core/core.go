// Package core is the one deployment assembler. Every way this
// repository brings the file service up — afs-server and afs-block over
// TCP, the in-proc Cluster behind the public afs package, the examples
// and the tests — builds the stack from the same three pieces:
//
//   - OpenBackend (backend.go): the block storage a process opens
//     locally — mem or seg, optionally an in-box companion pair, one
//     store per shard.
//   - ParseMounts and Mount (mount.go): the strict PORT@ADDR parser and
//     the one dialer that turns a mount list into a remote store, a §4
//     companion pair, or the sharded facade over either.
//   - NewInstance (service.go): one file-service instance — shared
//     state, archive tier, replicated table and mesh, recovery
//     adoption, servers, collector and heal loop — parameterised only by
//     a Register func and one transactor per peer.
//
// Cluster composes them in-proc over rpc.Network; daemon.go holds what
// the two daemons share around them (logging, the debug listener, the
// run-until-signal helper).
package core

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/version"
)

// Config describes a cluster.
type Config struct {
	// Servers is the number of file server processes (default 1).
	Servers int
	// Peers, when > 1, splits the cluster into that many independent
	// service instances ("machines"): each instance has its own Shared
	// state — file table, minting port, object band — and the
	// tables are kept convergent through the replicated file table
	// (internal/ftab) over the in-proc network, exactly as
	// `afs-server -peers` does over TCP. Server i serves instance
	// i % Peers. Default 1: one instance for all servers, the
	// single-machine special case.
	Peers int
	// Backend describes the block storage the cluster opens, and closes
	// with Close. With Backend.Shards > 1 the stores are served behind
	// block.Serve on the cluster's network and every instance mounts
	// them behind the sharded facade — the afs-block -shards /
	// afs-server -blocks topology.
	Backend Backend
	// Store, when set, is a pre-built block store used instead of
	// Backend (a dialled mirror, a surviving store from a previous
	// cluster). The caller keeps ownership.
	Store block.Store
	// Retain is the GC's committed-version horizon per file (default 4).
	Retain int
	// Archive, when set, enables the content-addressed archive tier on
	// the storage it describes: committed versions falling past the
	// retention horizon are demoted (rewritten hash-addressed,
	// deduplicated, logged as snapshots) instead of deleted, and the
	// servers answer the snapshot commands. Its BlockSize is derived:
	// the front tier's plus archive.FrameOverhead.
	Archive *Backend
	// TraceSample, when positive, turns on distributed tracing: clients
	// made with Client() sample that ratio of operations ([0,1]) into
	// span trees and report them back to the service, where they land in
	// the cluster Tracer's ring. TraceSlow marks traces at least that
	// long as slow (kept in the slowest-N list).
	TraceSample float64
	TraceSlow   time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.Peers <= 0 {
		c.Peers = 1
	}
	if c.Servers < c.Peers {
		c.Servers = c.Peers
	}
	if c.Retain <= 0 {
		c.Retain = 4
	}
	return c
}

// Cluster is a running deployment.
type Cluster struct {
	Cfg Config
	Net *rpc.Network
	// Instances lists the service instances (Cfg.Peers of them), each
	// with its own Shared state and, when there are several, its
	// replica of the file table.
	Instances []*Instance
	// Servers lists every file server in start order; instOf names the
	// instance each one serves.
	Servers []*server.Server
	// GC is instance 0's collector — the elected sweeper of a mesh.
	GC *gc.Collector
	// Tracer is the service-side trace sink (nil unless Cfg.TraceSample
	// is positive): client-assembled traces reported over CmdTraceReport
	// land here, for /debug/traces-style inspection.
	Tracer *trace.Tracer
	// Metrics holds what the storage and instance 0 register: what that
	// instance's process would serve on /metrics.
	Metrics *metrics.Registry

	wire    wire
	addrs   []string // listener address of each instance
	instOf  []int    // service instance of each server, parallel to Servers
	storage []*Storage
}

// wire is how a cluster's processes reach each other. NewCluster uses
// the in-proc rpc.Network; the transport-equivalence test substitutes
// loopback TCP to run the same assembly the daemons run.
type wire struct {
	net *rpc.Network // nil over TCP
	// listen opens one process's listener: register serves a handler on
	// one of its ports, addr is where dial reaches it.
	listen func() (register func(capability.Port, rpc.Handler), addr string)
	dial   Dialer
}

// NewCluster builds and starts a cluster on the in-proc network.
func NewCluster(cfg Config) (*Cluster, error) {
	net := rpc.NewNetwork()
	return newCluster(cfg, wire{
		net: net,
		listen: func() (func(capability.Port, rpc.Handler), string) {
			return func(p capability.Port, h rpc.Handler) {
				// Every port is its own process group, so CrashServer
				// can kill one server's port without touching its
				// siblings. Ports are fresh random draws or derive from
				// the loop-assigned instance IDs: a clash is a bug here.
				if err := net.Register(p.String(), p, h); err != nil {
					panic(err)
				}
			}, ""
		},
		dial: func(...Endpoint) rpc.Transactor { return net },
	})
}

func newCluster(cfg Config, w wire) (_ *Cluster, err error) {
	cfg = cfg.withDefaults()
	c := &Cluster{Cfg: cfg, Net: w.net, Metrics: new(metrics.Registry), wire: w}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if cfg.TraceSample > 0 {
		// The sink's own sampling ratio is irrelevant — clients sample;
		// it only ingests reported traces.
		c.Tracer = trace.New(0, cfg.TraceSlow, 256)
	}

	// The block machine: used directly when it is one store, served
	// one port per shard (and mounted per instance, below) when there
	// are several.
	store := cfg.Store
	var mounts [][]Endpoint
	if store == nil {
		st, err := OpenBackend(cfg.Backend)
		if err != nil {
			return nil, err
		}
		c.storage = append(c.storage, st)
		store = st.Stores[0]
		if len(st.Stores) == 1 {
			st.Register(c.Metrics, 0)
		} else {
			register, addr := w.listen()
			for _, ep := range st.Serve(register, addr, c.Metrics) {
				mounts = append(mounts, []Endpoint{ep})
			}
		}
	}
	var archBacking block.Store
	if cfg.Archive != nil {
		ab := *cfg.Archive
		ab.BlockSize = store.BlockSize() + archive.FrameOverhead
		st, err := OpenBackend(ab)
		if err != nil {
			return nil, err
		}
		c.storage = append(c.storage, st)
		archBacking = st.Stores[0]
	}

	// The service instances boot in ID order, like processes: every
	// later one pulls the table from those already up.
	registers := make([]func(capability.Port, rpc.Handler), cfg.Peers)
	c.addrs = make([]string, cfg.Peers)
	for i := range registers {
		registers[i], c.addrs[i] = w.listen()
	}
	for i := 0; i < cfg.Peers; i++ {
		var reg *metrics.Registry
		if i == 0 {
			reg = c.Metrics
		}
		spec := Service{
			ID:       uint32(i),
			Store:    store,
			Archive:  archBacking,
			Retain:   cfg.Retain,
			Tracer:   c.Tracer,
			Register: registers[i],
			Metrics:  reg,
		}
		if mounts != nil {
			if spec.Store, _, err = Mount(mounts, w.dial, reg); err != nil {
				return nil, err
			}
		}
		for j := 0; j < cfg.Peers; j++ {
			if j != i {
				spec.Peers = append(spec.Peers, Peer{ID: uint32(j),
					Via: w.dial(Endpoint{Port: ftab.PortFor(uint32(j)), Addr: c.addrs[j]})})
			}
		}
		in, err := NewInstance(spec)
		if err != nil {
			return nil, err
		}
		c.Instances = append(c.Instances, in)
	}
	for i := 0; i < cfg.Servers; i++ {
		if _, err := c.AddServerOn(i % cfg.Peers); err != nil {
			return nil, err
		}
	}
	c.GC = c.Instances[0].GC
	return c, nil
}

// FlushTables drains the replicated tables' asynchronous push streams:
// when it returns true, every table mutation made so far has reached
// every peer instance that is up. Mutations are acknowledged before
// they propagate (ack after local durability), so anything that writes
// through one instance and immediately reads through another — tests,
// orchestration — quiesces here first. A no-op on single-instance
// clusters.
func (c *Cluster) FlushTables(timeout time.Duration) bool {
	ok := true
	for _, in := range c.Instances {
		if in.Table != nil && !in.Table.Flush(timeout) {
			ok = false
		}
	}
	return ok
}

// Close stops the instances — flushing each table's pending pushes for
// a bounded time; on a timeout peers resync by snapshot on their next
// heal — and closes the storage the cluster opened.
func (c *Cluster) Close() error {
	for _, in := range c.Instances {
		in.Close(5 * time.Second)
	}
	var first error
	for _, st := range c.storage {
		if err := st.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Abandon simulates a process crash for tests and demos that restart a
// durable cluster within one process: the storage's file handles are
// dropped with no flush or shutdown.
func (c *Cluster) Abandon() {
	for _, st := range c.storage {
		st.Abandon()
	}
}

// AddServer starts one more file server process on the first service
// instance and returns its index. Used both for initial bring-up and to
// replace crashed servers; multi-instance clusters place servers with
// AddServerOn.
func (c *Cluster) AddServer() (int, error) { return c.AddServerOn(0) }

// AddServerOn starts one more file server process on service instance
// inst and returns the server's index.
func (c *Cluster) AddServerOn(inst int) (int, error) {
	if inst < 0 || inst >= len(c.Instances) {
		return 0, fmt.Errorf("core: no service instance %d (have %d)", inst, len(c.Instances))
	}
	c.Servers = append(c.Servers, c.Instances[inst].AddServer())
	c.instOf = append(c.instOf, inst)
	return len(c.Servers) - 1, nil
}

// CrashServer kills server i: its process state and the port it serves
// die at once, and with them its updates' lock ports.
func (c *Cluster) CrashServer(i int) {
	if i < 0 || i >= len(c.Servers) {
		return
	}
	c.Servers[i].Crash()
	c.Net.Crash(c.Servers[i].Port().String())
}

// Ports lists the live servers' ports, preferred order.
func (c *Cluster) Ports() []capability.Port {
	out := make([]capability.Port, 0, len(c.Servers))
	for _, s := range c.Servers {
		if c.Net.Alive(s.Port()) {
			out = append(out, s.Port())
		}
	}
	return out
}

// AllPorts lists every server port regardless of liveness (clients
// discover death by failing over).
func (c *Cluster) AllPorts() []capability.Port {
	out := make([]capability.Port, 0, len(c.Servers))
	for _, s := range c.Servers {
		out = append(out, s.Port())
	}
	return out
}

// Client creates a client connected to all servers. With tracing
// configured, each client gets its own sampling tracer and ships every
// assembled trace back to the service (fire-and-forget) so cross-layer
// traces are inspectable in one place.
func (c *Cluster) Client() *client.Client {
	cl := client.New(c.wire.dial(c.endpoints()...), c.AllPorts()...)
	if c.Cfg.TraceSample > 0 {
		t := trace.New(c.Cfg.TraceSample, c.Cfg.TraceSlow, 64)
		t.OnTrace = func(tr *trace.Trace) { go cl.ReportTrace(tr) }
		cl.SetTracer(t)
	}
	return cl
}

// endpoints lists every server's endpoint, in start order.
func (c *Cluster) endpoints() []Endpoint {
	eps := make([]Endpoint, len(c.Servers))
	for i, s := range c.Servers {
		eps[i] = Endpoint{Port: s.Port(), Addr: c.addrs[c.instOf[i]]}
	}
	return eps
}

// Pair returns the stable-storage pair when the cluster's store is one.
func (c *Cluster) Pair() *stable.Pair {
	p, _ := c.Instances[0].Shared.Store.(*stable.Pair)
	return p
}

// RecoverTable is the process-restart recovery path: rebuild the file
// table from storage (§4 recovery scan) and adopt it (Instance.Recover).
// It returns the adopted files' owner capabilities by object number —
// the ones their version pages carry, so the capabilities issued before
// the restart — and instances racing the same recovery adopt the same
// ones.
func (c *Cluster) RecoverTable() (map[uint32]capability.Capability, error) {
	return c.RecoverTableOn(0)
}

// RecoverTableOn runs the recovery adoption for service instance inst.
func (c *Cluster) RecoverTableOn(inst int) (map[uint32]capability.Capability, error) {
	if inst < 0 || inst >= len(c.Instances) {
		return nil, fmt.Errorf("core: no service instance %d (have %d)", inst, len(c.Instances))
	}
	return c.Instances[inst].Recover()
}

// RebuildTable reconstructs the file table from storage (total-crash
// recovery, §4): the result replaces the shared table's contents.
func (c *Cluster) RebuildTable() error {
	sh := c.Instances[0].Shared
	t, err := file.Rebuild(version.NewStore(sh.Store, sh.Acct))
	if err != nil {
		return err
	}
	for _, obj := range sh.Table.Objects() {
		sh.Table.Remove(obj)
	}
	for obj, e := range t.Entries() {
		sh.Table.Put(obj, e)
	}
	return nil
}
