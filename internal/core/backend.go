package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/segstore"
	"repro/internal/stable"
)

// Backend describes block storage a process opens locally: what
// afs-block serves, what afs-server -store and afs.Options.Dir open.
// The zero value is one simulated RAM disk of 65536 blocks of 4 KiB.
type Backend struct {
	// Kind is "mem" (a simulated disk whose contents die with the
	// process; the default) or "seg" (the durable segment-log store of
	// internal/segstore, in Dir).
	Kind string
	Dir  string
	// Shards is how many independent stores to open (default 1); with
	// "seg" each lives in its own subdirectory Dir/shard-XX.
	Shards int
	// Pair makes every store a pre-joined §4 companion pair over two
	// backends (with "seg" the subdirectories half-a and half-b).
	Pair bool
	// Blocks and BlockSize shape each store (mem defaults 65536 x 4096;
	// seg defaults are segstore's).
	Blocks    int
	BlockSize int
	// Sync ("group", the default, or "none"), LogShards and
	// Compact tune the segment log (segstore.Options).
	Sync      string
	LogShards int
	Compact   time.Duration
}

// Storage is an opened Backend.
type Storage struct {
	// Stores holds one store per shard — the unit a block service
	// serves: a *stable.Pair with Backend.Pair.
	Stores []block.Store
	// Pairs parallels Stores with Backend.Pair, nil otherwise.
	Pairs []*stable.Pair
	// Segs lists every segment log opened: one per store, two with
	// Backend.Pair (half-a, half-b), in shard order.
	Segs []*segstore.Store
}

// OpenBackend opens the stores b describes. Segment logs that lost lane
// directories, and pair halves whose epoch shows they missed writes,
// are reported as warnings; a lagging half is marked stale, so the pair
// comes up degraded until a heal pass restores it by full copy.
func OpenBackend(b Backend) (_ *Storage, err error) {
	st := &Storage{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	shards := max(b.Shards, 1)
	subs := []string{""}
	if b.Pair {
		subs = []string{"half-a", "half-b"}
	}
	for i := 0; i < shards; i++ {
		dir := b.Dir
		if shards > 1 && dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		}
		var opened []block.PairStore
		for _, sub := range subs {
			subDir := dir
			if dir != "" {
				subDir = filepath.Join(dir, sub)
			}
			s, err := st.openOne(b, subDir)
			if err != nil {
				return nil, err
			}
			opened = append(opened, s)
		}
		if !b.Pair {
			st.Stores = append(st.Stores, opened[0])
			continue
		}
		p := stable.NewFailoverPair(opened[0], opened[1])
		warnStale(p, "dir", dir)
		st.Stores = append(st.Stores, p)
		st.Pairs = append(st.Pairs, p)
	}
	return st, nil
}

// openOne opens a single backend instance.
func (st *Storage) openOne(b Backend, dir string) (block.PairStore, error) {
	switch b.Kind {
	case "", "mem":
		geo := disk.Geometry{Blocks: b.Blocks, BlockSize: b.BlockSize}
		if geo.Blocks <= 0 {
			geo.Blocks = 1 << 16
		}
		if geo.BlockSize <= 0 {
			geo.BlockSize = 4096
		}
		d, err := disk.New(geo)
		if err != nil {
			return nil, err
		}
		return block.NewServer(d), nil
	case "seg":
		if dir == "" {
			return nil, errors.New("the seg store needs a directory (-dir)")
		}
		mode := segstore.SyncGroup
		if b.Sync != "" {
			var err error
			if mode, err = segstore.ParseSyncMode(b.Sync); err != nil {
				return nil, err
			}
		}
		s, err := segstore.Open(dir, segstore.Options{
			BlockSize:    b.BlockSize,
			Capacity:     b.Blocks,
			Sync:         mode,
			LogShards:    b.LogShards,
			CompactEvery: b.Compact,
		})
		if err != nil {
			return nil, fmt.Errorf("open segstore %s: %w", dir, err)
		}
		st.Segs = append(st.Segs, s)
		level := slog.LevelDebug // a fresh store has nothing to report
		if s.InUse() > 0 || s.Stats().TruncatedBytes > 0 {
			level = slog.LevelInfo
		}
		slog.Log(context.Background(), level, "segstore recovered", "component", "segstore", "dir", dir,
			"blocks", s.InUse(), "segments", s.Segments(), "lanes", s.Lanes(),
			"truncated_bytes", s.Stats().TruncatedBytes)
		if rl := s.RecreatedLanes(); len(rl) > 0 {
			slog.Warn("lane directories were missing and recreated empty; their acknowledged blocks read as unallocated — restore from a replica if the loss matters",
				"component", "segstore", "dir", dir, "lanes", fmt.Sprint(rl))
		}
		return s, nil
	default:
		return nil, fmt.Errorf("unknown store kind %q (want mem or seg)", b.Kind)
	}
}

// warnStale runs the pair's boot-time divergence check: the §4 survivor
// bumps its persisted epoch at every companion markdown, so a half that
// missed writes while no pair process was alive boots with the lower
// epoch and is routed onto the full-copy path.
func warnStale(p *stable.Pair, where ...any) {
	if name, err := p.DetectStale(); err == nil && name != "" {
		slog.Warn("mirror half has a lower epoch (missed writes while no pair was alive); marked stale, a heal pass restores it by full copy",
			append([]any{"component", "mirror", "half", name}, where...)...)
	}
}

// Register adds the collectors of store i's layers below the block
// surface — its pair protocol and its segment logs (labelled by half
// under a pair) — with the given constant labels.
func (st *Storage) Register(reg *metrics.Registry, i int, labels ...string) {
	if st.Pairs != nil {
		reg.Register("mirror", st.Pairs[i].Collect, labels...)
	}
	per := len(st.Segs) / len(st.Stores)
	for h, s := range st.Segs[i*per : (i+1)*per] {
		l := labels
		if per == 2 {
			l = append(append([]string(nil), labels...), "half", string(rune('A'+h)))
		}
		reg.Register("segstore", s.Collect, l...)
	}
}

// Serve puts every store behind block.Serve on one listener, one
// service port each — ports[i] where given, a fresh random port
// otherwise — observing the commands served (side="server") and
// registering each store's layers labelled by shard. The returned
// endpoints are the mount list, in shard placement order.
func (st *Storage) Serve(register func(capability.Port, rpc.Handler), addr string, reg *metrics.Registry, ports ...capability.Port) []Endpoint {
	served := &rpc.Metrics{Name: block.CmdName}
	reg.Register("rpc", served.Collect, "side", "server")
	eps := make([]Endpoint, len(st.Stores))
	for i, s := range st.Stores {
		eps[i] = Endpoint{Port: capability.NewPort().Public(), Addr: addr}
		if i < len(ports) {
			eps[i].Port = ports[i]
		}
		register(eps[i].Port, rpc.Instrument(served, block.Serve(s)))
		shard := strconv.Itoa(i)
		reg.Register("block", block.Collect(s), "shard", shard)
		st.Register(reg, i, "shard", shard)
	}
	return eps
}

// BlockMachine is a block-server process: a Backend served on its own
// TCP listener. afs-block runs exactly one; the examples and tests run
// several inside one process and crash and restart them.
type BlockMachine struct {
	*Storage
	// Endpoints is the mount list the machine serves. It survives
	// Restart: the machine comes back at the address and ports its
	// mounters already hold.
	Endpoints []Endpoint

	backend Backend
	tcp     *rpc.TCPServer
}

// StartBlockMachine opens b and serves it on listen (see Serve for
// ports and reg).
func StartBlockMachine(b Backend, listen string, reg *metrics.Registry, ports ...capability.Port) (*BlockMachine, error) {
	tcp, err := rpc.NewTCPServer(listen)
	if err != nil {
		return nil, err
	}
	st, err := OpenBackend(b)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	return &BlockMachine{Storage: st, Endpoints: st.Serve(tcp.Register, tcp.Addr(), reg, ports...), backend: b, tcp: tcp}, nil
}

// Crash kills the machine: listener gone, store file handles dropped
// with no flush (acknowledged writes are already on disk).
func (m *BlockMachine) Crash() {
	m.tcp.Close()
	m.Abandon()
}

// Restart reboots a crashed machine over the same storage at the same
// endpoints; a segment log rebuilds its index by scanning.
func (m *BlockMachine) Restart() error {
	ports := make([]capability.Port, len(m.Endpoints))
	for i, ep := range m.Endpoints {
		ports[i] = ep.Port
	}
	again, err := StartBlockMachine(m.backend, m.Endpoints[0].Addr, nil, ports...)
	if err == nil {
		*m = *again
	}
	return err
}

// Close stops serving and closes the storage.
func (m *BlockMachine) Close() error {
	m.tcp.Close()
	return m.Storage.Close()
}

// Close shuts the segment logs down (pending group commits finish,
// files are synced), surfacing background compaction failures first.
func (st *Storage) Close() error {
	var errs []error
	for _, s := range st.Segs {
		if cs := s.Stats(); cs.CompactErrors > 0 {
			slog.Warn("background compaction errors", "component", "segstore",
				"count", cs.CompactErrors, "last", s.LastCompactError())
		}
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// Abandon simulates a process crash: the segment logs' file handles and
// directory locks are dropped with no flush or shutdown, so reopening
// the same directories sees exactly what a restarted process would.
func (st *Storage) Abandon() {
	for _, s := range st.Segs {
		s.Abandon()
	}
}
