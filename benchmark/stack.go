package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/rpc"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stable"
	"repro/internal/version"
)

// This is the one file that touches the layers' constructors. It
// assembles, inside the benchmark process, the topology cmd/afs-block
// and cmd/afs-server assemble across three processes —
//
//	client -TCP-> server -> occ/version -> shard -> block proxy -TCP->
//	block service -> mirrored pair -> 2 x segstore
//
// with two server peers joined by the replicated file table — and puts a
// probe on every boundary. The daemons' flags (Rig.startBlock,
// Rig.startServer) map to the same constructor arguments here.

// Retain is afs-server's -retain default: committed versions kept per
// file by the collector.
const Retain = 4

// The budget lines probes are charged to.
const (
	LayerClient   = "client"
	LayerRPC      = "rpc"
	LayerServer   = "server" // the commit command's spans are re-labelled occ
	LayerOCC      = "occ"
	LayerFtab     = "ftab"
	LayerShard    = "shard"
	LayerBlock    = "block"
	LayerStable   = "stable"
	LayerSegstore = "segstore"
	LayerGC       = "gc"
)

// Stack is the probed in-proc deployment.
type Stack struct {
	Rec     *Recorder
	Clients []*client.Client
	Servers []*server.Server   // one per peer
	Tables  []*ftab.Replicated // one per peer
	Pairs   []*stable.Pair     // one per block shard
	Segs    []*segstore.Store  // two per block shard
	SegDirs []string
	GC      *gc.Collector

	// Driver-level probes: the root span of an operation, of a
	// collection cycle and of a push-stream drain.
	OpProbe, GCProbe, DrainProbe int16

	closers []func()
}

func segOptions() segstore.Options {
	// afs-block's defaults: -bsize, -nblocks, -sync=group with the
	// default window, default lanes, -compact=1m.
	return segstore.Options{BlockSize: 4096, Capacity: 1 << 16, Sync: segstore.SyncGroup, CompactEvery: time.Minute}
}

func ftabCmdName(cmd uint32) string { return fmt.Sprintf("ftab-%02x", cmd&0xff) }

// NewStack builds the deployment under dir. Probes are registered and
// linked (who may contain whom) first, then the layers are constructed
// bottom-up with a probe on every boundary.
func NewStack(dir string) (_ *Stack, err error) {
	rec := NewRecorder()
	st := &Stack{Rec: rec}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	reg := rec.Register

	st.OpProbe = reg("driver", LayerClient, "op")
	st.GCProbe = reg("collector", LayerGC, "cycle")
	st.DrainProbe = reg("push-drain", LayerFtab, "drain")
	rec.MarkBackground(st.DrainProbe)

	var segID [BlockShards][2]int16
	var pairID, serveID [BlockShards]int16
	for s := 0; s < BlockShards; s++ {
		serveID[s] = reg(fmt.Sprintf("blocksvc/s%d", s), LayerBlock, "serve")
		pairID[s] = reg(fmt.Sprintf("pair/s%d", s), LayerStable, "store")
		rec.Link(pairID[s], serveID[s])
		for h, half := range []string{"a", "b"} {
			segID[s][h] = reg(fmt.Sprintf("seg/s%d/%s", s, half), LayerSegstore, "store")
			rec.Link(segID[s][h], pairID[s])
		}
	}
	var srvID, tableID, topID, tableTopID, applyID [Peers]int16
	var proxyID, callID [Peers][BlockShards]int16
	var pushID [Peers][Peers]int16
	gcTopID := reg("shard/p0/gc", LayerShard, "store")
	rec.Link(gcTopID, st.GCProbe)
	for p := 0; p < Peers; p++ {
		srvID[p] = reg(fmt.Sprintf("server/p%d", p), LayerServer, "serve")
		tableID[p] = reg(fmt.Sprintf("table/p%d", p), LayerFtab, "table")
		applyID[p] = reg(fmt.Sprintf("table-apply/p%d", p), LayerFtab, "apply")
		topID[p] = reg(fmt.Sprintf("shard/p%d", p), LayerShard, "store")
		// The replicated table's own view of the store: the reads that
		// re-derive a divergent entry, from a commit or from an apply.
		tableTopID[p] = reg(fmt.Sprintf("shard/p%d/table", p), LayerShard, "store")
		rec.Link(tableID[p], srvID[p])
		rec.Link(topID[p], srvID[p])
		rec.Link(tableTopID[p], tableID[p], applyID[p])
		rec.MarkBackground(applyID[p])
		for s := 0; s < BlockShards; s++ {
			proxyID[p][s] = reg(fmt.Sprintf("proxy/p%d/s%d", p, s), LayerBlock, "proxy")
			callID[p][s] = reg(fmt.Sprintf("call/p%d/s%d", p, s), LayerBlock, "call")
			rec.Link(proxyID[p][s], topID[p], tableTopID[p])
			rec.Link(callID[p][s], proxyID[p][s])
			rec.Link(serveID[s], callID[p][s])
		}
	}
	rec.Link(tableID[0], st.GCProbe)
	for s := 0; s < BlockShards; s++ {
		rec.Link(proxyID[0][s], gcTopID)
	}
	for p := 0; p < Peers; p++ {
		for q := 0; q < Peers; q++ {
			if q != p {
				pushID[p][q] = reg(fmt.Sprintf("table-push/p%d-p%d", p, q), LayerFtab, "push")
				rec.MarkBackground(pushID[p][q])
				rec.Link(applyID[q], pushID[p][q])
			}
		}
	}
	var clientCallID [Clients]int16
	for i := range clientCallID {
		clientCallID[i] = reg(fmt.Sprintf("client-call/c%d", i), LayerRPC, "call")
		rec.Link(clientCallID[i], st.OpProbe)
		for p := 0; p < Peers; p++ {
			rec.Link(srvID[p], clientCallID[i])
		}
	}

	// The block machine: BlockShards mirrored pairs of segment logs
	// behind one TCP listener, one service port each (afs-block -shards
	// -pair -store=seg).
	blockTCP, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { blockTCP.Close() })
	var blockPort [BlockShards]capability.Port
	for s := 0; s < BlockShards; s++ {
		var halves [2]block.PairStore
		for h, sub := range []string{"half-a", "half-b"} {
			d := filepath.Join(dir, "blk", fmt.Sprintf("shard-%02d", s), sub)
			seg, err := segstore.Open(d, segOptions())
			if err != nil {
				return nil, err
			}
			st.Segs = append(st.Segs, seg)
			st.SegDirs = append(st.SegDirs, d)
			st.closers = append(st.closers, func() { seg.Close() })
			halves[h] = ProbeStore(rec, segID[s][h], seg)
		}
		pair := stable.NewFailoverPair(halves[0], halves[1])
		st.Pairs = append(st.Pairs, pair)
		blockPort[s] = capability.NewPort().Public()
		blockTCP.Register(blockPort[s],
			ProbeHandler(rec, serveID[s], block.Serve(ProbeStore(rec, pairID[s], pair)), block.CmdName))
	}

	// The file-server peers (afs-server -id=p -peers=... -blocks=...).
	res := rpc.NewResolver() // file-service and file-table ports of every peer
	for p := 0; p < Peers; p++ {
		tcp, err := rpc.NewTCPServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { tcp.Close() })
		legs := make([]block.Store, BlockShards)
		for s := 0; s < BlockShards; s++ {
			bres := rpc.NewResolver()
			bres.Set(blockPort[s], blockTCP.Addr())
			bcli := rpc.NewTCPClient(bres)
			st.closers = append(st.closers, bcli.Close)
			remote, err := block.Dial(ProbeTransactor(rec, callID[p][s], bcli, block.CmdName), blockPort[s])
			if err != nil {
				return nil, fmt.Errorf("mount shard %d: %w", s, err)
			}
			legs[s] = ProbeStore(rec, proxyID[p][s], remote)
		}
		sharded, err := shard.New(legs...)
		if err != nil {
			return nil, err
		}

		sh := server.NewShared(ProbeStore(rec, topID[p], sharded), 1)
		sh.SetID(uint32(p))
		var srv *server.Server
		rep := ftab.NewReplicated(ftab.Options{
			ID:        uint32(p),
			Local:     sh.Table.(*file.Table),
			Store:     version.NewStore(ProbeStore(rec, tableTopID[p], sharded), sh.Acct),
			Ident:     sh.Fact,
			PortAlive: sh.Ports.Alive,
			Live:      func() []block.Num { return srv.LiveVersions() },
		})
		sh.Table = ProbeTable(rec, tableID[p], rep)
		st.Tables = append(st.Tables, rep)
		st.closers = append(st.closers, func() { rep.Close(2 * time.Second) })
		res.Set(ftab.PortFor(uint32(p)), tcp.Addr())
		tcp.Register(ftab.PortFor(uint32(p)), ProbeHandler(rec, applyID[p], rep.Handler(), ftabCmdName))
		// One file server per peer (-servers=1), probing lock holders
		// across the mesh.
		srv = server.New(sh, func(port capability.Port) bool {
			return sh.Ports.Alive(port) || rep.PortAlive(port)
		})
		st.Servers = append(st.Servers, srv)
		tcp.Register(srv.Port(), ProbeHandler(rec, srvID[p], srv.Handler(), server.CmdName))
		res.Set(srv.Port(), tcp.Addr())
		if p == 0 {
			// The collector, as afs-server builds it for the elected
			// sweeper (the lowest ID): its own version store over the
			// shared block store, the shared table, every server's open
			// versions pinned.
			st.GC = gc.New(version.NewStore(ProbeStore(rec, gcTopID, sharded), sh.Acct), sh.Table, Retain, st.liveVersions)
		}
	}
	// The mesh: each peer streams to every other over its own fail-fast
	// TCP client; then every peer joins.
	for p, rep := range st.Tables {
		for q := range st.Tables {
			if q == p {
				continue
			}
			cli := rpc.NewTCPClient(res)
			cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2})
			st.closers = append(st.closers, cli.Close)
			rep.AddPeer(uint32(q), ProbeTransactor(rec, pushID[p][q], cli, ftabCmdName))
		}
	}
	for _, rep := range st.Tables {
		rep.Bootstrap()
	}
	// The clients: one TCP connection each, client i homed on peer i
	// with the other peers as failover.
	for i := 0; i < Clients; i++ {
		cli := rpc.NewTCPClient(res)
		st.closers = append(st.closers, cli.Close)
		ports := make([]capability.Port, Peers)
		for k := range ports {
			ports[k] = st.Servers[(i+k)%Peers].Port()
		}
		st.Clients = append(st.Clients, client.New(ProbeTransactor(rec, clientCallID[i], cli, server.CmdName), ports...))
	}
	return st, nil
}

// liveVersions lists every server's open version roots, for the
// collector to pin.
func (st *Stack) liveVersions() []block.Num {
	var out []block.Num
	for _, s := range st.Servers {
		out = append(out, s.LiveVersions()...)
	}
	return out
}

// FlushTables drains every peer's push streams: afterwards each table
// mutation made so far has reached every peer. The traced driver calls
// it between operations so that the next operation's outcome does not
// depend on how far an asynchronous push had got.
func (st *Stack) FlushTables(timeout time.Duration) bool {
	ok := true
	for _, rep := range st.Tables {
		ok = rep.Flush(timeout) && ok
	}
	return ok
}

// Close stops the push streams, the listeners and the segment logs.
func (st *Stack) Close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}
