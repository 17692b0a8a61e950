package block_test

import (
	"testing"

	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// TestScalarsAreVectorsOfOne runs the scalar suite over the stores this
// package provides: the in-memory reference itself, the leaf span
// wrapper, and the RPC proxy — unbound and bound to a trace, which
// sends the context to a server that answers from its own bound view.
func TestScalarsAreVectorsOfOne(t *testing.T) {
	newServer := func() *block.Server {
		return block.NewServer(disk.MustNew(disk.Geometry{Blocks: 17, BlockSize: 64}))
	}
	opts := func(srv *block.Server) blocktest.ScalarOpts {
		return blocktest.ScalarOpts{Capacity: 16, Stats: srv, Corrupt: func(n block.Num) {
			if err := srv.Disk().InjectCorruption(int(n)); err != nil {
				t.Fatal(err)
			}
		}}
	}
	dial := func(srv *block.Server) block.Store {
		net := rpc.NewNetwork()
		port := capability.NewPort().Public()
		if err := net.Register("blk", port, block.Serve(srv)); err != nil {
			t.Fatal(err)
		}
		remote, err := block.Dial(net, port)
		if err != nil {
			t.Fatal(err)
		}
		return remote
	}

	srv := newServer()
	blocktest.ScalarSuite(t, "mem", srv, opts(srv))

	srv = newServer()
	sp, ctx := trace.New(1, 0, 4).Start("test", "leaf")
	defer sp.End(nil)
	blocktest.ScalarSuite(t, "mem-traced", block.TracedLeaf(srv, ctx, "test", "leaf").(block.MultiStore), opts(srv))

	srv = newServer()
	blocktest.ScalarSuite(t, "remote", dial(srv).(block.MultiStore), opts(srv))

	srv = newServer()
	blocktest.ScalarSuite(t, "remote-traced", blocktest.TraceBound(t, dial(srv)), opts(srv))
}
