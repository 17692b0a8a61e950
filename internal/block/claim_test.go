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

// commandCounter counts the commands a proxy sends, by name.
type commandCounter struct {
	rpc.Transactor
	seen map[string]int
}

func (c *commandCounter) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	c.seen[block.CmdName(req.Command)]++
	return c.Transactor.Transact(port, req)
}

// TestClaimMultiContract runs the claim suite over the in-memory server,
// its leaf span wrapper, and the proxy over the in-proc network and over
// loopback TCP — with a vector of full blocks larger than one frame.
func TestClaimMultiContract(t *testing.T) {
	const blocks, size = 128, 1024
	big := 2*rpc.MaxData/size + 3 // spans three frames
	newServer := func() *block.Server {
		return block.NewServer(disk.MustNew(disk.Geometry{Blocks: blocks + 1, BlockSize: size}))
	}
	opts := blocktest.ClaimOpts{Capacity: blocks, Big: big}

	blocktest.ClaimSuite(t, "mem", newServer(), opts)

	sp, ctx := trace.New(1, 0, 4).Start("test", "leaf")
	defer sp.End(nil)
	blocktest.ClaimSuite(t, "mem-traced", block.TracedLeaf(newServer(), ctx, "test", "leaf"), opts)

	srv := newServer()
	net := rpc.NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("blk", port, block.Serve(srv)); err != nil {
		t.Fatal(err)
	}
	rec := &commandCounter{Transactor: net, seen: map[string]int{}}
	remote, err := block.Dial(rec, port)
	if err != nil {
		t.Fatal(err)
	}
	blocktest.ClaimSuite(t, "remote", remote, opts)
	if rec.seen["claim"] != 0 || rec.seen["claimMulti"] == 0 {
		t.Fatalf("proxy sent %d claim and %d claimMulti commands; want only claimMulti", rec.seen["claim"], rec.seen["claimMulti"])
	}
	blocktest.ClaimSuite(t, "remote-traced", blocktest.TraceBound(t, remote), opts)

	tcp, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tcp.Register(port, block.Serve(newServer()))
	res := rpc.NewResolver()
	res.Set(port, tcp.Addr())
	cli := rpc.NewTCPClient(res)
	defer cli.Close()
	overTCP, err := block.Dial(cli, port)
	if err != nil {
		t.Fatal(err)
	}
	blocktest.ClaimSuite(t, "remote-tcp", overTCP, opts)
}
