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

// TestClaimMultiOnOldServer: a server that predates cmdClaimMulti
// answers it with StatusBadCommand, and the proxy falls back to the
// per-number path — one cmdClaim per number and one write — with the
// same contract.
func TestClaimMultiOnOldServer(t *testing.T) {
	srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 65, BlockSize: 256}))
	serve := block.Serve(srv)
	old := func(req *rpc.Message) *rpc.Message {
		if block.CmdName(req.Command) == "claimMulti" {
			return req.Errorf(rpc.StatusBadCommand, "block: command %#x", req.Command)
		}
		return serve(req)
	}
	net := rpc.NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("blk", port, old); err != nil {
		t.Fatal(err)
	}
	rec := &commandCounter{Transactor: net, seen: map[string]int{}}
	remote, err := block.Dial(rec, port)
	if err != nil {
		t.Fatal(err)
	}
	blocktest.ClaimSuite(t, "old-server", remote, blocktest.ClaimOpts{Capacity: 64})

	rec.seen = map[string]int{}
	ns := []block.Num{40, 41, 42}
	if err := block.ClaimMulti(remote, 1, ns, [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if rec.seen["claimMulti"] != 1 || rec.seen["claim"] != len(ns) || rec.seen["writeMulti"] != 1 {
		t.Fatalf("commands on an old server: %v; want 1 claimMulti, %d claim, 1 writeMulti", rec.seen, len(ns))
	}
	if got, err := srv.Read(1, 41); err != nil || got[0] != 'b' {
		t.Fatalf("block 41 after the fallback: %q, %v", got[:1], err)
	}
}
