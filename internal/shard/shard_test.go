package shard_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func memBackend(capacity, blockSize int) *block.Server {
	return block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize}))
}

// TestPlacement checks the documented placement function: every global
// number round-trips through Locate, and distinct globals from the
// same shard have distinct locals.
func TestPlacement(t *testing.T) {
	backends := []block.Store{memBackend(100, 64), memBackend(100, 64), memBackend(100, 64)}
	s, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[block.Num]bool)
	for i := 0; i < 60; i++ {
		n, err := s.Alloc(1, []byte(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		if n == block.NilNum {
			t.Fatal("allocated the nil block")
		}
		if seen[n] {
			t.Fatalf("global block %d allocated twice", n)
		}
		seen[n] = true
		sh, local := s.Locate(n)
		if want := int(n % 3); sh != want {
			t.Fatalf("Locate(%d) shard = %d, want %d", n, sh, want)
		}
		if want := n / 3; local != want {
			t.Fatalf("Locate(%d) local = %d, want %d", n, local, want)
		}
	}
}

// TestAllocSpreads checks that allocations stripe across shards instead
// of piling on one backend: after many single allocations every shard
// holds a meaningful share.
func TestAllocSpreads(t *testing.T) {
	const nShards, total = 4, 256
	backends := make([]block.Store, nShards)
	counts := make([]*block.Server, nShards)
	for i := range backends {
		srv := memBackend(total, 64)
		backends[i], counts[i] = srv, srv
	}
	s, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := s.Alloc(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i, srv := range counts {
		if got := srv.InUse(); got < total/nShards/2 {
			t.Fatalf("shard %d holds %d of %d blocks: allocation is not spreading", i, got, total)
		}
	}
}

// TestAllocMultiStripes checks a batched allocation lands on more than
// one shard (the shadow-chain striping the facade exists for).
func TestAllocMultiStripes(t *testing.T) {
	const nShards = 4
	backends := make([]block.Store, nShards)
	counts := make([]*block.Server, nShards)
	for i := range backends {
		srv := memBackend(256, 64)
		backends[i], counts[i] = srv, srv
	}
	s, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprint(i))
	}
	ns, err := s.AllocMulti(1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != len(payloads) {
		t.Fatalf("got %d blocks for %d payloads", len(ns), len(payloads))
	}
	used := 0
	for _, srv := range counts {
		if srv.InUse() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("64-block batch landed on %d shard(s), want ≥ 2", used)
	}
	// Round trip through caller order.
	datas, err := s.ReadMulti(1, ns)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range datas {
		if string(d[:len(payloads[i])]) != string(payloads[i]) {
			t.Fatalf("block %d holds %q, want %q", i, d[:8], payloads[i])
		}
	}
}

// TestRecoverMergesShards checks the fanned-out §4 recovery scan
// returns every global number, sorted.
func TestRecoverMergesShards(t *testing.T) {
	s, err := shard.New(memBackend(32, 64), memBackend(32, 64))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[block.Num]bool)
	for i := 0; i < 20; i++ {
		n, err := s.Alloc(1, []byte("r"))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = true
	}
	if _, err := s.Alloc(2, []byte("other")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recover found %d blocks, want %d", len(got), len(want))
	}
	for i, n := range got {
		if !want[n] {
			t.Fatalf("recover returned foreign block %d", n)
		}
		if i > 0 && got[i-1] >= n {
			t.Fatalf("recover output unsorted at %d", i)
		}
	}
}

// TestShardStatsAggregate checks per-shard counters surface through
// ShardStats and sum through BlockStats/Usage.
func TestShardStatsAggregate(t *testing.T) {
	s, err := shard.New(memBackend(32, 64), memBackend(32, 64))
	if err != nil {
		t.Fatal(err)
	}
	var ns []block.Num
	for i := 0; i < 10; i++ {
		n, err := s.Alloc(1, []byte("s"))
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	if _, err := s.ReadMulti(1, ns); err != nil {
		t.Fatal(err)
	}
	per := s.ShardStats()
	if len(per) != 2 {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	var allocs, reads uint64
	for _, st := range per {
		allocs += st.Stats.Allocs
		reads += st.Stats.Reads
	}
	if allocs != 10 || reads != 10 {
		t.Fatalf("per-shard sums: allocs %d reads %d, want 10/10", allocs, reads)
	}
	agg, err := s.BlockStats()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Allocs != 10 || agg.Reads != 10 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
	u, err := s.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.Capacity != 64 || u.InUse != 10 {
		t.Fatalf("aggregate usage: %+v", u)
	}
}

// tcpShardCluster stands up nShards block servers, each behind its own
// TCP listener (one "machine" per shard), and a facade mounting them.
type tcpShardCluster struct {
	stores  []*block.Server
	servers []*rpc.TCPServer
	facade  *shard.Store
}

func newTCPShardCluster(t *testing.T, nShards, capacity, blockSize int) *tcpShardCluster {
	t.Helper()
	c := &tcpShardCluster{}
	backends := make([]block.Store, nShards)
	for i := 0; i < nShards; i++ {
		srv := memBackend(capacity, blockSize)
		tcp, err := rpc.NewTCPServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		port := capability.NewPort().Public()
		tcp.Register(port, block.Serve(srv))
		res := rpc.NewResolver()
		res.Set(port, tcp.Addr())
		cli := rpc.NewTCPClient(res)
		t.Cleanup(cli.Close)
		// Fail fast when a shard is down: the test kills servers for
		// real, so long backoff only slows the suite.
		cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2, Backoff: 1e6, MaxBackoff: 2e6})
		remote, err := block.Dial(cli, port)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = remote
		c.stores = append(c.stores, srv)
		c.servers = append(c.servers, tcp)
	}
	facade, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	c.facade = facade
	return c
}

// TestDownShardPartialFailure is the multi-op partial-failure story
// when one shard's server is down: operations on live shards keep
// working, multi-ops spanning the dead shard fail with the transport
// error attributed to the lowest-indexed block routed there — while
// their live-shard blocks are still served.
func TestDownShardPartialFailure(t *testing.T) {
	c := newTCPShardCluster(t, 3, 1024, 256)
	s := c.facade

	payloads := make([][]byte, 30)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("page-%02d", i))
	}
	ns, err := s.AllocMulti(1, payloads)
	if err != nil {
		t.Fatal(err)
	}

	// Kill shard 1's "machine".
	deadShard := 1
	c.servers[deadShard].Close()

	// Single ops: blocks on live shards unaffected, dead shard fails
	// with the transport's dead-port error.
	var liveBlock, deadBlock block.Num
	liveBlock, deadBlock = block.NilNum, block.NilNum
	for _, n := range ns {
		sh, _ := s.Locate(n)
		if sh == deadShard && deadBlock == block.NilNum {
			deadBlock = n
		}
		if sh != deadShard && liveBlock == block.NilNum {
			liveBlock = n
		}
	}
	if liveBlock == block.NilNum || deadBlock == block.NilNum {
		t.Fatalf("30-block batch did not span shard %d and a live shard", deadShard)
	}
	if _, err := s.Read(1, liveBlock); err != nil {
		t.Fatalf("live-shard read failed: %v", err)
	}
	if _, err := s.Read(1, deadBlock); !errors.Is(err, rpc.ErrDeadPort) {
		t.Fatalf("dead-shard read err = %v, want ErrDeadPort", err)
	}

	// ReadMulti spanning the dead shard: all-or-nothing failure, and
	// the reported index names a block routed to the dead shard.
	_, err = s.ReadMulti(1, ns)
	if !errors.Is(err, rpc.ErrDeadPort) {
		t.Fatalf("spanning read err = %v, want ErrDeadPort", err)
	}
	if idx := block.MultiIndex(err, -1); idx < 0 || func() bool { sh, _ := s.Locate(ns[idx]); return sh != deadShard }() {
		t.Fatalf("spanning read attributed to index %d, not a dead-shard block", block.MultiIndex(err, -1))
	}

	// WriteMulti: dead-shard entries fail, live-shard entries are
	// written regardless (per-block independence across shards).
	newData := make([][]byte, len(ns))
	for i := range newData {
		newData[i] = []byte(fmt.Sprintf("new-%02d", i))
	}
	err = s.WriteMulti(1, ns, newData)
	if !errors.Is(err, rpc.ErrDeadPort) {
		t.Fatalf("spanning write err = %v, want ErrDeadPort", err)
	}
	for i, n := range ns {
		if sh, _ := s.Locate(n); sh == deadShard {
			continue
		}
		got, err := s.Read(1, n)
		if err != nil {
			t.Fatalf("block %d unreadable after partial write: %v", n, err)
		}
		if string(got[:6]) != string(newData[i][:6]) {
			t.Fatalf("live block %d = %q, want %q: write did not survive dead sibling", n, got[:6], newData[i][:6])
		}
	}

	// Allocation routes around the dead shard entirely.
	fresh, err := s.AllocMulti(1, payloads[:8])
	if err != nil {
		t.Fatalf("alloc with a dead shard: %v", err)
	}
	for _, n := range fresh {
		if sh, _ := s.Locate(n); sh == deadShard {
			t.Fatalf("allocation landed on dead shard %d", sh)
		}
	}

	// FreeMulti: live-shard blocks freed despite the dead sibling.
	err = s.FreeMulti(1, ns)
	if !errors.Is(err, rpc.ErrDeadPort) {
		t.Fatalf("spanning free err = %v, want ErrDeadPort", err)
	}
	for _, n := range ns {
		if sh, _ := s.Locate(n); sh == deadShard {
			continue
		}
		if _, err := s.Read(1, n); !errors.Is(err, block.ErrNotAllocated) {
			t.Fatalf("live block %d survived the free: %v", n, err)
		}
	}
}

// TestShardStatsOverTCP checks per-shard counters are readable through
// the wire proxy (cmdStats/cmdUsage), which is what lets experiments
// see each block server's operation counts in a real deployment.
func TestShardStatsOverTCP(t *testing.T) {
	c := newTCPShardCluster(t, 2, 128, 128)
	s := c.facade
	var ns []block.Num
	for i := 0; i < 12; i++ {
		n, err := s.Alloc(1, []byte("t"))
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	if _, err := s.ReadMulti(1, ns); err != nil {
		t.Fatal(err)
	}
	var allocs, reads uint64
	var capacity int
	for _, st := range s.ShardStats() {
		allocs += st.Stats.Allocs
		reads += st.Stats.Reads
		capacity += st.Usage.Capacity
	}
	if allocs != 12 || reads != 12 {
		t.Fatalf("over-the-wire per-shard sums: allocs %d reads %d, want 12/12", allocs, reads)
	}
	if capacity != 256 {
		t.Fatalf("over-the-wire capacity sum = %d, want 256", capacity)
	}
}

// TestPlacementRepeatable pins the seeded tie-break: two identically
// built facades over equal-capacity backends (so power-of-two-choices
// ties constantly and the sample source decides) replaying the same
// single-goroutine allocation script place every block identically.
// With the process-global generator the two runs diverge within a few
// allocations.
func TestPlacementRepeatable(t *testing.T) {
	run := func() []block.Num {
		backends := make([]block.Store, 5)
		for i := range backends {
			backends[i] = memBackend(512, 64)
		}
		s, err := shard.New(backends...)
		if err != nil {
			t.Fatal(err)
		}
		var placed []block.Num
		freed := 0
		for i := 0; i < 200; i++ {
			switch {
			case i%7 == 3:
				ns, err := s.AllocMulti(1, [][]byte{{byte(i)}, {byte(i), 1}, {byte(i), 2}})
				if err != nil {
					t.Fatal(err)
				}
				placed = append(placed, ns...)
			case i%11 == 5:
				// Frees move the estimates, so later picks depend on
				// exactly which blocks went where.
				if err := s.Free(1, placed[freed]); err != nil {
					t.Fatal(err)
				}
				freed++
			default:
				n, err := s.Alloc(1, []byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				placed = append(placed, n)
			}
		}
		return placed
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation %d placed at block %d in one run and %d in the other", i, a[i], b[i])
		}
	}
}
