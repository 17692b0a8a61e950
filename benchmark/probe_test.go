package main

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/shard"
	"repro/internal/stable"
)

// countingStore is the bottom of the equivalence stacks: an in-memory
// block server that counts the calls and blocks it receives, per
// method. Embedding keeps block.Server's full surface.
type countingStore struct {
	*block.Server
	mu    sync.Mutex
	calls map[string][2]int // method -> {calls, blocks}
}

func newCounting(blocks int) *countingStore {
	d := disk.MustNew(disk.Geometry{Blocks: blocks, BlockSize: 512})
	return &countingStore{Server: block.NewServer(d), calls: map[string][2]int{}}
}

func (c *countingStore) hit(method string, blocks int) {
	c.mu.Lock()
	v := c.calls[method]
	c.calls[method] = [2]int{v[0] + 1, v[1] + blocks}
	c.mu.Unlock()
}

func (c *countingStore) Alloc(a block.Account, d []byte) (block.Num, error) {
	c.hit("alloc", 1)
	return c.Server.Alloc(a, d)
}
func (c *countingStore) Free(a block.Account, n block.Num) error {
	c.hit("free", 1)
	return c.Server.Free(a, n)
}
func (c *countingStore) Read(a block.Account, n block.Num) ([]byte, error) {
	c.hit("read", 1)
	return c.Server.Read(a, n)
}
func (c *countingStore) Write(a block.Account, n block.Num, d []byte) error {
	c.hit("write", 1)
	return c.Server.Write(a, n, d)
}
func (c *countingStore) Claim(a block.Account, n block.Num) error {
	c.hit("claim", 1)
	return c.Server.Claim(a, n)
}
func (c *countingStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	c.hit("readMulti", len(ns))
	return c.Server.ReadMulti(a, ns)
}
func (c *countingStore) WriteMulti(a block.Account, ns []block.Num, d [][]byte) error {
	c.hit("writeMulti", len(ns))
	return c.Server.WriteMulti(a, ns, d)
}
func (c *countingStore) AllocMulti(a block.Account, d [][]byte) ([]block.Num, error) {
	c.hit("allocMulti", len(d))
	return c.Server.AllocMulti(a, d)
}
func (c *countingStore) FreeMulti(a block.Account, ns []block.Num) error {
	c.hit("freeMulti", len(ns))
	return c.Server.FreeMulti(a, ns)
}

// storeOnly hides everything but the eight block.Store methods: the
// wrapper the full-surface probe must not be.
type storeOnly struct{ block.Store }

// wrapper decorates one boundary of an equivalence stack.
type wrapper func(name string, inner block.Store) block.Store

// buildStack assembles shard -> 2 x mirrored pair -> 2 x counting store,
// wrapping every boundary with wrap, and returns the top and the leaves.
// The shards differ in capacity so that allocation placement (power of
// two choices over the free estimates) never ties and never consults
// the random source.
func buildStack(t *testing.T, wrap wrapper) (block.Store, []*countingStore) {
	t.Helper()
	var leaves []*countingStore
	var backends []block.Store
	for s, capacity := range []int{1 << 9, 1 << 12} {
		var halves [2]block.PairStore
		for h := range halves {
			leaf := newCounting(capacity)
			leaves = append(leaves, leaf)
			halves[h] = wrap(fmt.Sprintf("seg/s%d/%d", s, h), leaf).(block.PairStore)
		}
		backends = append(backends, wrap(fmt.Sprintf("pair/s%d", s), stable.NewFailoverPair(halves[0], halves[1])))
	}
	sharded, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	return wrap("shard", sharded), leaves
}

// script is the fixed operation sequence both stacks replay. Claimed
// numbers pin blocks to a shard (global n lives on shard n%2), so the
// vectored calls below have a known fan-out.
func script(t *testing.T, top block.Store, optional bool) {
	t.Helper()
	const acct = block.Account(1)
	ms := top.(block.MultiStore)
	page := func(b byte) []byte { return []byte{b, b, b} }
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var mine []block.Num
	for n := block.Num(10); n < 18; n++ {
		check(top.(block.Claimer).Claim(acct, n))
		mine = append(mine, n)
	}
	data := make([][]byte, len(mine))
	for i := range data {
		data[i] = page(byte(i))
	}
	check(ms.WriteMulti(acct, mine, data))
	got, err := ms.ReadMulti(acct, mine)
	check(err)
	for i := range got {
		if got[i][0] != byte(i) {
			t.Fatalf("block %d read back %v", mine[i], got[i][:3])
		}
	}
	for _, n := range mine[:3] {
		check(top.Write(acct, n, page(9)))
		_, err := top.Read(acct, n)
		check(err)
		check(top.Lock(acct, n))
		check(top.Unlock(acct, n))
	}
	one, err := top.Alloc(acct, page(1))
	check(err)
	many, err := ms.AllocMulti(acct, [][]byte{page(2), page(3), page(4), page(5), page(6)})
	check(err)
	_, err = ms.ReadMulti(acct, many)
	check(err)
	check(ms.FreeMulti(acct, append(many, mine[4:]...)))
	check(top.Free(acct, one))
	if _, err := top.Recover(acct); err != nil {
		t.Fatal(err)
	}
	if !optional {
		return
	}
	if _, err := top.(block.UsageReporter).Usage(); err != nil {
		t.Fatal(err)
	}
	if _, err := top.(block.StatsReporter).BlockStats(); err != nil {
		t.Fatal(err)
	}
	if err := top.(block.EpochStore).SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if e, err := top.(block.EpochStore).Epoch(); err != nil || e != 3 {
		t.Fatalf("epoch %d, %v", e, err)
	}
	top.(block.PairStore).ClearLocks()
}

func leafCounts(leaves []*countingStore) []map[string][2]int {
	out := make([]map[string][2]int, len(leaves))
	for i, l := range leaves {
		out[i] = l.calls
	}
	return out
}

// A probed stack must hand every backend exactly the calls and blocks
// the unprobed stack does; a wrapper that forwards only block.Store does
// not, which is what the probe's full surface is for.
func TestProbeEquivalence(t *testing.T) {
	plain, plainLeaves := buildStack(t, func(_ string, s block.Store) block.Store { return s })
	script(t, plain, true)

	rec := NewRecorder()
	rec.Enable(true)
	probed, probedLeaves := buildStack(t, func(name string, s block.Store) block.Store {
		return ProbeStore(rec, rec.Register(name, "test", "store"), s)
	})
	script(t, probed, true)

	want, got := leafCounts(plainLeaves), leafCounts(probedLeaves)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("probed stack reached the backends differently:\nplain  %v\nprobed %v", want, got)
	}
	if len(rec.Spans()) == 0 {
		t.Error("the probes recorded nothing")
	}
	var multi int
	for _, l := range plainLeaves {
		multi += l.calls["writeMulti"][0]
	}
	if multi == 0 {
		t.Fatal("the script never reached a backend with a vectored write: it proves nothing")
	}

	// The same stack with Store-only wrappers above the backends
	// degrades to per-block loops: the counts must differ, or this test
	// could not notice a wrapper that drops the vectored surface.
	lossy, lossyLeaves := buildStack(t, func(name string, s block.Store) block.Store {
		if ps, ok := s.(block.PairStore); ok && name[:3] == "seg" {
			return struct {
				storeOnly
				pairOps
			}{storeOnly{s}, pairOps{ps}}
		}
		return s
	})
	script(t, lossy, false)
	if reflect.DeepEqual(want, leafCounts(lossyLeaves)) {
		t.Error("a Store-only wrapper produced the same backend counts: the equivalence check is blind")
	}
}

// pairOps adds back just what stable.NewFailoverPair demands of a half.
type pairOps struct{ ps block.PairStore }

func (p pairOps) Claim(a block.Account, n block.Num) error { return p.ps.Claim(a, n) }
func (p pairOps) ClearLocks()                              { p.ps.ClearLocks() }
