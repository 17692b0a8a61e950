package segstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/disk"
)

// The contract tests drive the in-memory block.Server and segstore
// through identical operation sequences via the shared harness
// (internal/blocktest) and require identical outcomes. Whatever the
// file service layers can observe through block.Store must not
// distinguish the backends. Every suite runs at each lane count in
// blocktest.ShardCounts(): the log striping must be invisible through
// the block.Store interface.

// newPair builds both backends with the same capacity and block size,
// the segstore striped over the given number of log lanes.
func newPair(t *testing.T, capacity, blockSize, shards int) (*block.Server, *Store) {
	t.Helper()
	mem := block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize}))
	seg, err := Open(t.TempDir(), Options{BlockSize: blockSize, Capacity: capacity, SegmentRecords: 16, LogShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return mem, seg
}

// forEachShardCount runs f as a subtest at every contract lane count.
func forEachShardCount(t *testing.T, f func(t *testing.T, shards int)) {
	for _, k := range blocktest.ShardCounts() {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) { f(t, k) })
	}
}

func TestContractTable(t *testing.T) {
	wantErr := func(sentinel error) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			t.Helper()
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want %v", err, sentinel)
			}
		}
	}
	forEachShardCount(t, func(t *testing.T, shards int) {
		mem, seg := newPair(t, 64, 128, shards)
		blocktest.RunScript(t, mem, seg, []blocktest.Op{
			{Op: "alloc", Acct: 1, Data: "alpha"},
			{Op: "alloc", Acct: 1, Data: "beta"},
			{Op: "alloc", Acct: 2, Data: "gamma"},
			{Op: "read", Acct: 1, N: 0},
			{Op: "read", Acct: 2, N: 0, Check: wantErr(block.ErrNotOwner)},
			{Op: "read", Acct: 1, N: -1, Check: wantErr(block.ErrNotAllocated)},
			{Op: "write", Acct: 1, N: 0, Data: "alpha-2"},
			{Op: "read", Acct: 1, N: 0},
			{Op: "lock", Acct: 1, N: 1},
			{Op: "lock", Acct: 1, N: 1, Check: wantErr(block.ErrLocked)},
			{Op: "lock", Acct: 2, N: 1, Check: wantErr(block.ErrNotOwner)},
			{Op: "unlock", Acct: 1, N: 1},
			{Op: "unlock", Acct: 1, N: 1, Check: wantErr(block.ErrNotLocked)},
			{Op: "free", Acct: 2, N: 1, Check: wantErr(block.ErrNotOwner)},
			{Op: "free", Acct: 1, N: 1},
			{Op: "read", Acct: 1, N: 1, Check: wantErr(block.ErrNotAllocated)},
			{Op: "write", Acct: 1, N: 1, Data: "x", Check: wantErr(block.ErrNotAllocated)},
			{Op: "recover", Acct: 1},
			{Op: "recover", Acct: 2},
			{Op: "recover", Acct: 3},
			{Op: "alloc", Acct: 3, Data: "delta"},
			{Op: "recover", Acct: 3},
		})
	})
}

func TestContractExhaustion(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		mem, seg := newPair(t, 4, 64, shards)
		var ops []blocktest.Op
		for i := 0; i < 4; i++ {
			ops = append(ops, blocktest.Op{Op: "alloc", Acct: 1, Data: fmt.Sprint(i)})
		}
		ops = append(ops,
			blocktest.Op{Op: "alloc", Acct: 1, Data: "over", Check: func(t *testing.T, err error) {
				t.Helper()
				if !errors.Is(err, block.ErrNoSpace) {
					t.Fatalf("err = %v, want ErrNoSpace", err)
				}
			}},
			blocktest.Op{Op: "free", Acct: 1, N: 2},
			blocktest.Op{Op: "alloc", Acct: 1, Data: "reuse"},
			blocktest.Op{Op: "recover", Acct: 1},
		)
		blocktest.RunScript(t, mem, seg, ops)
	})
}

// TestContractMultiOps drives the four multi-block operations through
// both backends, including the partial-failure semantics of the
// MultiStore contract. At multi-lane counts the batches straddle lanes,
// so the per-lane group split and reassembly is under test too.
func TestContractMultiOps(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		mem, seg := newPair(t, 16, 64, shards)
		blocktest.MultiOpSuite(t, "mem", mem, 16)
		blocktest.MultiOpSuite(t, "seg", seg, 16)

		// The recovery scans of the two backends must agree exactly.
		for _, acct := range []block.Account{1, 2} {
			mr, _ := mem.Recover(acct)
			sr, _ := seg.Recover(acct)
			if len(mr) != len(sr) {
				t.Fatalf("recover(%d): mem %d blocks, seg %d blocks", acct, len(mr), len(sr))
			}
		}
	})
}

// damageRecord returns a hook that flips a payload byte of block n's
// live record on disk, behind the store's back.
func damageRecord(t *testing.T, s *Store) func(n block.Num) {
	return func(n block.Num) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		l := s.idx.entries[n].loc
		if _, err := s.lanes[l.lane].segs[l.seg].f.WriteAt([]byte{0xFF}, l.off+headerSize+2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContractScalars checks the single data path at every lane count:
// a scalar call is the vectored operation at length one — same data,
// sentinel and counter movement, on the store and on its trace-bound
// view (the leaf span wrapper tracing binds requests to).
func TestContractScalars(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		_, seg := newPair(t, 16, 64, shards)
		blocktest.ScalarSuite(t, "seg", seg, blocktest.ScalarOpts{Capacity: 16, Corrupt: damageRecord(t, seg)})
		_, seg = newPair(t, 16, 64, shards)
		blocktest.ScalarSuite(t, "seg-traced", blocktest.TraceBound(t, seg),
			blocktest.ScalarOpts{Capacity: 16, Stats: seg, Corrupt: damageRecord(t, seg)})
	})
}

// TestContractClaimMulti runs the claim suite at every lane count, on
// the store and on its trace-bound view. A 65-block claim must cost at
// most one fsync per lane either way: the bound view forwards ClaimMulti
// to the native one-group path instead of claiming number by number.
func TestContractClaimMulti(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		for _, bound := range []bool{false, true} {
			seg, err := Open(t.TempDir(), Options{BlockSize: 256, Capacity: 128, SegmentRecords: 1024, LogShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			var st block.Store = seg
			if bound {
				st = blocktest.TraceBound(t, seg)
			}
			blocktest.ClaimSuite(t, fmt.Sprintf("seg/bound=%v", bound), st, blocktest.ClaimOpts{
				Capacity: 128, Big: 65,
				Syncs:    func() uint64 { return seg.Stats().Syncs },
				MaxSyncs: uint64(seg.Lanes()),
			})
		}
	})
}

// FuzzContract feeds random operation scripts to both backends, at
// every contract lane count. The seed corpus runs under plain
// `go test`; `go test -fuzz=FuzzContract` explores further.
func FuzzContract(f *testing.F) {
	for _, seed := range blocktest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, shards := range blocktest.ShardCounts() {
			mem, seg := newPair(t, 16, 64, shards)
			blocktest.RunScript(t, mem, seg, blocktest.ScriptOps(script))
		}
	})
}
