package shard_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/disk"
	"repro/internal/segstore"
	"repro/internal/shard"
)

// The sharded facade must be indistinguishable, through block.Store,
// from a single store of the same total capacity. These tests run the
// shared contract harness (internal/blocktest) with an in-memory
// block.Server as the reference and a shard.Store over mixed mem/seg
// backends as the device under test.

// newShardPair builds a reference mem server of the given total
// capacity and a shard.Store over nShards backends whose capacities sum
// to the same total. Backends alternate between the in-memory server
// and segstore, so every contract script crosses backend kinds.
func newShardPair(t *testing.T, nShards, capacity, blockSize int) (*block.Server, *shard.Store) {
	t.Helper()
	ref := block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize}))
	backends := make([]block.Store, nShards)
	left := capacity
	for i := range backends {
		per := left / (nShards - i)
		left -= per
		if i%2 == 0 {
			backends[i] = block.NewServer(disk.MustNew(disk.Geometry{Blocks: per + 1, BlockSize: blockSize}))
		} else {
			seg, err := segstore.Open(t.TempDir(), segstore.Options{
				BlockSize: blockSize, Capacity: per, SegmentRecords: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			backends[i] = seg
		}
	}
	dut, err := shard.New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	return ref, dut
}

func TestShardContractTable(t *testing.T) {
	wantErr := func(sentinel error) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			t.Helper()
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want %v", err, sentinel)
			}
		}
	}
	for _, nShards := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			ref, dut := newShardPair(t, nShards, 64, 128)
			blocktest.RunScript(t, ref, dut, []blocktest.Op{
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
				{Op: "writemulti", Acct: 1, N: 0, Data: "wm"},
				{Op: "readmulti", Acct: 1, N: 0},
				{Op: "allocmulti", Acct: 1, Data: "am"},
				{Op: "freemulti", Acct: 1, N: 2},
				{Op: "recover", Acct: 1},
				{Op: "recover", Acct: 2},
				{Op: "recover", Acct: 3},
			})
		})
	}
}

func TestShardContractExhaustion(t *testing.T) {
	for _, nShards := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			ref, dut := newShardPair(t, nShards, 6, 64)
			var ops []blocktest.Op
			for i := 0; i < 6; i++ {
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
			blocktest.RunScript(t, ref, dut, ops)
		})
	}
}

// TestShardContractMultiOps runs the multi-op partial-failure suite
// against the facade at 2 and 3 shards over mixed backends.
func TestShardContractMultiOps(t *testing.T) {
	for _, nShards := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			_, dut := newShardPair(t, nShards, 16, 64)
			blocktest.MultiOpSuite(t, fmt.Sprintf("shard-%d", nShards), dut, 16)
		})
	}
}

// TestShardContractScalars checks the single data path through the
// facade: a scalar call is the fan-out operation at length one — same
// data, sentinel and counter movement — on the facade and on its
// trace-bound view, whose legs are span wrappers around the backends.
// The backends are all in-memory here: which shard an allocation lands
// on is the facade's choice, and over mixed backends that choice alone
// would move the fsync counter differently.
func TestShardContractScalars(t *testing.T) {
	for _, nShards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			build := func() *shard.Store {
				backends := make([]block.Store, nShards)
				for i := range backends {
					backends[i] = memBackend(8, 64)
				}
				dut, err := shard.New(backends...)
				if err != nil {
					t.Fatal(err)
				}
				return dut
			}
			blocktest.ScalarSuite(t, "shard", build(), blocktest.ScalarOpts{Capacity: 8 * nShards})
			dut := build()
			blocktest.ScalarSuite(t, "shard-traced", blocktest.TraceBound(t, dut),
				blocktest.ScalarOpts{Capacity: 8 * nShards, Stats: dut})
		})
	}
}

// FuzzShardContract feeds random operation scripts to the reference
// store and the mixed-backend facade in lockstep.
func FuzzShardContract(f *testing.F) {
	for _, seed := range blocktest.FuzzSeeds() {
		f.Add(2, seed)
		f.Add(3, seed)
	}
	f.Fuzz(func(t *testing.T, nShards int, script []byte) {
		if nShards < 1 || nShards > 4 {
			nShards = 1 + (nShards&0x7fffffff)%4
		}
		ref, dut := newShardPair(t, nShards, 16, 64)
		blocktest.RunScript(t, ref, dut, blocktest.ScriptOps(script))
	})
}
