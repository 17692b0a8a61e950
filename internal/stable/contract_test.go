package stable_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/disk"
	"repro/internal/segstore"
	"repro/internal/stable"
)

// A mirrored pair must be indistinguishable, through block.Store, from
// a single store — availability is transparent (§4). These tests run
// the shared contract harness (internal/blocktest) with an in-memory
// block.Server as the reference and a stable.Pair over every mix of
// mem/seg backends as the device under test, including degraded pairs
// (one half crashed, one half's media corrupted) and both rejoin paths.

// pairDut is a pair under test plus the handles the harness needs for
// fault injection: the backends and (for mem halves) their disks.
type pairDut struct {
	pair   *stable.Pair
	stores [2]block.PairStore
	disks  [2]*disk.Disk // nil for seg halves
}

// newBackend builds one backend of the given kind and capacity.
func newBackend(t *testing.T, kind string, capacity, blockSize int) (block.PairStore, *disk.Disk) {
	t.Helper()
	switch kind {
	case "mem":
		d := disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize})
		return block.NewServer(d), d
	case "seg":
		seg, err := segstore.Open(t.TempDir(), segstore.Options{
			BlockSize: blockSize, Capacity: capacity, SegmentRecords: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
		return seg, nil
	default:
		t.Fatalf("unknown backend kind %q", kind)
		return nil, nil
	}
}

// newPairDut builds a reference mem server and a pair over the two
// given backend kinds, both with the same capacity.
func newPairDut(t *testing.T, kindA, kindB string, capacity, blockSize int) (*block.Server, *pairDut) {
	t.Helper()
	ref := block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize}))
	d := &pairDut{}
	d.stores[0], d.disks[0] = newBackend(t, kindA, capacity, blockSize)
	d.stores[1], d.disks[1] = newBackend(t, kindB, capacity, blockSize)
	d.pair = stable.NewFailoverPair(d.stores[0], d.stores[1])
	return ref, d
}

// mixes is every backend combination a pair composes from.
var mixes = [][2]string{{"mem", "mem"}, {"mem", "seg"}, {"seg", "seg"}}

// contractScript is the standard operation table the other backends'
// contract tests run.
func contractScript() []blocktest.Op {
	wantErr := func(sentinel error) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			t.Helper()
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want %v", err, sentinel)
			}
		}
	}
	return []blocktest.Op{
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
	}
}

func TestPairContractTable(t *testing.T) {
	for _, mix := range mixes {
		t.Run(mix[0]+"+"+mix[1], func(t *testing.T) {
			ref, dut := newPairDut(t, mix[0], mix[1], 64, 128)
			blocktest.RunScript(t, ref, dut.pair, contractScript())
			requireHalvesEqual(t, dut, []block.Account{1, 2, 3})
		})
	}
}

func TestPairContractMultiOps(t *testing.T) {
	for _, mix := range mixes {
		t.Run(mix[0]+"+"+mix[1], func(t *testing.T) {
			_, dut := newPairDut(t, mix[0], mix[1], 16, 64)
			blocktest.MultiOpSuite(t, "pair-"+mix[0]+"+"+mix[1], dut.pair, 16)
		})
	}
}

// TestPairContractScalars checks the single data path of the mirror: a
// scalar call runs the vectored companion protocol at length one — same
// data, sentinel and backend counter movement — through the failover
// front, its trace-bound view and each half directly, healthy and with
// one half down, including a staged companion collision and a damaged
// local copy.
func TestPairContractScalars(t *testing.T) {
	damage := func(d *disk.Disk) func(block.Num) {
		if d == nil {
			return nil // segstore half: its own contract test damages records
		}
		return func(n block.Num) {
			if err := d.InjectCorruption(int(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	collideAt := func(h *stable.Half) func(block.Num) func() {
		return func(n block.Num) func() {
			if !h.TryLatch(n) {
				t.Fatalf("block %d already latched", n)
			}
			return func() { h.Unlatch(n) }
		}
	}
	for _, mix := range mixes {
		for _, down := range []int{-1, 0, 1} {
			t.Run(fmt.Sprintf("%s+%s/down=%d", mix[0], mix[1], down), func(t *testing.T) {
				// build returns a fresh pair in the case's state, with the
				// options for driving it through half `via` (the front
				// serves through the first half that is up).
				build := func(via int) (*pairDut, [2]*stable.Half, blocktest.ScalarOpts) {
					_, dut := newPairDut(t, mix[0], mix[1], 16, 64)
					a, b := dut.pair.Halves()
					halves := [2]*stable.Half{a, b}
					o := blocktest.ScalarOpts{Capacity: 16, Corrupt: damage(dut.disks[via]),
						Stats: dut.stores[via].(block.StatsReporter)}
					if down >= 0 {
						halves[down].Crash()
					} else {
						o.Collide = collideAt(halves[1-via])
					}
					return dut, halves, o
				}
				primary := 0
				if down == 0 {
					primary = 1
				}
				dut, _, o := build(primary)
				blocktest.ScalarSuite(t, "pair", dut.pair, o)
				dut, _, o = build(primary)
				blocktest.ScalarSuite(t, "pair-traced", blocktest.TraceBound(t, dut.pair), o)
				for via := range 2 {
					if via == down {
						continue
					}
					_, halves, o := build(via)
					blocktest.ScalarSuite(t, "half-"+halves[via].Name(), halves[via], o)
				}
			})
		}
	}
}

// TestPairContractHalfCrashed runs the whole contract over a degraded
// pair — one half down, every mutation riding the intentions list —
// then rejoins the half and requires both backends to agree.
func TestPairContractHalfCrashed(t *testing.T) {
	for _, crash := range []int{0, 1} {
		t.Run(fmt.Sprintf("half%d", crash), func(t *testing.T) {
			ref, dut := newPairDut(t, "mem", "seg", 64, 128)
			a, b := dut.pair.Halves()
			halves := []*stable.Half{a, b}
			halves[crash].Crash()

			blocktest.RunScript(t, ref, dut.pair, contractScript())

			if err := halves[crash].Rejoin(); err != nil {
				t.Fatalf("rejoin: %v", err)
			}
			requireHalvesEqual(t, dut, []block.Account{1, 2, 3})
		})
	}
}

// TestPairContractCorruptHalf damages every allocated block on one
// half's medium and requires reads through the pair to stay correct
// (served from the companion) and to repair the bad copies.
func TestPairContractCorruptHalf(t *testing.T) {
	ref, dut := newPairDut(t, "mem", "seg", 64, 128)
	blocktest.RunScript(t, ref, dut.pair, contractScript())

	// Corrupt every block account 1 still owns on the mem half.
	ns, err := dut.pair.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		t.Fatal("script left no blocks to corrupt")
	}
	for _, n := range ns {
		if err := dut.disks[0].InjectCorruption(int(n)); err != nil {
			t.Fatal(err)
		}
	}

	// Reads through the pair still serve good data: each must match the
	// companion's (undamaged) copy.
	a, _ := dut.pair.Halves()
	for _, n := range ns {
		want, err := dut.stores[1].Read(1, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dut.pair.Read(1, n)
		if err != nil {
			t.Fatalf("read block %d with corrupt half: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: pair read disagrees with good copy", n)
		}
	}
	if s := a.Stats(); s.CorruptFallbacks != uint64(len(ns)) {
		t.Fatalf("CorruptFallbacks = %d, want %d", s.CorruptFallbacks, len(ns))
	}
	// ...and the damaged copies were repaired in place.
	for _, n := range ns {
		if _, err := dut.stores[0].Read(1, n); err != nil {
			t.Fatalf("block %d not repaired: %v", n, err)
		}
	}
	requireHalvesEqual(t, dut, []block.Account{1, 2, 3})
}

// TestPairCorruptReadMulti checks the batched read path falls back and
// repairs exactly like single reads.
func TestPairCorruptReadMulti(t *testing.T) {
	_, dut := newPairDut(t, "mem", "seg", 32, 64)
	ns, err := dut.pair.AllocMulti(1, [][]byte{[]byte("m0"), []byte("m1"), []byte("m2"), []byte("m3")})
	if err != nil {
		t.Fatal(err)
	}
	if err := dut.disks[0].InjectCorruption(int(ns[2])); err != nil {
		t.Fatal(err)
	}
	got, err := dut.pair.ReadMulti(1, ns)
	if err != nil {
		t.Fatalf("readmulti over corrupt half: %v", err)
	}
	for i, d := range got {
		want := fmt.Sprintf("m%d", i)
		if string(d[:2]) != want {
			t.Fatalf("entry %d = %q, want %q", i, d[:2], want)
		}
	}
	if _, err := dut.stores[0].Read(1, ns[2]); err != nil {
		t.Fatalf("corrupt block not repaired by batched read: %v", err)
	}
}

// TestPairFullCopyRejoin loses the survivor's intentions list (its
// machine crashes too) and requires the rejoining half to restore by
// full copy.
func TestPairFullCopyRejoin(t *testing.T) {
	for _, mix := range mixes {
		t.Run(mix[0]+"+"+mix[1], func(t *testing.T) {
			_, dut := newPairDut(t, mix[0], mix[1], 64, 128)
			a, b := dut.pair.Halves()

			seed, err := dut.pair.AllocMulti(1, [][]byte{[]byte("s0"), []byte("s1"), []byte("s2")})
			if err != nil {
				t.Fatal(err)
			}

			b.Crash()
			// Mutations B misses: a write, an alloc, a free.
			if err := a.Write(1, seed[0], []byte("S0")); err != nil {
				t.Fatal(err)
			}
			extra, err := a.Alloc(1, []byte("extra"))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Free(1, seed[2]); err != nil {
				t.Fatal(err)
			}

			// A's machine dies too: the intentions list is gone. A comes
			// back first (nothing to reconcile against), then B must
			// restore by full copy.
			a.Crash()
			if err := a.Rejoin(); err != nil {
				t.Fatal(err)
			}
			if err := b.Rejoin(); err != nil {
				t.Fatal(err)
			}

			if got := b.Stats().FullCopied; got == 0 {
				t.Fatal("rejoin did not use the full-copy path")
			}
			for _, c := range []struct {
				n    block.Num
				want string
			}{{seed[0], "S0"}, {seed[1], "s1"}, {extra, "extra"}} {
				got, err := dut.stores[1].Read(1, c.n)
				if err != nil {
					t.Fatalf("block %d after full copy: %v", c.n, err)
				}
				if string(got[:len(c.want)]) != c.want {
					t.Fatalf("block %d = %q, want %q", c.n, got[:len(c.want)], c.want)
				}
			}
			if _, err := dut.stores[1].Read(1, seed[2]); !errors.Is(err, block.ErrNotAllocated) {
				t.Fatalf("freed block survived full copy: %v", err)
			}
			requireHalvesEqual(t, dut, []block.Account{1})
		})
	}
}

// requireHalvesEqual compares the two backends directly: same block
// sets per account, same contents.
func requireHalvesEqual(t *testing.T, dut *pairDut, accounts []block.Account) {
	t.Helper()
	for _, acct := range accounts {
		nsA, err := dut.stores[0].Recover(acct)
		if err != nil {
			t.Fatal(err)
		}
		nsB, err := dut.stores[1].Recover(acct)
		if err != nil {
			t.Fatal(err)
		}
		if len(nsA) != len(nsB) {
			t.Fatalf("account %d: half A holds %d blocks, half B %d", acct, len(nsA), len(nsB))
		}
		for i := range nsA {
			if nsA[i] != nsB[i] {
				t.Fatalf("account %d: block sets differ at %d (%d vs %d)", acct, i, nsA[i], nsB[i])
			}
			da, err := dut.stores[0].Read(acct, nsA[i])
			if err != nil {
				t.Fatal(err)
			}
			db, err := dut.stores[1].Read(acct, nsA[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(da, db) {
				t.Fatalf("account %d block %d: halves disagree on contents", acct, nsA[i])
			}
		}
	}
}

// FuzzPairContract feeds random operation scripts to the reference
// store and a mixed-backend pair in lockstep.
func FuzzPairContract(f *testing.F) {
	for _, seed := range blocktest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		ref, dut := newPairDut(t, "mem", "seg", 16, 64)
		blocktest.RunScript(t, ref, dut.pair, blocktest.ScriptOps(script))
		requireHalvesEqual(t, dut, []block.Account{1, 2})
	})
}
