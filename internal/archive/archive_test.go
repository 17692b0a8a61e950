package archive_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/disk"
)

// newPair builds an in-memory reference server and an archive store of
// the same capacity and facade block size, so the contract harness can
// drive both in lockstep over the write-once operation subset.
func newPair(t *testing.T, capacity, blockSize int) (*block.Server, *archive.Store) {
	t.Helper()
	ref := block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize}))
	backing := block.NewServer(disk.MustNew(disk.Geometry{Blocks: capacity + 1, BlockSize: blockSize + archive.FrameOverhead}))
	dut, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ref, dut
}

func wantErr(sentinel error) func(*testing.T, error) {
	return func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want %v", err, sentinel)
		}
	}
}

// TestArchiveContractTable runs the write-once subset of the contract
// script against the in-memory reference: everything the file-service
// layers can observe short of mutation must be indistinguishable.
func TestArchiveContractTable(t *testing.T) {
	ref, dut := newPair(t, 64, 128)
	blocktest.RunScript(t, ref, dut, []blocktest.Op{
		{Op: "alloc", Acct: 1, Data: "alpha"},
		{Op: "alloc", Acct: 1, Data: "beta"},
		{Op: "alloc", Acct: 1, Data: "gamma"},
		{Op: "read", Acct: 1, N: 0},
		{Op: "read", Acct: 2, N: 0, Check: wantErr(block.ErrNotOwner)},
		{Op: "read", Acct: 1, N: -1, Check: wantErr(block.ErrNotAllocated)},
		{Op: "rewrite", Acct: 1, N: 0},
		{Op: "rewrite", Acct: 1, N: 9, Check: wantErr(block.ErrNotAllocated)},
		{Op: "read", Acct: 1, N: 0},
		{Op: "lock", Acct: 1, N: 1},
		{Op: "lock", Acct: 1, N: 1, Check: wantErr(block.ErrLocked)},
		{Op: "lock", Acct: 2, N: 1, Check: wantErr(block.ErrNotOwner)},
		{Op: "unlock", Acct: 1, N: 1},
		{Op: "unlock", Acct: 1, N: 1, Check: wantErr(block.ErrNotLocked)},
		{Op: "readmulti", Acct: 1, N: 0},
		{Op: "allocmulti", Acct: 1, Data: "am"},
		{Op: "recover", Acct: 1},
		{Op: "recover", Acct: 2},
	})
}

// TestArchiveContractExhaustion checks ErrNoSpace classifies the same
// through the facade (unique payloads — duplicate content would dedup
// on the archive and diverge from the reference by design).
func TestArchiveContractExhaustion(t *testing.T) {
	ref, dut := newPair(t, 6, 64)
	var ops []blocktest.Op
	for i := 0; i < 6; i++ {
		ops = append(ops, blocktest.Op{Op: "alloc", Acct: 1, Data: fmt.Sprint(i)})
	}
	ops = append(ops,
		blocktest.Op{Op: "alloc", Acct: 1, Data: "over", Check: wantErr(block.ErrNoSpace)},
		blocktest.Op{Op: "recover", Acct: 1},
	)
	blocktest.RunScript(t, ref, dut, ops)
}

// TestArchiveWriteOnce drives the write-once suite: dedup on identical
// Alloc, idempotent rewrite, and refusal of every destructive op.
func TestArchiveWriteOnce(t *testing.T) {
	_, dut := newPair(t, 16, 64)
	blocktest.WriteOnceSuite(t, "archive", dut, archive.ErrImmutable)
}

// TestArchiveScalars runs the write-once variant of the scalar suite: a
// scalar call on the facade is its vectored operation at length one —
// same data, sentinel (refusals included) and backing-store counter
// movement. The facade binds no trace spans of its own, so its
// trace-bound view is the facade itself; the second run pins that.
func TestArchiveScalars(t *testing.T) {
	for _, bind := range []bool{false, true} {
		_, dut := newPair(t, 16, 64)
		backing := dut.Backing().(*block.Server)
		var st block.MultiStore = dut
		if bind {
			st = blocktest.TraceBound(t, dut)
		}
		blocktest.ScalarSuite(t, fmt.Sprintf("archive/bound=%v", bind), st, blocktest.ScalarOpts{
			Capacity: 16, Refuse: archive.ErrImmutable, Stats: backing,
			Corrupt: func(n block.Num) {
				if err := backing.Disk().InjectCorruption(int(n)); err != nil {
					t.Fatal(err)
				}
			},
		})
	}
}

// FuzzArchiveContract feeds random write-once scripts to the reference
// store and the archive facade in lockstep.
func FuzzArchiveContract(f *testing.F) {
	for _, seed := range blocktest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		ref, dut := newPair(t, 600, 64)
		blocktest.RunScript(t, ref, dut, blocktest.WriteOnceOps(script))
	})
}

// TestArchiveDedupAccounting checks the content-addressed bookkeeping:
// identical puts collapse into one stored block and the stats say so.
func TestArchiveDedupAccounting(t *testing.T) {
	_, st := newPair(t, 16, 64)
	payload := []byte("the same content twice")
	n1, hit1, err := st.Put(1, archive.KindData, payload)
	if err != nil || hit1 {
		t.Fatalf("first put: n=%d hit=%v err=%v", n1, hit1, err)
	}
	n2, hit2, err := st.Put(1, archive.KindData, payload)
	if err != nil || !hit2 || n2 != n1 {
		t.Fatalf("second put: n=%d hit=%v err=%v, want dedup onto %d", n2, hit2, err, n1)
	}
	// The kind is part of the address: same payload, different kind,
	// different block.
	n3, hit3, err := st.Put(1, archive.KindPointer, payload)
	if err != nil || hit3 || n3 == n1 {
		t.Fatalf("cross-kind put: n=%d hit=%v err=%v", n3, hit3, err)
	}
	stats := st.Stats()
	if stats.Puts != 3 || stats.Stored != 2 || stats.DedupHits != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesStored >= stats.BytesLogical {
		t.Fatalf("dedup saved no bytes: logical %d, stored %d", stats.BytesLogical, stats.BytesStored)
	}
	if got, err := st.Read(1, n1); err != nil || !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("read back: %q, %v", got, err)
	}
}

// TestArchiveCorruptRead flips one payload byte underneath the facade
// and requires the read to fail with block.ErrCorrupt naming the exact
// block.
func TestArchiveCorruptRead(t *testing.T) {
	_, st := newPair(t, 16, 64)
	n, err := st.Alloc(1, []byte("soon to be damaged"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.Backing().Read(1, n)
	if err != nil {
		t.Fatal(err)
	}
	raw[archive.FrameOverhead] ^= 0x01
	if err := st.Backing().Write(1, n, raw); err != nil {
		t.Fatal(err)
	}
	_, err = st.Read(1, n)
	if !errors.Is(err, block.ErrCorrupt) {
		t.Fatalf("read of damaged block: %v, want ErrCorrupt", err)
	}
	if want := fmt.Sprintf("block %d", n); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if st.Stats().CorruptReads != 1 {
		t.Fatalf("corrupt reads = %d, want 1", st.Stats().CorruptReads)
	}
}

// TestArchiveReopen rebuilds the indexes from the backing store alone:
// content addresses, dedup, and the snapshot log must all survive.
func TestArchiveReopen(t *testing.T) {
	backing := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 32, BlockSize: 64 + archive.FrameOverhead}))
	st, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("durable content")
	n, err := st.Alloc(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	e := archive.Entry{Object: 7, Seq: 1, Root: n, Score: archive.ScoreOf(archive.KindRaw, payload)}
	if err := st.AppendSnapshot(1, e); err != nil {
		t.Fatal(err)
	}
	// The same entry twice dedups into one record.
	if err := st.AppendSnapshot(1, e); err != nil {
		t.Fatal(err)
	}

	st2, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st2.Read(1, n); err != nil || !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("read after reopen: %q, %v", got, err)
	}
	again, err := st2.Alloc(1, payload)
	if err != nil || again != n {
		t.Fatalf("dedup after reopen: block %d, %v, want %d", again, err, n)
	}
	snaps := st2.Snapshots(7)
	if len(snaps) != 1 || snaps[0] != e {
		t.Fatalf("snapshot log after reopen: %+v, want [%+v]", snaps, e)
	}
	if _, ok := st2.Snapshot(7, 2); ok {
		t.Fatal("phantom snapshot after reopen")
	}
	if seq := st2.LastSeq(7); seq != 1 {
		t.Fatalf("last seq = %d, want 1", seq)
	}
}

// TestPutConcurrentSameContent races many puts of one payload: the
// reservation protocol must converge them on a single stored block —
// one winner stores, every loser reports a dedup hit — without holding
// the index lock across the backing allocation.
func TestPutConcurrentSameContent(t *testing.T) {
	_, st := newPair(t, 64, 128)
	const n = 16
	payload := []byte("raced content")
	var wg sync.WaitGroup
	got := make([]block.Num, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], hits[i], errs[i] = st.Put(1, archive.KindRaw, payload)
		}(i)
	}
	wg.Wait()
	stores := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("put %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("put %d landed on block %d, put 0 on %d", i, got[i], got[0])
		}
		if !hits[i] {
			stores++
		}
	}
	if stores != 1 {
		t.Fatalf("%d puts stored, want exactly 1", stores)
	}
	s := st.Stats()
	if s.Stored != 1 || s.DedupHits != n-1 {
		t.Fatalf("stats = %+v, want 1 stored, %d dedup hits", s, n-1)
	}
}

// TestRefreshSeesSiblingAppends opens two stores over one backing — two
// live server processes sharing an archive — and requires Refresh to
// pick up blocks and snapshot records the sibling appended after this
// store's index was built.
func TestRefreshSeesSiblingAppends(t *testing.T) {
	backing := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 64, BlockSize: 128 + archive.FrameOverhead}))
	a, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("shared content")
	n, err := a.Alloc(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendSnapshot(1, archive.Entry{Object: 7, Seq: 1, Root: n}); err != nil {
		t.Fatal(err)
	}

	// B's stale index misses both until it refreshes.
	if _, ok := b.Lookup(archive.ScoreOf(archive.KindRaw, pad(payload, b.BlockSize()))); ok {
		t.Fatal("stale index already sees the sibling's block")
	}
	if seq := b.LastSeq(7); seq != 0 {
		t.Fatalf("stale LastSeq = %d, want 0", seq)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Lookup(archive.ScoreOf(archive.KindRaw, pad(payload, b.BlockSize()))); !ok || got != n {
		t.Fatalf("Lookup after refresh = %d, %v, want %d", got, ok, n)
	}
	if seq := b.LastSeq(7); seq != 1 {
		t.Fatalf("LastSeq after refresh = %d, want 1", seq)
	}
	// A re-put on B dedups onto A's block instead of storing again.
	stored := b.Stats().Stored
	again, err := b.Alloc(1, payload)
	if err != nil || again != n {
		t.Fatalf("alloc after refresh: block %d, %v, want %d", again, err, n)
	}
	if b.Stats().Stored != stored {
		t.Fatal("refresh-visible content stored a duplicate block")
	}
}

// pad mirrors the store's zero-padding so tests can compute the score
// of a stored (padded) payload.
func pad(p []byte, size int) []byte {
	if len(p) >= size {
		return p
	}
	out := make([]byte, size)
	copy(out, p)
	return out
}
