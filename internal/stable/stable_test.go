package stable

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
)

// testPair is a pair over in-memory servers, with the backends and
// disks exposed so tests can inspect copies and inject faults through
// the public surfaces of those layers (the pair itself has no
// escape hatch into its backends).
type testPair struct {
	a, b   *Half
	sa, sb *block.Server
	da, db *disk.Disk
}

func newTestPair(t *testing.T, geo disk.Geometry) *testPair {
	t.Helper()
	da, db := disk.MustNew(geo), disk.MustNew(geo)
	sa, sb := block.NewServer(da), block.NewServer(db)
	a, b := NewPair(sa, sb)
	return &testPair{a: a, b: b, sa: sa, sb: sb, da: da, db: db}
}

func newPair(t *testing.T) *testPair {
	return newTestPair(t, disk.Geometry{Blocks: 64, BlockSize: 128})
}

func TestAllocWritesBothDisks(t *testing.T) {
	p := newPair(t)
	n, err := p.a.Alloc(1, []byte("dual"))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := p.sa.Read(1, n)
	db, _ := p.sb.Read(1, n)
	if !bytes.Equal(da[:4], []byte("dual")) || !bytes.Equal(db[:4], []byte("dual")) {
		t.Fatal("block not stored on both disks")
	}
	if p.a.Stats().CompanionWrites != 1 {
		t.Fatalf("stats = %+v", p.a.Stats())
	}
}

func TestWriteCompanionFirstOrderSurvivesCrash(t *testing.T) {
	p := newPair(t)
	n, err := p.a.Alloc(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	// Write via A: B's copy is written first. If A crashes right after
	// the companion write, B already has v2 durable.
	if err := p.a.Write(1, n, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	db, _ := p.sb.Read(1, n)
	if !bytes.Equal(db[:2], []byte("v2")) {
		t.Fatal("companion copy not updated")
	}
}

func TestReadFallsBackOnCorruption(t *testing.T) {
	p := newPair(t)
	n, err := p.a.Alloc(1, []byte("precious"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.da.InjectCorruption(int(n)); err != nil {
		t.Fatal(err)
	}
	got, err := p.a.Read(1, n)
	if err != nil {
		t.Fatalf("read with corrupt local copy: %v", err)
	}
	if !bytes.Equal(got[:8], []byte("precious")) {
		t.Fatalf("read %q", got[:8])
	}
	if s := p.a.Stats(); s.CorruptFallbacks != 1 || s.Repairs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// And the local copy has been repaired: a direct backend read works
	// again.
	got2, err := p.sa.Read(1, n)
	if err != nil {
		t.Fatalf("local copy not repaired: %v", err)
	}
	if !bytes.Equal(got2[:8], []byte("precious")) {
		t.Fatal("repair wrote wrong data")
	}
}

func TestBothCopiesCorruptFails(t *testing.T) {
	p := newPair(t)
	n, _ := p.a.Alloc(1, []byte("x"))
	p.da.InjectCorruption(int(n))
	p.db.InjectCorruption(int(n))
	if _, err := p.a.Read(1, n); err == nil {
		t.Fatal("read succeeded with both copies corrupt")
	}
}

func TestAllocCollision(t *testing.T) {
	p := newPair(t)
	// Force a collision: claim block 1 on B's backend behind A's back,
	// then make A allocate block 1.
	if err := p.sb.Claim(2, 1); err != nil {
		t.Fatal(err)
	}
	_, err := p.a.Alloc(1, []byte("z"))
	if !errors.Is(err, ErrCollision) {
		t.Fatalf("err = %v, want ErrCollision", err)
	}
	if p.a.Stats().Collisions != 1 {
		t.Fatalf("stats = %+v", p.a.Stats())
	}
	// The failed alloc must not leak a block on A.
	if p.sa.InUse() != 0 {
		t.Fatalf("A has %d blocks in use after failed alloc", p.sa.InUse())
	}
	// A retry picks a different number and succeeds.
	n, err := p.a.Alloc(1, []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if n == 1 {
		t.Fatal("retry chose the colliding number again")
	}
}

func TestWriteCollisionDetected(t *testing.T) {
	p := newPair(t)
	n, err := p.a.Alloc(1, []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a concurrent writer holding the companion-side write
	// latch: a write via B latches block n on A first.
	if !p.a.TryLatch(n) {
		t.Fatal("latch busy")
	}
	err = p.b.Write(1, n, []byte("clash"))
	if !errors.Is(err, ErrCollision) {
		t.Fatalf("err = %v, want ErrCollision", err)
	}
	p.a.Unlatch(n)
	if err := p.b.Write(1, n, []byte("fine!")); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMultiCollisionDetected(t *testing.T) {
	p := newPair(t)
	ns, err := p.a.AllocMulti(1, [][]byte{[]byte("x0"), []byte("x1"), []byte("x2")})
	if err != nil {
		t.Fatal(err)
	}
	// A concurrent writer holds the latch of the middle block on A; a
	// batched write via B must collide with no damage done.
	if !p.a.TryLatch(ns[1]) {
		t.Fatal("latch busy")
	}
	err = p.b.WriteMulti(1, ns, [][]byte{[]byte("y0"), []byte("y1"), []byte("y2")})
	if !errors.Is(err, ErrCollision) {
		t.Fatalf("err = %v, want ErrCollision", err)
	}
	if idx := block.MultiIndex(err, -1); idx != 1 {
		t.Fatalf("collision index = %d, want 1", idx)
	}
	for i, n := range ns {
		got, _ := p.b.Read(1, n)
		if string(got[:2]) != string([]byte{'x', byte('0' + i)}) {
			t.Fatalf("block %d modified by colliding batch: %q", i, got[:2])
		}
	}
	p.a.Unlatch(ns[1])
	if err := p.b.WriteMulti(1, ns, [][]byte{[]byte("y0"), []byte("y1"), []byte("y2")}); err != nil {
		t.Fatal(err)
	}
	// Both backends hold the new contents.
	for i, n := range ns {
		for _, s := range []*block.Server{p.sa, p.sb} {
			got, err := s.Read(1, n)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:2]) != string([]byte{'y', byte('0' + i)}) {
				t.Fatalf("block %d = %q after batched write", i, got[:2])
			}
		}
	}
}

func TestWriteWhileHoldingBlockLockNoSelfCollision(t *testing.T) {
	// The commit critical section holds the block lock across a
	// read-modify-write of a version page; the pair's companion-first
	// write must not collide with the holder's own lock.
	geo := disk.Geometry{Blocks: 64, BlockSize: 128}
	p := NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
	n, err := p.Alloc(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(1, n); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(1, n, []byte("v2")); err != nil {
		t.Fatalf("write under own lock: %v", err)
	}
	if err := p.Unlock(1, n); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Read(1, n)
	if string(got[:2]) != "v2" {
		t.Fatalf("read %q", got[:2])
	}
}

func TestIntentionsReplayOnRecovery(t *testing.T) {
	p := newPair(t)
	n, err := p.a.Alloc(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}

	p.b.Crash()
	// Mutations while B is down are kept as intentions on A.
	if err := p.a.Write(1, n, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	n2, err := p.a.Alloc(1, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if p.a.Stats().IntentionsKept != 2 {
		t.Fatalf("stats = %+v, want 2 intentions", p.a.Stats())
	}

	if err := p.b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	// B must now have v2 and the new block.
	got, err := p.b.Read(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], []byte("v2")) {
		t.Fatalf("B has %q after recovery, want v2", got[:2])
	}
	got, err = p.b.Read(1, n2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:3], []byte("new")) {
		t.Fatalf("B missing block allocated during outage")
	}
	if p.a.Stats().Replayed != 2 {
		t.Fatalf("stats = %+v, want 2 replayed", p.a.Stats())
	}
}

func TestBatchedMutationsDuringOutageReplayed(t *testing.T) {
	p := newPair(t)
	keep, err := p.a.AllocMulti(1, [][]byte{[]byte("k0"), []byte("k1")})
	if err != nil {
		t.Fatal(err)
	}

	p.b.Crash()
	ns, err := p.a.AllocMulti(1, [][]byte{[]byte("o0"), []byte("o1"), []byte("o2")})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.a.WriteMulti(1, keep, [][]byte{[]byte("K0"), []byte("K1")}); err != nil {
		t.Fatal(err)
	}
	if err := p.a.FreeMulti(1, ns[:1]); err != nil {
		t.Fatal(err)
	}
	// 3 allocs + 2 writes + 1 free = 6 intents for the outage.
	if got := p.a.Stats().IntentionsKept; got != 6 {
		t.Fatalf("IntentionsKept = %d, want 6", got)
	}

	if err := p.b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	for i, n := range keep {
		got, err := p.b.Read(1, n)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:2]) != string([]byte{'K', byte('0' + i)}) {
			t.Fatalf("kept block %d = %q after rejoin", i, got[:2])
		}
	}
	if _, err := p.b.Read(1, ns[0]); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("freed block survived rejoin: %v", err)
	}
	for _, n := range ns[1:] {
		if _, err := p.b.Read(1, n); err != nil {
			t.Fatalf("outage-allocated block missing after rejoin: %v", err)
		}
	}
}

func TestFreeDuringOutageReconciled(t *testing.T) {
	p := newPair(t)
	n, _ := p.a.Alloc(1, []byte("doomed"))
	p.b.Crash()
	if err := p.a.Free(1, n); err != nil {
		t.Fatal(err)
	}
	if err := p.b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.Read(1, n); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("freed block still allocated on B after recovery: %v", err)
	}
}

func TestCrashedHalfRejectsRequests(t *testing.T) {
	p := newPair(t)
	p.a.Crash()
	if _, err := p.a.Alloc(1, nil); err == nil {
		t.Fatal("crashed half accepted alloc")
	}
	if _, err := p.a.Read(1, 1); err == nil {
		t.Fatal("crashed half accepted read")
	}
}

func TestPairFailover(t *testing.T) {
	geo := disk.Geometry{Blocks: 64, BlockSize: 128}
	p := NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
	a, b := p.Halves()

	n, err := p.Alloc(1, []byte("ha"))
	if err != nil {
		t.Fatal(err)
	}

	// Primary down: reads and writes continue via B.
	a.Crash()
	got, err := p.Read(1, n)
	if err != nil {
		t.Fatalf("read after primary crash: %v", err)
	}
	if !bytes.Equal(got[:2], []byte("ha")) {
		t.Fatalf("read %q", got[:2])
	}
	if err := p.Write(1, n, []byte("hb")); err != nil {
		t.Fatalf("write after primary crash: %v", err)
	}
	n2, err := p.Alloc(1, []byte("hc"))
	if err != nil {
		t.Fatalf("alloc after primary crash: %v", err)
	}

	// Both down: ErrBothDown.
	b.Crash()
	if _, err := p.Read(1, n); !errors.Is(err, ErrBothDown) {
		t.Fatalf("err = %v, want ErrBothDown", err)
	}

	// Recover A (from B's state once B recovers first).
	if err := b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rejoin(); err != nil {
		t.Fatal(err)
	}
	got, err = p.Read(1, n2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], []byte("hc")) {
		t.Fatalf("block allocated during outage lost: %q", got[:2])
	}
	got, err = a.Read(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], []byte("hb")) {
		t.Fatalf("A did not pick up write made during its outage: %q", got[:2])
	}
}

func TestPairLockSpansHalves(t *testing.T) {
	geo := disk.Geometry{Blocks: 64, BlockSize: 128}
	sa := block.NewServer(disk.MustNew(geo))
	sb := block.NewServer(disk.MustNew(geo))
	front := NewFailoverPair(sa, sb)
	n, _ := front.Alloc(1, nil)

	if err := front.Lock(1, n); err != nil {
		t.Fatal(err)
	}
	// The lock must be visible on either backend.
	if err := sa.Lock(1, n); !errors.Is(err, block.ErrLocked) {
		t.Fatalf("lock not held on A: %v", err)
	}
	if err := sb.Lock(1, n); !errors.Is(err, block.ErrLocked) {
		t.Fatalf("lock not held on B: %v", err)
	}
	if err := front.Unlock(1, n); err != nil {
		t.Fatal(err)
	}
	if err := front.Lock(1, n); err != nil {
		t.Fatalf("relock after unlock: %v", err)
	}
}

func TestConcurrentAllocsThroughBothHalves(t *testing.T) {
	geo := disk.Geometry{Blocks: 512, BlockSize: 64}
	p := newTestPair(t, geo)
	a, b := p.a, p.b

	var mu sync.Mutex
	seen := make(map[block.Num]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := a
			if g%2 == 1 {
				h = b
			}
			for i := 0; i < 20; i++ {
				var n block.Num
				for {
					var err error
					n, err = h.Alloc(1, []byte{byte(g)})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrCollision) {
						t.Errorf("alloc: %v", err)
						return
					}
				}
				mu.Lock()
				if seen[n] {
					t.Errorf("block %d allocated twice", n)
				}
				seen[n] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(seen) != 160 {
		t.Fatalf("allocated %d distinct blocks, want 160", len(seen))
	}
}

func TestStaleHalfRejoinsByFullCopy(t *testing.T) {
	// A half that was already dead when the pair was mounted (a
	// degraded -mirror boot) holds divergence this pair never saw: an
	// intentions replay cannot be complete, so Rejoin must full-copy.
	geo := disk.Geometry{Blocks: 64, BlockSize: 128}
	sa := block.NewServer(disk.MustNew(geo))
	sb := block.NewServer(disk.MustNew(geo))
	// Pre-pair history: both halves got block 1, then A alone got the
	// write B missed while the previous service's pair process died.
	for _, s := range []*block.Server{sa, sb} {
		if err := s.Claim(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Write(1, 1, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := sb.Write(1, 1, []byte("OLD")); err != nil {
		t.Fatal(err)
	}

	a, b := NewPair(sa, sb)
	b.MarkStale()
	// Post-mount traffic accumulates intents — which alone would NOT
	// repair block 1.
	n2, err := a.Alloc(1, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recover(1); err != nil { // notes the account, as boot recovery does
		t.Fatal(err)
	}

	if err := b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().FullCopied == 0 {
		t.Fatal("stale half rejoined without a full copy")
	}
	got, err := sb.Read(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "newer" {
		t.Fatalf("stale half still serves %q after rejoin", got[:5])
	}
	if _, err := sb.Read(1, n2); err != nil {
		t.Fatalf("post-mount block missing after full copy: %v", err)
	}
}

func TestStaleHalfRefusesRejoinWithCompanionDown(t *testing.T) {
	geo := disk.Geometry{Blocks: 16, BlockSize: 64}
	a, b := NewPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
	b.MarkStale()
	a.Crash()
	if err := b.Rejoin(); err == nil {
		t.Fatal("stale half came up with nothing to full-copy from")
	}
	if b.Down() != true {
		t.Fatal("stale half marked up despite failed rejoin")
	}
}

func TestSeededBackoffIsDeterministic(t *testing.T) {
	// Two pairs with the same seed draw identical backoff schedules;
	// the source is per-pair, so drawing from one never disturbs the
	// other (no global math/rand state involved).
	geo := disk.Geometry{Blocks: 16, BlockSize: 32}
	mk := func(seed int64) *Pair {
		return NewFailoverPairSeed(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)), seed)
	}
	p1, p2 := mk(7), mk(7)
	draw := func(p *Pair, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = p.backoff.rng.Intn(1 << 8)
		}
		return out
	}
	d1, d2 := draw(p1, 16), draw(p2, 16)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("draw %d: %d vs %d with identical seeds", i, d1[i], d2[i])
		}
	}
}
