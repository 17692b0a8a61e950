package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/block"
)

// openTest opens a small store in a fresh temp dir.
func openTest(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestBasicOps(t *testing.T) {
	s := openTest(t, Options{BlockSize: 128})
	const acct block.Account = 7

	n, err := s.Alloc(acct, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if n == block.NilNum {
		t.Fatal("alloc returned nil block")
	}
	data, err := s.Read(acct, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 128 {
		t.Fatalf("read %d bytes, want full 128-byte block", len(data))
	}
	if !bytes.Equal(data[:5], []byte("hello")) || !bytes.Equal(data[5:], make([]byte, 123)) {
		t.Fatalf("read %q, want zero-padded hello", data)
	}

	if err := s.Write(acct, n, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	data, _ = s.Read(acct, n)
	if string(data[:9]) != "rewritten" {
		t.Fatalf("read %q after write", data[:9])
	}

	// Protection: another account cannot touch the block.
	if _, err := s.Read(acct+1, n); !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("foreign read err = %v, want ErrNotOwner", err)
	}
	if err := s.Write(acct+1, n, nil); !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("foreign write err = %v, want ErrNotOwner", err)
	}

	// Locking.
	if err := s.Lock(acct, n); err != nil {
		t.Fatal(err)
	}
	if err := s.Lock(acct, n); !errors.Is(err, block.ErrLocked) {
		t.Fatalf("second lock err = %v, want ErrLocked", err)
	}
	if err := s.Unlock(acct, n); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlock(acct, n); !errors.Is(err, block.ErrNotLocked) {
		t.Fatalf("second unlock err = %v, want ErrNotLocked", err)
	}

	// Free, then the block is gone.
	if err := s.Free(acct, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(acct, n); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("read after free err = %v, want ErrNotAllocated", err)
	}
	if err := s.Free(acct, n); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("double free err = %v, want ErrNotAllocated", err)
	}
}

func TestOversizeWrite(t *testing.T) {
	s := openTest(t, Options{BlockSize: 64})
	if _, err := s.Alloc(1, make([]byte, 65)); err == nil {
		t.Fatal("oversize alloc succeeded")
	}
	n, err := s.Alloc(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, n, make([]byte, 65)); err == nil {
		t.Fatal("oversize write succeeded")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, Capacity: 8})
	for i := 0; i < 8; i++ {
		if _, err := s.Alloc(1, nil); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := s.Alloc(1, nil); !errors.Is(err, block.ErrNoSpace) {
		t.Fatalf("alloc past capacity err = %v, want ErrNoSpace", err)
	}
	// Freeing makes room again.
	if err := s.Free(1, 3); err != nil {
		t.Fatal(err)
	}
	n, err := s.Alloc(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reused block %d, want 3", n)
	}
}

func TestClaim(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, Capacity: 16})
	if err := s.Claim(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Claim(2, 5); err == nil {
		t.Fatal("claiming a taken block succeeded")
	}
	data, err := s.Read(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, make([]byte, 32)) {
		t.Fatal("claimed block does not read as zeroes")
	}
	if err := s.Claim(1, 0); err == nil {
		t.Fatal("claiming block 0 succeeded")
	}
	if err := s.Claim(1, 17); err == nil {
		t.Fatal("claiming out-of-range block succeeded")
	}
	// An Alloc never hands out the claimed number.
	seen := map[block.Num]bool{5: true}
	for i := 0; i < 15; i++ {
		n, err := s.Alloc(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatalf("block %d handed out twice", n)
		}
		seen[n] = true
	}
}

func TestRecoverScan(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32})
	var mine, theirs []block.Num
	for i := 0; i < 10; i++ {
		acct := block.Account(1 + i%2)
		n, err := s.Alloc(acct, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if acct == 1 {
			mine = append(mine, n)
		} else {
			theirs = append(theirs, n)
		}
	}
	got, err := s.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(mine) {
		t.Fatalf("recover(1) = %v, want %v", got, mine)
	}
	got, _ = s.Recover(2)
	if fmt.Sprint(got) != fmt.Sprint(theirs) {
		t.Fatalf("recover(2) = %v, want %v", got, theirs)
	}
}

func TestSegmentRotation(t *testing.T) {
	// One lane, so the segment count is exactly records/SegmentRecords.
	s := openTest(t, Options{BlockSize: 32, SegmentRecords: 4, LogShards: 1})
	for i := 0; i < 20; i++ {
		if _, err := s.Alloc(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Segments(); got != 5 {
		t.Fatalf("20 records over 4-record segments: %d segments, want 5", got)
	}
	// Every block still readable across segment boundaries.
	for i := 0; i < 20; i++ {
		data, err := s.Read(1, block.Num(i+1))
		if err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("block %d reads %d", i+1, data[0])
		}
	}
}

func TestGroupCommitBatches(t *testing.T) {
	s := openTest(t, Options{BlockSize: 64})
	var nums [64]block.Num
	for i := range nums {
		n, err := s.Alloc(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		nums[i] = n
	}
	const rounds = 8
	var wg sync.WaitGroup
	for w := range nums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.Write(1, nums[w], []byte{byte(w), byte(r)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Writes != uint64(len(nums)*rounds) {
		t.Fatalf("writes = %d, want %d", st.Writes, len(nums)*rounds)
	}
	if st.Syncs > st.Writes+st.Allocs {
		t.Fatalf("syncs (%d) exceed records (%d): batching broken", st.Syncs, st.Writes+st.Allocs)
	}
	t.Logf("group commit: %d records in %d batches, %d fsyncs", st.BatchRecords, st.Batches, st.Syncs)
	for w := range nums {
		data, err := s.Read(1, nums[w])
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(w) || data[1] != rounds-1 {
			t.Fatalf("block %d reads %v, want [%d %d]", nums[w], data[:2], w, rounds-1)
		}
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			s := openTest(t, Options{BlockSize: 32, Sync: mode})
			n, err := s.Alloc(1, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(1, n, []byte("y")); err != nil {
				t.Fatal(err)
			}
			data, err := s.Read(1, n)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != 'y' {
				t.Fatalf("read %q", data[:1])
			}
		})
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncNone} {
		got, err := ParseSyncMode(mode.String())
		if err != nil || got != mode {
			t.Fatalf("round trip %v: got %v, %v", mode, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("parsed bogus mode")
	}
}

func TestCompaction(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, SegmentRecords: 8})
	// A handful of long-lived blocks, then churn one of them so early
	// segments fill with garbage.
	var keep []block.Num
	for i := 0; i < 4; i++ {
		n, err := s.Alloc(1, []byte{0xA0 | byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, n)
	}
	for i := 0; i < 40; i++ {
		if err := s.Write(1, keep[0], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Segments()
	reclaimed := 0
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		reclaimed++
	}
	if reclaimed == 0 {
		t.Fatalf("no segment reclaimed out of %d", before)
	}
	if after := s.Segments(); after >= before {
		t.Fatalf("segments %d -> %d after compaction", before, after)
	}
	// All data survives relocation.
	for i, n := range keep {
		data, err := s.Read(1, n)
		if err != nil {
			t.Fatalf("block %d after compaction: %v", n, err)
		}
		want := byte(0xA0 | i)
		if i == 0 {
			want = 39
		}
		if data[0] != want {
			t.Fatalf("block %d reads %#x, want %#x", n, data[0], want)
		}
	}
	st := s.Stats()
	if st.SegmentsReclaimed == 0 || st.Relocations == 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}
}

func TestCompactionUnderLoad(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, SegmentRecords: 8})
	n, err := s.Alloc(1, []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Write(1, n, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := s.CompactOnce(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if _, err := s.Read(1, n); err != nil {
		t.Fatalf("read after concurrent compaction: %v", err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 32, LogShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, err := s.Alloc(1, []byte("precious"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk behind the store's back.
	f, err := os.OpenFile(segPath(laneDir(dir, 0), 1), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(headerSize)+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Read(1, n); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of damaged record err = %v, want ErrCorrupt", err)
	}
}

func TestGeometryPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, Options{BlockSize: 128}); !errors.Is(err, ErrGeometry) {
		t.Fatalf("reopen with wrong block size err = %v, want ErrGeometry", err)
	}
}

func TestClosedStore(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32})
	n, err := s.Alloc(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc on closed store err = %v", err)
	}
	if err := s.Write(1, n, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on closed store err = %v", err)
	}
	if _, err := s.Read(1, n); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on closed store err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestWithLockComposite(t *testing.T) {
	// The §5.2 critical-section helper works unchanged over segstore.
	s := openTest(t, Options{BlockSize: 32})
	n, err := s.Alloc(1, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	err = block.WithLock(s, 1, n, func(data []byte) ([]byte, error) {
		data[0]++
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := s.Read(1, n)
	if data[0] != 2 {
		t.Fatalf("read %d after WithLock increment", data[0])
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// A second opener — another would-be appender on the same log —
	// must be refused while the first holds the directory.
	if _, err := Open(dir, Options{BlockSize: 32}); err == nil {
		t.Fatal("second Open of a held store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock; so does a crash (Abandon / process death).
	s2, err := Open(dir, Options{BlockSize: 32})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Abandon()
	s3, err := Open(dir, Options{BlockSize: 32})
	if err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
	s3.Close()
}

func TestMultiOpsRideOneGroupCommit(t *testing.T) {
	// The point of the batch append: an N-block multi operation makes
	// one trip through the appender→syncer pipeline — one fsync — where
	// N sequential single writes pay one fsync each.
	st, err := Open(t.TempDir(), Options{BlockSize: 512, Capacity: 4096, SegmentRecords: 4096, Sync: SyncGroup, LogShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const blocks = 64
	s0 := st.Stats().Syncs
	nums, err := st.AllocMulti(1, make([][]byte, blocks))
	if err != nil {
		t.Fatal(err)
	}
	if allocSyncs := st.Stats().Syncs - s0; allocSyncs > 2 {
		t.Fatalf("AllocMulti of %d blocks used %d fsyncs", blocks, allocSyncs)
	}

	payload := []byte("batched payload")
	s0 = st.Stats().Syncs
	for _, n := range nums {
		if err := st.Write(1, n, payload); err != nil {
			t.Fatal(err)
		}
	}
	individual := st.Stats().Syncs - s0

	payloads := make([][]byte, blocks)
	for i := range payloads {
		payloads[i] = payload
	}
	s0 = st.Stats().Syncs
	b0 := st.Stats().Batches
	if err := st.WriteMulti(1, nums, payloads); err != nil {
		t.Fatal(err)
	}
	batched := st.Stats().Syncs - s0
	if st.Stats().Batches-b0 > 2 {
		t.Fatalf("WriteMulti of %d blocks split into %d batches", blocks, st.Stats().Batches-b0)
	}
	if batched > 2 {
		t.Fatalf("WriteMulti of %d blocks used %d fsyncs", blocks, batched)
	}
	if individual < uint64(blocks)/2 {
		t.Fatalf("sequential singles used only %d fsyncs for %d writes; baseline broken", individual, blocks)
	}

	s0 = st.Stats().Syncs
	if err := st.FreeMulti(1, nums); err != nil {
		t.Fatal(err)
	}
	if freeSyncs := st.Stats().Syncs - s0; freeSyncs > 2 {
		t.Fatalf("FreeMulti of %d blocks used %d fsyncs", blocks, freeSyncs)
	}
}
