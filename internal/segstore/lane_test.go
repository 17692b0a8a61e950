package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// --- crash-recovery matrix at four lanes ---

// fourLaneStore builds a K=4 store with enough records that every lane
// holds several sealed segments, closes it cleanly, and reports what
// was written and which lane each block's records live in.
func fourLaneStore(t *testing.T) (dir string, want map[block.Num][]byte, laneOf map[block.Num]int) {
	t.Helper()
	dir = t.TempDir()
	s, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4, LogShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want = make(map[block.Num][]byte)
	laneOf = make(map[block.Num]int)
	for i := 0; i < 64; i++ {
		payload := []byte(fmt.Sprintf("block %d", i))
		n, err := s.Alloc(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = payload
		laneOf[n] = s.laneIndex(n)
	}
	// The hash must actually spread 64 blocks over 4 lanes; the matrix
	// below is vacuous otherwise.
	perLane := make([]int, 4)
	for _, l := range laneOf {
		perLane[l]++
	}
	for l, c := range perLane {
		if c == 0 {
			t.Fatalf("lane %d got no blocks of 64: routing hash broken (%v)", l, perLane)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want, laneOf
}

func reopenFour(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.Lanes(); got != 4 {
		t.Fatalf("reopened with %d lanes, want the pinned 4", got)
	}
	return s
}

// lastSegPath finds a lane's highest-numbered (tail) segment file.
func lastSegPath(t *testing.T, dir string, lane int) string {
	t.Helper()
	ids, err := listSegments(laneDir(dir, lane))
	if err != nil || len(ids) == 0 {
		t.Fatalf("lane %d segments: %v (%d found)", lane, err, len(ids))
	}
	return segPath(laneDir(dir, lane), ids[len(ids)-1])
}

func TestFourLaneReopenByteEqual(t *testing.T) {
	dir, want, _ := fourLaneStore(t)
	s := reopenFour(t, dir)
	if rl := s.RecreatedLanes(); len(rl) != 0 {
		t.Fatalf("healthy reopen reports recreated lanes %v", rl)
	}
	for n, data := range want {
		got, err := s.Read(1, n)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		if !bytes.Equal(got[:len(data)], data) || !bytes.Equal(got[len(data):], make([]byte, 64-len(data))) {
			t.Fatalf("block %d reads %q, want zero-padded %q", n, got, data)
		}
	}
}

func TestFourLaneTornTailOneLane(t *testing.T) {
	dir, want, _ := fourLaneStore(t)
	// Tear lane 1's log tail: half a record of garbage, as a crash
	// mid-batch would leave. Nothing acknowledged is in it.
	path := lastSegPath(t, dir, 1)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := recordSize(64) / 2
	if _, err := f.Write(make([]byte, torn)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := reopenFour(t, dir)
	if st := s.Stats(); st.TruncatedBytes != uint64(torn) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, torn)
	}
	// Every acknowledged block — lane 1's included — survives intact.
	for n, data := range want {
		got, err := s.Read(1, n)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("block %d reads %q, want %q", n, got[:len(data)], data)
		}
	}
}

func TestFourLaneMissingLaneDir(t *testing.T) {
	dir, want, laneOf := fourLaneStore(t)
	// Lose lane 2 wholesale (a dead disk stripe, an errant rm). The
	// store must come back up: lane 2's blocks are gone, every other
	// lane's are intact.
	if err := os.RemoveAll(laneDir(dir, 2)); err != nil {
		t.Fatal(err)
	}
	s := reopenFour(t, dir)
	// The loss is surfaced, not silent: the recreated lane shows up in
	// stats and in RecreatedLanes so an operator can restore from a
	// replica instead of writing on.
	if st := s.Stats(); st.LanesRecreated != 1 {
		t.Fatalf("LanesRecreated = %d, want 1", st.LanesRecreated)
	}
	if rl := s.RecreatedLanes(); len(rl) != 1 || rl[0] != 2 {
		t.Fatalf("RecreatedLanes() = %v, want [2]", rl)
	}
	for n, data := range want {
		got, err := s.Read(1, n)
		if laneOf[n] == 2 {
			if !errors.Is(err, block.ErrNotAllocated) {
				t.Fatalf("block %d in lost lane: err = %v, want ErrNotAllocated", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("block %d in surviving lane %d: %v", n, laneOf[n], err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("block %d reads %q, want %q", n, got[:len(data)], data)
		}
	}
	// And the revived lane accepts new writes.
	if _, err := s.Alloc(1, []byte("after the loss")); err != nil {
		t.Fatal(err)
	}
}

func TestFourLaneMidLogCorruptionRefused(t *testing.T) {
	dir, _, _ := fourLaneStore(t)
	// Damage a record in lane 2's FIRST segment: mid-log, not a torn
	// tail, so the open must refuse rather than silently drop
	// acknowledged data — even though lanes 0, 1 and 3 are pristine.
	f, err := os.OpenFile(segPath(laneDir(dir, 2), 1), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, headerSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption in lane 2: err = %v, want ErrCorrupt", err)
	}
}

// TestMissingMetaWithLanesRefused loses the meta file while lane
// directories full of data survive. The open must refuse: writing a
// fresh meta would re-pin the shard count from this process's defaults,
// changing the routing hash and silently orphaning acknowledged records
// in lanes beyond the new count.
func TestMissingMetaWithLanesRefused(t *testing.T) {
	dir, _, _ := fourLaneStore(t)
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4, LogShards: 4}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with lane data but no meta: err = %v, want ErrCorrupt", err)
	}
}

// --- flat v1 layout migration ---

// TestFlatLayoutMigration doctors a store into the old single-log
// layout — segment files in the top-level directory, a version-1 meta
// line — and reopens it sharded: the records must migrate into lane 0,
// the meta must be rewritten pinning the lane count, and every block
// must read back byte-equal across a further reopen and compaction.
func TestFlatLayoutMigration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4, LogShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[block.Num][]byte)
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("v1 block %d", i))
		n, err := s.Alloc(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = payload
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Back-convert to the v1 layout: segments at top level, v1 meta.
	ids, err := listSegments(laneDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := os.Rename(segPath(laneDir(dir, 0), id), segPath(dir, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(laneDir(dir, 0)); err != nil {
		t.Fatal(err)
	}
	meta := "segstore 1 blocksize 64 segrecords 4\n"
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(meta), 0o666); err != nil {
		t.Fatal(err)
	}

	// First sharded open: the upgrade.
	s2, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4, LogShards: 4})
	if err != nil {
		t.Fatalf("open over v1 layout: %v", err)
	}
	if got := s2.Lanes(); got != 4 {
		t.Fatalf("upgraded store has %d lanes, want 4", got)
	}
	if left, _ := listSegments(dir); len(left) != 0 {
		t.Fatalf("%d segment files left at top level after upgrade", len(left))
	}
	for n, data := range want {
		got, err := s2.Read(1, n)
		if err != nil {
			t.Fatalf("block %d after upgrade: %v", n, err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("block %d reads %q, want %q", n, got[:len(data)], data)
		}
	}
	// New writes land in hash lanes while old records sit in lane 0;
	// churn one block so its history spans lanes, then compact.
	var churn block.Num
	for n := range want {
		churn = n
		break
	}
	for i := 0; i < 30; i++ {
		want[churn] = []byte(fmt.Sprintf("churned %d", i))
		if err := s2.Write(1, churn, want[churn]); err != nil {
			t.Fatal(err)
		}
	}
	for {
		ok, err := s2.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Crash (no Close) and reopen: the migrated meta must have been
	// durable from the first sharded open, and the merged per-lane scan
	// must pick each block's newest record across lanes.
	s2.Abandon()
	s3, err := Open(dir, Options{BlockSize: 64, SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Lanes(); got != 4 {
		t.Fatalf("re-reopened store has %d lanes, want 4", got)
	}
	for n, data := range want {
		got, err := s3.Read(1, n)
		if err != nil {
			t.Fatalf("block %d after second reopen: %v", n, err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("block %d reads %q, want %q", n, got[:len(data)], data)
		}
	}
}

// --- segment recycling ---

func TestSegmentRecycling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 32, SegmentRecords: 4, LogShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Alloc(1, []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	churn := func(rounds int) {
		t.Helper()
		for i := 1; i <= rounds; i++ {
			if err := s.Write(1, n, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	compactAll := func() {
		t.Helper()
		for {
			ok, err := s.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}
	churn(40)
	compactAll()
	// Compacted segments parked in the pool, visible on disk.
	poolIDs, err := listPool(laneDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(poolIDs) == 0 {
		t.Fatal("no pool files after compaction")
	}
	if len(poolIDs) > maxPool {
		t.Fatalf("%d pool files, cap is %d", len(poolIDs), maxPool)
	}
	// Further churn rotates into recycled files instead of creating new
	// ones.
	churn(40)
	if st := s.Stats(); st.Recycles == 0 {
		t.Fatalf("no segment recycled across %d rotations: %+v", 10, st)
	}
	if data, err := s.Read(1, n); err != nil || data[0] != 40 {
		t.Fatalf("block reads %v (err %v), want 40", data[:1], err)
	}
	// Crash with files still pooled; the reopen adopts (and empties)
	// them, and they are reused again.
	compactAll()
	s.Abandon()
	s2, err := Open(dir, Options{BlockSize: 32, SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if data, err := s2.Read(1, n); err != nil || data[0] != 40 {
		t.Fatalf("after reopen block reads %v (err %v), want 40", data, err)
	}
	for i := 41; i <= 80; i++ {
		if err := s2.Write(1, n, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Stats(); st.Recycles == 0 {
		t.Fatal("adopted pool files never reused after reopen")
	}
	if data, err := s2.Read(1, n); err != nil || data[0] != 80 {
		t.Fatalf("block reads %v (err %v), want 80", data, err)
	}
}

// --- Close vs compaction ---

// TestCloseDuringCompaction races Close against an in-flight compaction
// pass, repeatedly: the compactor must neither write to a recycled
// segment after the store is closed nor leave the lane locks held (the
// reopen would fail if it did).
func TestCloseDuringCompaction(t *testing.T) {
	for iter := 0; iter < 15; iter++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{BlockSize: 32, SegmentRecords: 4, LogShards: 2, Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.Alloc(1, []byte{0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 60; i++ {
			if err := s.Write(1, n, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Hammer compaction until the closing store refuses.
			for {
				if _, err := s.CompactOnce(); err != nil {
					return
				}
				s.mu.Lock()
				closed := s.closed
				s.mu.Unlock()
				if closed {
					return
				}
			}
		}()
		if iter%3 == 0 {
			time.Sleep(time.Duration(iter) * 100 * time.Microsecond)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("iter %d: close during compaction: %v", iter, err)
		}
		wg.Wait()
		// The lane locks must be free and the log intact.
		s2, err := Open(dir, Options{BlockSize: 32, SegmentRecords: 4, Sync: SyncNone})
		if err != nil {
			t.Fatalf("iter %d: reopen after racing close: %v", iter, err)
		}
		if data, err := s2.Read(1, n); err != nil || data[0] != 60 {
			t.Fatalf("iter %d: block reads %v (err %v), want 60", iter, data[:1], err)
		}
		s2.Close()
	}
}

// --- background compaction error surfacing ---

// TestCompactErrorSurfaced corrupts the only live record of a
// compaction victim: the background pass must record the failure in
// CompactErrors/LastCompactError instead of retrying forever in
// silence, and a later successful pass must clear it again.
func TestCompactErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockSize: 32, SegmentRecords: 4, LogShards: 1, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Alloc(1, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(1, []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	// Two more writes seal segment 1 (a's alloc, b's alloc, two of a's
	// rewrites); a third rolls to segment 2, leaving b's record the only
	// live one in the sealed victim.
	for i := 0; i < 3; i++ {
		if err := s.Write(1, a, []byte{byte(3 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	path := segPath(laneDir(dir, 0), 1)
	off := int64(recordSize(32) + headerSize) // first payload byte of b's record
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, 1)
	if _, err := f.ReadAt(orig, off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{orig[0] ^ 0xFF}, off); err != nil {
		t.Fatal(err)
	}
	if did := s.compactLane(0); did {
		t.Fatal("compaction reclaimed a segment whose live record is corrupt")
	}
	if st := s.Stats(); st.CompactErrors != 1 {
		t.Fatalf("CompactErrors = %d, want 1", st.CompactErrors)
	}
	if err := s.LastCompactError(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LastCompactError() = %v, want ErrCorrupt", err)
	}
	// Heal the record: the next pass reclaims the victim and clears the
	// sticky error.
	if _, err := f.WriteAt(orig, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if did := s.compactLane(0); !did {
		t.Fatal("compaction did not reclaim the healed victim")
	}
	if err := s.LastCompactError(); err != nil {
		t.Fatalf("LastCompactError() after successful pass = %v, want nil", err)
	}
	if st := s.Stats(); st.CompactErrors != 1 {
		t.Fatalf("CompactErrors after successful pass = %d, want still 1", st.CompactErrors)
	}
	if data, err := s.Read(1, b); err != nil || data[0] != 2 {
		t.Fatalf("block b reads %v (err %v) after relocation, want 2", data[:1], err)
	}
}

// --- adaptive group-commit window ---

func TestAdaptiveWindowAdjust(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, LogShards: 1})
	l := s.lanes[0]
	// (No writes in flight: the appender is parked on its empty queue,
	// so poking the window from here cannot race it.)
	if l.window != 0 {
		t.Fatalf("initial window %v, want 0", l.window)
	}
	// Filling batches widen the window toward the cap...
	for i := 0; i < 12; i++ {
		l.adapt(8)
	}
	if l.window != 2*time.Millisecond {
		t.Fatalf("window after sustained load %v, want the 2ms cap", l.window)
	}
	// ...a saturated batch holds it...
	l.adapt(maxBatch)
	if l.window != 2*time.Millisecond {
		t.Fatalf("window after saturated batch %v, want unchanged 2ms", l.window)
	}
	// ...and idle batches decay it back to exactly zero.
	for i := 0; i < 12; i++ {
		l.adapt(1)
	}
	if l.window != 0 {
		t.Fatalf("window after idling %v, want 0", l.window)
	}
	st := s.Stats()
	if st.WindowGrows == 0 || st.WindowShrinks == 0 {
		t.Fatalf("window stats not counted: %+v", st)
	}
	if gauges := s.LaneStats(); gauges[0].Window != 0 {
		t.Fatalf("lane gauge window %v, want 0", gauges[0].Window)
	}
}

func TestAdaptiveWindowUnderLoad(t *testing.T) {
	s := openTest(t, Options{BlockSize: 32, LogShards: 1})
	var nums [32]block.Num
	for i := range nums {
		n, err := s.Alloc(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		nums[i] = n
	}
	var wg sync.WaitGroup
	for w := range nums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				if err := s.Write(1, nums[w], []byte{byte(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 32 concurrent writers against one lane must have produced at
	// least one batch big enough to widen the window.
	if st := s.Stats(); st.WindowGrows == 0 {
		t.Logf("stats: %+v", st)
		t.Skip("no batch reached the growth threshold on this machine; windowing not exercised")
	}
	// The window histogram saw every group-commit decision.
	if s.windowHist.Snapshot().Count == 0 {
		t.Fatal("window histogram empty after group commits")
	}
	if s.batchHist.Snapshot().Count == 0 {
		t.Fatal("batch-pages histogram empty after group commits")
	}
}

// --- hot-path allocation budget ---

// BenchmarkAppend measures the per-write allocation budget of the
// append path: pooled requests, the per-lane encode arena and the
// reused completion channel keep the pipeline itself at 1 alloc/op
// (the per-batch placement slice); a scalar Write adds the three
// small slices of its vector of one (numbers, payloads, request
// group), for 4 allocs and < 100 B per op.
func BenchmarkAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{BlockSize: 4096, SegmentRecords: 1 << 20, LogShards: 1, Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	n, err := s.Alloc(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(1, n, payload); err != nil {
			b.Fatal(err)
		}
	}
}
