package segstore

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// A lane is one independent segment log: its own directory (log-NN/)
// with its own flock, its own segment files and recycled-file pool, its
// own appender and syncer goroutines, and its own adaptive group-commit
// window. Writes are routed to lanes by a hash of the block number, so
// every record a block ever gets lands in one lane and that lane's
// pipeline order is the block's mutation order. The lanes share the
// store's index, pending table and sequence counter; everything else is
// per-lane, which is what lets K lanes encode, write and fsync in
// parallel.
type lane struct {
	s   *Store
	id  int
	dir string

	// created records that openLane had to make the lane directory: a
	// fresh store, or — on a store that already holds data — a lost
	// lane, which Open surfaces (see RecreatedLanes).
	created bool

	// dirf fsyncs the lane directory and carries the lane's flock.
	dirf *os.File

	// Guarded by s.mu: the segment table, the active segment, the
	// free pool of recycled segment files, and the next segment id.
	segs    map[uint64]*segment
	active  *segment
	pool    []*segment
	nextSeg uint64

	// Appender-only state.
	pendingBuf []byte
	window     time.Duration

	// windowNs mirrors window for concurrent readers (the per-lane
	// gauges and shutdown stats).
	windowNs atomic.Int64

	reqs       chan []*writeReq
	sealed     chan sealedBatch
	syncerDone chan struct{}
}

// maxPool bounds how many recycled segment files a lane keeps around
// for reuse; beyond that, compacted segments are deleted as before.
const maxPool = 4

// windowStep is the adaptive window's growth increment and its floor:
// shrinking below one step snaps to zero (no wait at all).
const windowStep = 25 * time.Microsecond

// maxWindow caps the adaptive window: the longest a lane's commit stays
// open for stragglers once concurrency has been observed.
const maxWindow = 2 * time.Millisecond

// openLane creates (if necessary) and locks one lane directory.
func openLane(s *Store, id int) (*lane, error) {
	dir := laneDir(s.dir, id)
	created := false
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		created = true
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	// One process per lane, same as the old single-log rule: two
	// appenders computing tail offsets independently would shred the
	// log. The flock dies with the process, so a crashed owner never
	// wedges the lane.
	if err := lockDir(dirf); err != nil {
		dirf.Close()
		return nil, fmt.Errorf("segstore: %s: %w", dir, err)
	}
	return &lane{
		s:          s,
		id:         id,
		dir:        dir,
		created:    created,
		dirf:       dirf,
		segs:       make(map[uint64]*segment),
		nextSeg:    1,
		reqs:       make(chan []*writeReq, 16),
		sealed:     make(chan sealedBatch, 4),
		syncerDone: make(chan struct{}),
	}, nil
}

// loadState merges the concurrent per-lane recovery scans into the
// shared index, newest-seq-wins per block. Within a lane the scan order
// already is sequence order, but a block whose records span lanes —
// possible after a flat-layout upgrade, where its old records sit in
// lane 0 and newer ones in its hash lane — needs the explicit
// comparison so a stale lane-0 record cannot shadow the current one.
type loadState struct {
	mu        sync.Mutex
	lastSeq   map[block.Num]uint64
	maxSeq    uint64
	truncated uint64
}

// apply replays one record into the index; it serialises the lanes'
// concurrent scans.
func (ls *loadState) apply(x *index, rec record, at loc) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if rec.seq > ls.maxSeq {
		ls.maxSeq = rec.seq
	}
	if last, ok := ls.lastSeq[block.Num(rec.num)]; ok && rec.seq < last {
		return
	}
	ls.lastSeq[block.Num(rec.num)] = rec.seq
	switch rec.kind {
	case recData:
		x.place(block.Num(rec.num), block.Account(rec.account), at)
	case recFree:
		x.drop(block.Num(rec.num))
	}
}

// load scans the lane's segments in id order, rebuilding this lane's
// slice of the index, truncating a torn or stale tail, and adopting
// pool files left by a previous run.
func (l *lane) load(ls *loadState) error {
	ids, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	poolIDs, err := listPool(l.dir)
	if err != nil {
		return err
	}
	var maxID, prevSeq uint64
	for i, id := range ids {
		f, err := os.OpenFile(segPath(l.dir, id), os.O_RDWR, 0o666)
		if err != nil {
			return err
		}
		seg := &segment{id: id, f: f}
		l.segs[id] = seg
		if err := l.scanSegment(seg, i == len(ids)-1, ls, &prevSeq); err != nil {
			return err
		}
		maxID = id
	}
	// Adopt pool files — recycled segments parked by a previous run.
	// Their stale contents date from before this process's sequence
	// counter existed, so the monotonicity rule that makes a live
	// recycle safe without truncation does not cover them; empty them
	// once here instead.
	for _, id := range poolIDs {
		if id > maxID {
			maxID = id
		}
		path := poolPath(l.dir, id)
		if len(l.pool) >= maxPool {
			if err := os.Remove(path); err != nil {
				return err
			}
			continue
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o666)
		if err != nil {
			return err
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		l.pool = append(l.pool, &segment{id: id, f: f})
	}
	l.nextSeg = maxID + 1
	if len(ids) == 0 {
		return l.nextSegment()
	}
	l.active = l.segs[ids[len(ids)-1]]
	return nil
}

// scanSegment replays one segment into the index. isTail marks the
// lane's last (highest-numbered) segment, where a decode failure or a
// stale record is the end of the log to truncate rather than
// corruption. prevSeq carries the last accepted sequence number across
// the lane's segments: records were appended in sequence order, so a
// record that does not advance it is the stale remnant of a recycled
// file (segments are reused without truncation; the old contents
// survive past the fresh append point) and everything from it to EOF
// was never acknowledged.
func (l *lane) scanSegment(seg *segment, isTail bool, ls *loadState, prevSeq *uint64) error {
	s := l.s
	info, err := seg.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	buf := make([]byte, s.recSize)
	var off int64
	for off = 0; off+int64(s.recSize) <= size; off += int64(s.recSize) {
		if _, err := seg.f.ReadAt(buf, off); err != nil {
			return fmt.Errorf("lane %d segment %d offset %d: %w", l.id, seg.id, off, err)
		}
		rec, err := decodeRecord(buf, s.opt.BlockSize)
		if err != nil {
			if isTail {
				break
			}
			return fmt.Errorf("lane %d segment %d offset %d: %v: %w", l.id, seg.id, off, err, ErrCorrupt)
		}
		if rec.seq <= *prevSeq {
			// Only the tail segment can legitimately show a stale
			// record (fresh appends stopped before overwriting it);
			// mid-log it is corruption, like any mid-log decode
			// failure — sealed segments are full of fresh records.
			if isTail {
				break
			}
			return fmt.Errorf("lane %d segment %d offset %d: stale record (seq %d after %d): %w",
				l.id, seg.id, off, rec.seq, *prevSeq, ErrCorrupt)
		}
		*prevSeq = rec.seq
		ls.apply(s.idx, rec, loc{lane: l.id, seg: seg.id, off: off})
		seg.records++
	}
	if torn := size - off; torn > 0 {
		if !isTail {
			return fmt.Errorf("lane %d segment %d: %d trailing bytes mid-log: %w", l.id, seg.id, torn, ErrCorrupt)
		}
		// Everything from the first bad or stale record to EOF is
		// dropped, even if later slots would decode: the appender
		// writes batch n+1 while batch n is still being fsynced, and a
		// crash can persist the later batch's pages but not the
		// earlier one's — so a valid record after a torn one is
		// expected, and nothing past the tear was ever acknowledged.
		if err := seg.f.Truncate(off); err != nil {
			return err
		}
		ls.mu.Lock()
		ls.truncated += uint64(torn)
		ls.mu.Unlock()
	}
	return nil
}

// nextSegment makes the lane's next segment active, reusing a pooled
// file when one is available — a rename plus pwrite from offset 0, no
// create, no allocation growth — and creating a fresh file otherwise.
// Called by the lane's appender (and by load, before the appender
// starts), never concurrently with itself.
func (l *lane) nextSegment() error {
	s := l.s
	s.mu.Lock()
	id := l.nextSeg
	l.nextSeg++
	var reuse *segment
	if n := len(l.pool); n > 0 {
		reuse = l.pool[n-1]
		l.pool = l.pool[:n-1]
	}
	s.mu.Unlock()

	seg := reuse
	if reuse != nil {
		if err := os.Rename(poolPath(l.dir, reuse.id), segPath(l.dir, id)); err != nil {
			s.mu.Lock()
			l.pool = append(l.pool, reuse)
			s.mu.Unlock()
			return err
		}
		seg.id = id
		seg.records = 0
	} else {
		f, err := os.OpenFile(segPath(l.dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			return err
		}
		seg = &segment{id: id, f: f}
	}
	// Install before the directory fsync so a failure still leaves the
	// handle where closeFiles finds it.
	s.mu.Lock()
	l.segs[id] = seg
	if reuse != nil {
		s.stats.Recycles++
	}
	s.mu.Unlock()
	// The new name must be durable before any record in it is
	// acknowledged; the first batch's own fsync follows this one.
	if s.opt.Sync != SyncNone {
		if err := l.dirf.Sync(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	l.active = seg
	s.mu.Unlock()
	return nil
}

// runAppender collects request groups into group-commit batches and
// appends their records to the lane's log.
func (l *lane) runAppender() {
	defer close(l.sealed)
	s := l.s
	var batch []*writeReq
	for {
		group, ok := <-l.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], group...)
	fill:
		for len(batch) < maxBatch {
			select {
			case group, ok := <-l.reqs:
				if !ok {
					break fill
				}
				batch = append(batch, group...)
			default:
				break fill
			}
		}
		// Adaptive group-commit window: when recent batches proved
		// concurrency the window is nonzero, and the commit stays open
		// for stragglers still waking from their acknowledgements. The
		// wait is arrival-driven: a yield lets waking writers run and
		// enqueue; once a few consecutive yields bring nothing new,
		// everyone still out there is genuinely idle and the batch
		// commits immediately. (A timer would put a fixed floor under
		// every commit, and runtime timers are about a millisecond
		// coarse — several times the fsync this window amortises.)
		if s.opt.Sync == SyncGroup && l.window > 0 && len(batch) < maxBatch {
			deadline := time.Now().Add(l.window)
			idle, spins := 0, 0
		window:
			for len(batch) < maxBatch && idle < 32 {
				select {
				case group, ok := <-l.reqs:
					if !ok {
						break window
					}
					batch = append(batch, group...)
					idle = 0
				default:
					idle++
					// The deadline caps the wait when the scheduler
					// is busy with long-running goroutines; probe the
					// clock sparsely so the spin does not burn the
					// CPU the waking writers need.
					spins++
					if spins%16 == 0 && !time.Now().Before(deadline) {
						break window
					}
					runtime.Gosched()
				}
			}
		}
		if s.opt.Sync == SyncGroup {
			s.windowHist.ObserveValue(l.window.Seconds())
			l.adapt(len(batch))
		}
		l.appendBatch(batch)
	}
}

// adapt resizes the group-commit window from the batch it just closed:
// a filling batch means writers are arriving faster than fsyncs retire
// them, so widening the window (toward the maxWindow cap)
// trades a little latency for fewer, larger fsyncs; a near-empty batch
// means the lane has gone quiet and the window decays to zero so a
// lone sequential writer never waits at all.
func (l *lane) adapt(got int) {
	s := l.s
	switch {
	case got >= maxBatch:
		// Saturated without waiting; the window was not the limit.
	case got >= 4:
		w := min(l.window*2+windowStep, maxWindow)
		if w != l.window {
			l.window = w
			l.windowNs.Store(int64(w))
			s.windowGrows.Add(1)
		}
	case got <= 1:
		if l.window == 0 {
			return
		}
		w := l.window / 2
		if w < windowStep {
			w = 0
		}
		l.window = w
		l.windowNs.Store(int64(w))
		s.windowShrinks.Add(1)
	}
}

// appendBatch admits one batch and appends its records to the lane,
// sealing them to the lane's syncer: the whole batch seals at once.
func (l *lane) appendBatch(batch []*writeReq) {
	s := l.s
	s.mu.Lock()
	if err := s.failed; err != nil {
		s.mu.Unlock()
		for _, r := range batch {
			finish(r, err)
		}
		return
	}
	admitted := batch[:0]
	for _, r := range batch {
		if s.admit(r) {
			admitted = append(admitted, r)
		}
	}
	s.mu.Unlock()
	if len(admitted) == 0 {
		return
	}

	// A batch can exceed maxBatch when whole request groups straddle the
	// drain limit; size the encode buffer for the real batch. The buffer
	// is the lane's reused arena: records are encoded straight into it
	// and written from it, no per-record allocation.
	if need := len(admitted) * s.recSize; cap(l.pendingBuf) < need {
		l.pendingBuf = make([]byte, 0, need)
	}
	pending := l.pendingBuf[:0]
	var placed []placement
	sealUpTo := 0 // records handed to the syncer so far
	// fail rolls back and finishes everything not yet sealed; sealed
	// records are the syncer's to finish.
	fail := func(err error) {
		s.mu.Lock()
		if s.failed == nil {
			s.failed = err
		}
		for _, p := range placed[sealUpTo:] {
			s.pendDone(p.req)
			if p.req.alloc {
				s.idx.drop(p.req.num)
			}
		}
		rest := admitted[len(placed):]
		for _, r := range rest {
			s.pendDone(r)
			if r.alloc {
				s.idx.drop(r.num)
			}
		}
		s.mu.Unlock()
		for _, p := range placed[sealUpTo:] {
			finish(p.req, err)
		}
		for _, r := range rest {
			finish(r, err)
		}
	}
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := l.active.f.WriteAt(pending, l.active.tail(s.recSize)); err != nil {
			return err
		}
		l.active.records += len(pending) / s.recSize
		pending = pending[:0]
		return nil
	}
	seal := func() {
		if len(placed) == sealUpTo {
			return
		}
		l.sealed <- sealedBatch{
			placed:  placed[sealUpTo:len(placed):len(placed)],
			syncSeg: l.active,
		}
		sealUpTo = len(placed)
	}
	for _, r := range admitted {
		if l.active.records+len(pending)/s.recSize >= s.opt.SegmentRecords {
			// Rotate. The invariant load() depends on — segment n+1
			// has no records unless segment n is full and durable —
			// requires draining the pipeline and syncing the old
			// segment before the new one takes its first record.
			if err := flush(); err != nil {
				fail(err)
				return
			}
			seal()
			barrier := make(chan struct{})
			l.sealed <- sealedBatch{barrier: barrier}
			<-barrier
			if s.opt.Sync != SyncNone {
				start := time.Now()
				if err := l.active.f.Sync(); err != nil {
					fail(err)
					return
				}
				s.flushHist.Observe(time.Since(start))
				s.mu.Lock()
				s.stats.Syncs++
				s.mu.Unlock()
			}
			if err := l.nextSegment(); err != nil {
				fail(err)
				return
			}
		}
		at := loc{lane: l.id, seg: l.active.id, off: l.active.tail(s.recSize) + int64(len(pending))}
		rec := record{kind: r.kind, num: uint32(r.num), account: uint32(r.account), seq: s.seq.Add(1), data: r.data}
		start := len(pending)
		pending = pending[:start+s.recSize]
		encodeRecord(pending[start:], s.opt.BlockSize, rec)
		placed = append(placed, placement{req: r, at: at})
	}
	if err := flush(); err != nil {
		fail(err)
		return
	}
	seal()
}

// runSyncer makes the lane's sealed batches durable, applies them to
// the shared index in lane order, and acknowledges their requests.
func (l *lane) runSyncer() {
	defer close(l.syncerDone)
	s := l.s
	for sb := range l.sealed {
		if sb.barrier != nil {
			close(sb.barrier)
			continue
		}
		s.mu.Lock()
		err := s.failed
		s.mu.Unlock()
		if err == nil && s.opt.Sync != SyncNone {
			start := time.Now()
			if serr := sb.syncSeg.f.Sync(); serr != nil {
				err = serr
			} else {
				s.flushHist.Observe(time.Since(start))
			}
		}
		if err != nil {
			s.mu.Lock()
			if s.failed == nil {
				s.failed = err
			}
			for _, p := range sb.placed {
				s.pendDone(p.req)
				if p.req.alloc {
					s.idx.drop(p.req.num)
				}
			}
			s.mu.Unlock()
			for _, p := range sb.placed {
				finish(p.req, err)
			}
			continue
		}
		s.mu.Lock()
		for _, p := range sb.placed {
			switch {
			case p.req.kind == recFree:
				s.idx.drop(p.req.num)
				s.stats.Frees++
			case p.req.alloc:
				s.idx.place(p.req.num, p.req.account, p.at)
				s.stats.Allocs++
			case p.req.onlyIf != nil:
				s.idx.place(p.req.num, p.req.account, p.at)
				s.stats.Relocations++
			default:
				s.idx.place(p.req.num, p.req.account, p.at)
				s.stats.Writes++
			}
			s.pendDone(p.req)
		}
		s.stats.Batches++
		s.stats.BatchRecords += uint64(len(sb.placed))
		if s.opt.Sync != SyncNone {
			s.stats.Syncs++
		}
		s.mu.Unlock()
		s.batchHist.ObserveValue(float64(len(sb.placed)))
		for _, p := range sb.placed {
			finish(p.req, nil)
		}
	}
}
