// Package segstore is the durable block-store backend: a persistent,
// log-structured implementation of block.Store on the real OS
// filesystem, in the style of Plan 9's venti and other append-only
// checksummed block logs.
//
// Layout: a store directory holds K log lanes (log-00/, log-01/, ...,
// one per CPU by default), each holding numbered segment files
// (seg-00000001.log, ...) of fixed-size records, each record framed
// with the block number, owning account, an append sequence number, the
// payload and a CRC32 (see segment.go). Every mutation — allocate-and-
// write, write, claim, free — appends one record; nothing is ever
// updated in place, so a block write is exactly the paper's §4 "atomic
// action, with an acknowledgement that is returned after the block has
// been stored on disk": the acknowledgement is returned after fsync.
// Writes are routed to lanes by a hash of the block number, so all of a
// block's records live in one lane and lane order is the block's
// mutation order; the sequence counter is shared, so a merge of the
// lanes by sequence number reproduces total mutation order.
//
// Open rebuilds the whole in-memory index (block → lane/segment/offset,
// owner) by scanning every lane concurrently; there is no separate
// metadata file to lose or to keep consistent, and the §4 "list blocks
// owned by an account" recovery scan falls out of the same pass. A
// record at the tail of a lane's last segment that fails its CRC — or
// that fails to advance the lane's sequence numbers, the signature of a
// recycled file's stale remnant — is a torn write from a crash and is
// truncated away: the write was never acknowledged, so discarding it
// mirrors the simulated disk's lost-unacked-write semantics
// (disk.Crash).
//
// Durability is group-committed per lane: concurrent writers' records
// are batched by the lane's appender goroutine and made durable with
// one fsync per batch, so the per-write fsync cost is amortised across
// however many writers hashed into the lane (the AsyncFS observation:
// make the sync path batch-friendly and the hot path stays fast). The
// commit window adapts to the arrival rate — zero for a lone writer,
// growing toward a 2 ms cap under load. SyncNone skips the fsync
// altogether, for benchmarks and tests.
//
// Garbage from superseded records is reclaimed by a compactor that
// copies a segment's few live records to its lane's tail and recycles
// the segment file into the lane's free pool for reuse, running — like
// the paper's §5.4 garbage collector — "independent of, and in
// parallel with" normal operation.
package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Store errors, in addition to the block package's sentinel errors
// (block.ErrNotAllocated etc.), which this backend returns for the same
// conditions so errors.Is works identically against either backend.
var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("segstore: closed")
	// ErrCorrupt reports a record that failed its CRC outside the
	// truncatable log tail: real media corruption. It is branded with
	// the shared block.ErrCorrupt sentinel, so layers above (the
	// stable-storage companion fallback in particular) classify
	// corruption identically over the simulated disk and the segment
	// log, locally or across the wire.
	ErrCorrupt = block.MarkCorrupt(errors.New("segstore: corrupt"))
	// ErrGeometry reports Open options that contradict the geometry the
	// store directory was created with.
	ErrGeometry = errors.New("segstore: geometry mismatch")
)

// SyncMode selects how write acknowledgements relate to fsync.
type SyncMode int

const (
	// SyncGroup (the default) batches concurrent writes into one fsync:
	// every acknowledged write is durable, and the fsync cost is shared
	// by the whole batch.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs (the OS flushes when it pleases); a crash
	// may lose acknowledged writes. For benchmarks and tests only.
	SyncNone
)

// String implements flag.Value-style printing.
func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses "group" or "none".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("segstore: unknown sync mode %q (want group or none)", s)
}

// maxShards bounds Options.LogShards; far above any plausible CPU
// count this store will meet, it only guards the meta file parse.
const maxShards = 64

// Options configures Open. The zero value is usable.
type Options struct {
	// BlockSize is the payload size in bytes (default 4096). Pinned in
	// the store's meta file at creation; reopening with a different
	// value fails with ErrGeometry.
	BlockSize int
	// SegmentRecords is how many records fill a segment before the log
	// rolls to a new file (default 1024). Also pinned at creation.
	SegmentRecords int
	// Capacity is the number of allocatable block numbers (default
	// 1<<20). A runtime policy, not persisted: it may grow between
	// opens.
	Capacity int
	// LogShards is the number of log lanes writes are striped over
	// (default runtime.GOMAXPROCS, capped at 8). Pinned in the meta
	// file at creation like BlockSize — the routing hash must stay
	// stable — so reopening an existing store adopts its stored value
	// and ignores this field. A store written with the old flat layout
	// adopts LogShards when it is upgraded on first open.
	LogShards int
	// Sync is the durability mode (default SyncGroup).
	Sync SyncMode
	// CompactEvery runs the background compactor at this interval; zero
	// disables it (CompactOnce still works on demand).
	CompactEvery time.Duration
	// CompactMinGarbage is the fraction of a sealed segment's records
	// that must be dead before it is an eligible compaction victim
	// (default 0.5).
	CompactMinGarbage float64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = 1024
	}
	if o.Capacity <= 0 {
		o.Capacity = 1 << 20
	}
	if o.LogShards <= 0 {
		o.LogShards = runtime.GOMAXPROCS(0)
		if o.LogShards > 8 {
			o.LogShards = 8
		}
	}
	if o.LogShards > maxShards {
		o.LogShards = maxShards
	}
	if o.CompactMinGarbage <= 0 {
		o.CompactMinGarbage = 0.5
	}
	return o
}

// Stats counts operations on a Store.
type Stats struct {
	// The block.Store operation counters, matching block.Stats.
	Allocs, Frees, Reads, Writes, Locks, Unlocks uint64
	LockConflicts                                uint64

	// Group-commit counters: Batches fsync-batches written, holding
	// BatchRecords records in total, with Syncs actual fsyncs issued.
	Batches, BatchRecords, Syncs uint64

	// Adaptive-window counters: how often any lane widened or narrowed
	// its group-commit window.
	WindowGrows, WindowShrinks uint64

	// Compaction counters. Recycles counts segment files reused from a
	// lane's free pool instead of being created fresh. CompactErrors
	// counts background compaction passes that failed (see
	// LastCompactError for the most recent failure).
	Compactions, Relocations, SegmentsReclaimed, Recycles uint64
	CompactErrors                                         uint64

	// TruncatedBytes is how much torn tail the last Open cut off.
	TruncatedBytes uint64

	// LanesRecreated is how many lane directories the last Open found
	// missing from a store that already held data and recreated empty
	// (see RecreatedLanes). Acknowledged blocks routed to a recreated
	// lane read as never-allocated.
	LanesRecreated uint64
}

// writeReq is one mutation queued to a lane's appender.
type writeReq struct {
	kind    byte // recData or recFree
	alloc   bool // block number was reserved for a fresh allocation
	onlyIf  *loc // relocation: append only if the index still points here
	num     block.Num
	account block.Account
	data    []byte

	err     error
	skipped bool // relocation guard failed; not an error
	queued  bool // reached a lane; the pipeline owns its completion
	// done is buffered and reused across pool generations: finish
	// sends rather than closes, so the request can go back to reqPool.
	done chan struct{}
}

// reqPool recycles writeReqs so the steady-state append path reuses the
// request and its done channel across calls.
var reqPool = sync.Pool{New: func() any {
	return &writeReq{done: make(chan struct{}, 1)}
}}

// getReq takes a clean request from the pool.
func getReq() *writeReq { return reqPool.Get().(*writeReq) }

// putReq returns a request to the pool. The caller must own it again:
// its completion delivered and consumed, or the request never queued.
func putReq(r *writeReq) {
	r.kind, r.alloc, r.onlyIf = 0, false, nil
	r.num, r.account, r.data = 0, 0, nil
	r.err, r.skipped, r.queued = nil, false, false
	reqPool.Put(r)
}

// pendState tracks records that are admitted to the log but not yet
// applied to the index (they sit in a lane's appender→syncer pipeline).
// Admission decisions consult it so that in-flight, unapplied mutations
// behave as if already serialised: a write after an in-flight free
// fails, and a compactor relocation never runs ahead of an in-flight
// write to the same block.
type pendState struct {
	count int  // in-flight records for this block
	free  bool // one of them is a free
}

// placement pairs an admitted request with the log position its record
// was appended at.
type placement struct {
	req *writeReq
	at  loc
}

// sealedBatch travels from a lane's appender to its syncer: records
// already written (but not yet fsynced) to syncSeg. A barrier batch
// carries no records; the syncer just signals that everything before it
// has been processed.
type sealedBatch struct {
	placed  []placement
	syncSeg *segment
	barrier chan struct{}
}

// Store is a durable block store rooted in one directory. It implements
// block.Store; all methods are safe for concurrent use.
type Store struct {
	// Scalar derives Alloc/Free/Read/Write from the vectored operations,
	// so every mutation takes the one request-group path to its lane.
	block.Scalar

	dir     string
	opt     Options
	recSize int

	// mu guards the index, the pending table, the lanes' segment
	// tables, stats, and failure state.
	mu       sync.Mutex
	idx      *index
	pend     map[block.Num]pendState
	lanes    []*lane
	dirf     *os.File // for fsyncing top-level directory entries
	stats    Stats
	epoch    uint64 // persisted block.EpochStore value (file "epoch")
	epochBad bool   // epoch file present but unparsable: detection off
	failed   error  // sticky first append-path I/O error
	closed   bool

	// recreated lists lanes whose directories Open had to recreate
	// empty on a store that already held data: lost acknowledged blocks
	// (see RecreatedLanes). Written once by Open, read-only after.
	recreated []int
	// compactErr is the most recent background-compaction failure,
	// cleared by the next successful pass.
	compactErr error

	// seq issues record sequence numbers: globally monotonic across
	// lanes, so a by-sequence merge of the lanes is total mutation
	// order, and a recycled file's stale remnants (always older than
	// anything fresh) are detectable on scan.
	seq atomic.Uint64

	// sendMu guards lane-channel sends against channel close.
	// Mutations flow l.reqs → appender → l.sealed → syncer; each
	// syncer's exit closes its lane's syncerDone. The channels carry
	// request groups: a multi-block operation's records travel as one
	// group per lane and therefore land in one group-commit batch (one
	// fsync per lane), instead of making N independent trips through
	// the pipelines.
	sendMu sync.RWMutex

	// Always-on instrumentation (see Histograms).
	appendHist *metrics.Histogram
	flushHist  *metrics.Histogram
	batchHist  *metrics.Histogram
	windowHist *metrics.Histogram

	windowGrows   atomic.Uint64
	windowShrinks atomic.Uint64

	// compactMu serialises compaction passes: two concurrent passes
	// could elect the same victim and recycle it twice.
	compactMu   sync.Mutex
	stopCompact chan struct{}
	compactWG   sync.WaitGroup
	closeOnce   sync.Once
}

// maxBatch bounds how many queued requests one fsync batch absorbs.
const maxBatch = 128

// Open opens (creating if necessary) the store in dir and rebuilds the
// index by scanning every lane's segment files concurrently.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if opt.Capacity > int(block.MaxNum) {
		return nil, fmt.Errorf("segstore: capacity %d exceeds max block number %d", opt.Capacity, block.MaxNum)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	// The top-level flock covers the meta and epoch files; each lane
	// carries its own for its segments.
	if err := lockDir(dirf); err != nil {
		dirf.Close()
		return nil, fmt.Errorf("segstore: %s: %w", dir, err)
	}
	shards, legacy, fresh, err := loadMeta(dir, &opt)
	if err != nil {
		dirf.Close()
		return nil, err
	}
	epoch, epochBad, err := loadEpoch(dir)
	if err != nil {
		dirf.Close()
		return nil, err
	}
	s := &Store{
		dir:        dir,
		opt:        opt,
		recSize:    recordSize(opt.BlockSize),
		idx:        newIndex(),
		pend:       make(map[block.Num]pendState),
		dirf:       dirf,
		appendHist: new(metrics.Histogram),
		flushHist:  new(metrics.Histogram),
		batchHist:  metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128),
		windowHist: metrics.NewHistogram(0, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2e-3, 5e-3),
	}
	s.Scalar = block.Scalar{Multi: s}
	s.epoch, s.epochBad = epoch, epochBad
	for i := 0; i < shards; i++ {
		l, err := openLane(s, i)
		if err != nil {
			s.closeFiles(false)
			return nil, err
		}
		s.lanes = append(s.lanes, l)
	}
	if err := s.migrateFlat(legacy); err != nil {
		s.closeFiles(false)
		return nil, err
	}
	if err := s.load(); err != nil {
		s.closeFiles(false)
		return nil, err
	}
	createdAny := false
	for _, l := range s.lanes {
		if l.created {
			createdAny = true
		}
	}
	if fresh || createdAny {
		// The lane directory entries (and a fresh meta file) must be
		// durable before any write is acknowledged: each lane fsyncs its
		// own directory, but the lane dirs and the meta are entries in
		// the top-level directory, and losing one to a power cut would
		// silently drop a whole lane's acknowledged records on the next
		// open.
		if err := s.dirf.Sync(); err != nil {
			s.closeFiles(false)
			return nil, err
		}
	}
	if !fresh && !legacy && s.seq.Load() > 0 {
		// A lane directory that had to be recreated on a store that
		// already held data is a lost lane (dead disk stripe, errant
		// rm): its acknowledged blocks now read as never-allocated. The
		// store still opens — the surviving lanes are intact — but the
		// loss is surfaced rather than silent.
		for _, l := range s.lanes {
			if l.created {
				s.recreated = append(s.recreated, l.id)
			}
		}
		s.stats.LanesRecreated = uint64(len(s.recreated))
	}
	for _, l := range s.lanes {
		go l.runAppender()
		go l.runSyncer()
	}
	if opt.CompactEvery > 0 {
		s.stopCompact = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// epochName is the persisted epoch file (block.EpochStore): bumped by
// the stable layer when this store's companion goes down, compared by a
// fresh pair to spot boot-time divergence. One fsynced line.
const epochName = "epoch"

// loadEpoch reads the epoch file; a missing file is epoch zero. An
// unparsable file must not brick an otherwise intact store, but it
// must not report zero either — a survivor whose epoch file rotted
// would then look OLDER than the stale half and be elected the
// full-copy target, destroying the very writes the epoch protects. It
// reports bad=true instead: Epoch() then errors and the pair skips
// automatic divergence detection until the file is rewritten (the
// next epoch write, or the operator by hand).
func loadEpoch(dir string) (uint64, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	var e uint64
	if _, err := fmt.Sscanf(string(raw), "epoch %d", &e); err != nil {
		return 0, true, nil
	}
	return e, false, nil
}

// Epoch implements block.EpochStore.
func (s *Store) Epoch() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.epochBad {
		return 0, fmt.Errorf("segstore: %s file unparsable; divergence detection disabled until the next epoch write", epochName)
	}
	return s.epoch, nil
}

// SetEpoch implements block.EpochStore: the value is on disk before the
// acknowledgement, like every other acknowledged mutation. The file is
// replaced atomically (write-new, fsync, rename, fsync the directory),
// so a crash at any point leaves either the old epoch or the new one —
// never a torn file that would mask a divergence.
func (s *Store) SetEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmp := filepath.Join(s.dir, epochName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "epoch %d\n", e); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, epochName)); err != nil {
		return err
	}
	if err := s.dirf.Sync(); err != nil {
		return err
	}
	s.epoch, s.epochBad = e, false
	return nil
}

// metaName is the geometry pin file: one line of sizes written at store
// creation. It is not needed for recovery — the index is rebuilt purely
// from the segments — it only guards against reopening with the wrong
// record geometry (which would misparse every offset) or the wrong lane
// count (which would re-route every block).
const metaName = "meta"

// writeMeta atomically writes the version-2 meta line.
func writeMeta(dir string, opt Options, shards int) error {
	line := fmt.Sprintf("segstore 2 blocksize %d segrecords %d shards %d\n", opt.BlockSize, opt.SegmentRecords, shards)
	tmp := filepath.Join(dir, metaName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(line); err != nil {
		f.Close()
		return err
	}
	// Fsync the meta content: losing it to a power cut would leave the
	// store's intact, acknowledged segments unopenable.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaName))
}

// loadMeta validates opt against an existing store's meta file, or
// writes one for a fresh store. It reports the lane count to run with,
// whether the directory is an old flat-layout (version 1) store that
// still needs its upgrade finished, and whether the meta was written
// fresh just now (a brand-new store).
func loadMeta(dir string, opt *Options) (shards int, legacy, fresh bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		// No meta: only a genuinely empty directory may be initialised
		// as a new store. Top-level segments (flat layout) or lane
		// directories with a lost meta must refuse — writing a fresh
		// meta would re-pin LogShards from this process's defaults,
		// changing the routing hash and silently orphaning every
		// acknowledged record in lanes beyond the new count.
		ids, err := listSegments(dir)
		if err != nil {
			return 0, false, false, err
		}
		lanes, err := listLaneDirs(dir)
		if err != nil {
			return 0, false, false, err
		}
		if len(ids) > 0 || len(lanes) > 0 {
			return 0, false, false, fmt.Errorf("segstore: %s has log data but no %s file: %w", dir, metaName, ErrCorrupt)
		}
		if err := writeMeta(dir, *opt, opt.LogShards); err != nil {
			return 0, false, false, err
		}
		return opt.LogShards, false, true, nil
	}
	if err != nil {
		return 0, false, false, err
	}
	var version int
	if _, err := fmt.Sscanf(string(raw), "segstore %d", &version); err != nil {
		return 0, false, false, fmt.Errorf("segstore: bad %s file: %w", metaName, err)
	}
	var bsize, srecs int
	switch version {
	case 1:
		// The old flat layout: segments in the top-level directory, no
		// lane count. Adopt the requested LogShards; Open moves the
		// files into lane 0 and rewrites the meta.
		if _, err := fmt.Sscanf(string(raw), "segstore 1 blocksize %d segrecords %d", &bsize, &srecs); err != nil {
			return 0, false, false, fmt.Errorf("segstore: bad %s file: %w", metaName, err)
		}
		shards, legacy = opt.LogShards, true
	case 2:
		if _, err := fmt.Sscanf(string(raw), "segstore 2 blocksize %d segrecords %d shards %d", &bsize, &srecs, &shards); err != nil {
			return 0, false, false, fmt.Errorf("segstore: bad %s file: %w", metaName, err)
		}
		if shards < 1 || shards > maxShards {
			return 0, false, false, fmt.Errorf("segstore: %s names %d shards (want 1..%d): %w", metaName, shards, maxShards, ErrCorrupt)
		}
	default:
		return 0, false, false, fmt.Errorf("segstore: %s version %d not supported", metaName, version)
	}
	if bsize != opt.BlockSize || srecs != opt.SegmentRecords {
		return 0, false, false, fmt.Errorf("store has blocksize %d segrecords %d, opened with %d and %d: %w",
			bsize, srecs, opt.BlockSize, opt.SegmentRecords, ErrGeometry)
	}
	return shards, legacy, false, nil
}

// migrateFlat sweeps any top-level segment files into lane 0: the whole
// of an old flat-layout store on its first open under this version, or
// the un-fsynced stragglers of an upgrade a crash interrupted. The
// records keep their ids and sequence numbers — lane 0 simply starts
// life with history in it, and blocks whose hash says another lane
// migrate there naturally as compaction relocates their records. Once
// the files are in place (and durably so), the meta is rewritten as
// version 2, pinning the lane count.
func (s *Store) migrateFlat(legacy bool) error {
	ids, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	if len(ids) == 0 && !legacy {
		return nil
	}
	l0 := s.lanes[0]
	for _, id := range ids {
		if err := os.Rename(segPath(s.dir, id), segPath(l0.dir, id)); err != nil {
			return err
		}
	}
	if len(ids) > 0 {
		if err := l0.dirf.Sync(); err != nil {
			return err
		}
		if err := s.dirf.Sync(); err != nil {
			return err
		}
	}
	if legacy {
		if err := writeMeta(s.dir, s.opt, len(s.lanes)); err != nil {
			return err
		}
		if err := s.dirf.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// load scans every lane concurrently, merging their records into the
// shared index by sequence number.
func (s *Store) load() error {
	ls := &loadState{lastSeq: make(map[block.Num]uint64)}
	errs := make([]error, len(s.lanes))
	var wg sync.WaitGroup
	for _, l := range s.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			errs[l.id] = l.load(ls)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.seq.Store(ls.maxSeq)
	s.stats.TruncatedBytes = ls.truncated
	return nil
}

// --- the write pipeline ---
//
// Mutations flow through two goroutines per lane so the fsync of one
// batch overlaps the collection and encoding of the next:
//
//	clients → l.reqs → appender (admit, encode, write) → l.sealed →
//	syncer (fsync, apply to index, acknowledge)
//
// Each lane's appender is the sole admission point and sole log writer
// for its lane, so checks and appends are atomic in lane order; the
// lane's syncer applies batches to the index in that same order. A
// block's records all live in one lane (the routing hash is per block
// number), so per-block the in-memory state always equals what a replay
// of the durable log would rebuild, and a request is acknowledged only
// after its record is fsynced.

// laneIndex routes a block number to its lane: a multiplicative hash so
// neighbouring block numbers (one file's blocks, typically allocated
// together) spread across lanes instead of convoying in one.
func (s *Store) laneIndex(n block.Num) int {
	if len(s.lanes) == 1 {
		return 0
	}
	return int((uint64(n) * 0x9e3779b97f4a7c15 >> 32) % uint64(len(s.lanes)))
}

// finish completes one request.
func finish(r *writeReq, err error) {
	r.err = err
	r.done <- struct{}{}
}

// pendDone retires one in-flight record. Caller holds s.mu.
func (s *Store) pendDone(r *writeReq) {
	p := s.pend[r.num]
	p.count--
	if r.kind == recFree {
		p.free = false
	}
	if p.count <= 0 {
		delete(s.pend, r.num)
	} else {
		s.pend[r.num] = p
	}
}

// admit decides one request under s.mu, as if all in-flight records had
// already been applied (the pending table stands in for them). It
// reports whether the request proceeds to the log; rejected requests
// are finished here.
func (s *Store) admit(r *writeReq) bool {
	switch {
	case r.alloc:
		// The block number was already reserved at submission — the
		// request had to be routed to its lane by number — so only the
		// size check below remains.
	case r.onlyIf != nil:
		// Relocation: only while the index still points at the guarded
		// record AND nothing newer is in flight for the block.
		e, ok := s.idx.entries[r.num]
		if s.pend[r.num].count > 0 || !ok || e.loc != *r.onlyIf {
			r.skipped = true
			finish(r, nil)
			return false
		}
		r.account = e.owner
	default:
		if s.pend[r.num].free {
			finish(r, fmt.Errorf("block %d: %w", r.num, block.ErrNotAllocated))
			return false
		}
		if err := s.idx.checkOwner(r.account, r.num); err != nil {
			finish(r, err)
			return false
		}
	}
	if len(r.data) > s.opt.BlockSize {
		// Multi-op requests reach admission without the entry-point size
		// check, so each oversized payload fails individually here.
		if r.alloc {
			s.idx.drop(r.num)
		}
		finish(r, fmt.Errorf("segstore: %d bytes into %d-byte block", len(r.data), s.opt.BlockSize))
		return false
	}
	p := s.pend[r.num]
	p.count++
	if r.kind == recFree {
		p.free = true
	}
	s.pend[r.num] = p
	return true
}

// send queues one request group to a lane; wait for each request's
// done before reading its err. A group always lands in a single
// appender batch (and so at most one fsync), which is what makes the
// multi-block operations one trip through the pipeline per lane.
func (s *Store) send(l *lane, group []*writeReq) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	l.reqs <- group
	return nil
}

// submitMany splits a multi-block operation's requests across their
// lanes (order-preserving within each lane, in maxBatch-sized groups)
// and waits for all of them, returning the first (lowest-index) error
// and its index. Each request's own outcome stays readable in
// r.err/r.skipped.
func (s *Store) submitMany(reqs []*writeReq) (int, error) {
	start := time.Now()
	defer func() { s.appendHist.Observe(time.Since(start)) }()
	if len(s.lanes) == 1 {
		s.sendChunks(s.lanes[0], reqs)
	} else {
		perLane := make([][]*writeReq, len(s.lanes))
		for _, r := range reqs {
			li := s.laneIndex(r.num)
			perLane[li] = append(perLane[li], r)
		}
		for li, group := range perLane {
			if len(group) == 0 {
				continue
			}
			if !s.sendChunks(s.lanes[li], group) {
				break
			}
		}
	}
	firstIdx := -1
	var first error
	for i, r := range reqs {
		if r.queued {
			<-r.done
		} else {
			// Never enqueued (store closed mid-operation): fail
			// uniformly, and roll back a reservation the pipeline
			// never saw.
			r.err = ErrClosed
			if r.alloc {
				s.dropReservation(r.num)
			}
		}
		if r.err != nil && first == nil {
			firstIdx, first = i, r.err
		}
	}
	return firstIdx, first
}

// sendChunks queues one lane's share of a multi-block operation in
// maxBatch-sized groups, reporting whether every group was accepted.
func (s *Store) sendChunks(l *lane, group []*writeReq) bool {
	for start := 0; start < len(group); start += maxBatch {
		end := start + maxBatch
		if end > len(group) {
			end = len(group)
		}
		if err := s.send(l, group[start:end]); err != nil {
			return false
		}
		for _, r := range group[start:end] {
			r.queued = true
		}
	}
	return true
}

// dropReservation rolls back a reservation whose request never reached
// the pipeline (the pipeline's own failure paths roll back the ones
// that did).
func (s *Store) dropReservation(n block.Num) {
	s.mu.Lock()
	if e, ok := s.idx.entries[n]; ok && e.loc == (loc{}) {
		s.idx.drop(n)
	}
	s.mu.Unlock()
}

// --- block.Store ---

// BindTrace implements block.TraceBinder: segstore operations run under
// leaf spans (layer "segstore") covering the full lane append + group
// commit fsync wait; the store's internals are not trace-aware.
func (s *Store) BindTrace(tc trace.Context) block.Store {
	return block.TracedLeaf(s, tc, "segstore", "lane")
}

// BlockSize implements block.Store.
func (s *Store) BlockSize() int { return s.opt.BlockSize }

// Claim allocates a specific block number, failing if it is taken — the
// same companion-pair operation block.Server has: ClaimMulti of one
// block with no data. Durable: a claim appends an empty data record.
func (s *Store) Claim(account block.Account, n block.Num) error {
	err := s.ClaimMulti(account, []block.Num{n}, nil)
	if me, ok := err.(*block.MultiError); ok {
		return me.Err
	}
	return err
}

// ClaimMulti implements block.ClaimMultiStore: a companion half's whole
// mirror leg. Every number is reserved under one lock acquisition — one
// that is taken or out of range refuses them all — and the payloads go
// to the lanes as one alloc-flagged request group per lane, so the leg
// costs at most one fsync per lane however many blocks it carries.
func (s *Store) ClaimMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if data != nil && len(data) != len(ns) {
		return fmt.Errorf("segstore: multi claim with %d blocks, %d payloads", len(ns), len(data))
	}
	_, err := s.reserveAndAppend("claim", account, len(ns), data, func(i int) (block.Num, error) {
		n := ns[i]
		if n == block.NilNum || int(n) > s.opt.Capacity {
			return n, fmt.Errorf("segstore: block %d out of range 1..%d", n, s.opt.Capacity)
		}
		return n, s.idx.reserve(account, n)
	})
	return err
}

// readRecord loads and verifies the record at l; caller holds s.mu.
func (s *Store) readRecord(n block.Num, l loc) ([]byte, error) {
	if l.lane < 0 || l.lane >= len(s.lanes) {
		return nil, fmt.Errorf("block %d: lane %d out of range: %w", n, l.lane, ErrCorrupt)
	}
	seg, ok := s.lanes[l.lane].segs[l.seg]
	if !ok {
		return nil, fmt.Errorf("block %d: lane %d segment %d missing: %w", n, l.lane, l.seg, ErrCorrupt)
	}
	buf := make([]byte, s.recSize)
	if _, err := seg.f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("block %d: %w", n, err)
	}
	rec, err := decodeRecord(buf, s.opt.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("block %d (lane %d segment %d offset %d): %v: %w", n, l.lane, l.seg, l.off, err, ErrCorrupt)
	}
	if block.Num(rec.num) != n || rec.kind != recData {
		return nil, fmt.Errorf("block %d (lane %d segment %d offset %d): record names block %d: %w", n, l.lane, l.seg, l.off, rec.num, ErrCorrupt)
	}
	return rec.data, nil
}

// Lock implements block.Store. Lock bits are volatile (§5.2 commit
// critical-section state): a restart clears them, as block servers do
// after a crash.
func (s *Store) Lock(account block.Account, n block.Num) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idx.checkOwner(account, n); err != nil {
		return err
	}
	e := s.idx.entries[n]
	if e.locked {
		s.stats.LockConflicts++
		return fmt.Errorf("block %d: %w", n, block.ErrLocked)
	}
	e.locked = true
	s.idx.entries[n] = e
	s.stats.Locks++
	return nil
}

// Unlock implements block.Store.
func (s *Store) Unlock(account block.Account, n block.Num) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idx.checkOwner(account, n); err != nil {
		return err
	}
	e := s.idx.entries[n]
	if !e.locked {
		return fmt.Errorf("block %d: %w", n, block.ErrNotLocked)
	}
	e.locked = false
	s.idx.entries[n] = e
	s.stats.Unlocks++
	return nil
}

// Recover implements block.Store: the §4 recovery scan, straight off
// the rebuilt index.
func (s *Store) Recover(account block.Account) ([]block.Num, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.recover(account), nil
}

var _ block.Store = (*Store)(nil)
var _ block.MultiStore = (*Store)(nil)
var _ block.ClaimMultiStore = (*Store)(nil)
var _ block.EpochStore = (*Store)(nil)

// --- block.MultiStore ---
//
// The multi-block operations follow the contract documented on
// block.MultiStore. Their records travel as one request group per lane,
// so an N-block batch rides one group-commit window per lane it touches
// — at most K fsyncs — instead of N independent trips through the
// pipelines.

// ReadMulti implements block.MultiStore: one index-lock acquisition for
// the whole batch (all-or-nothing; reads modify nothing). Every payload
// is CRC-checked on every read, so media corruption surfaces as
// ErrCorrupt rather than as silently wrong data.
func (s *Store) ReadMulti(account block.Account, ns []block.Num) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([][]byte, len(ns))
	for i, n := range ns {
		if err := s.idx.checkOwner(account, n); err != nil {
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: err}
		}
		e := s.idx.entries[n]
		if e.loc == (loc{}) {
			// Reserved by a Claim (or an alloc still in flight): no
			// record yet, so the block reads as zeroes like a
			// never-written disk block.
			out[i] = make([]byte, s.opt.BlockSize)
			continue
		}
		data, err := s.readRecord(n, e.loc)
		if err != nil {
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: err}
		}
		out[i] = data
	}
	s.stats.Reads += uint64(len(ns))
	return out, nil
}

// WriteMulti implements block.MultiStore: per-block independence, all
// records in one group per lane (one fsync each), first error returned.
func (s *Store) WriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("segstore: multi write with %d blocks, %d payloads", len(ns), len(data))
	}
	reqs := make([]*writeReq, len(ns))
	for i := range ns {
		r := getReq()
		r.kind, r.num, r.account, r.data = recData, ns[i], account, data[i]
		reqs[i] = r
	}
	idx, err := s.submitMany(reqs)
	for _, r := range reqs {
		putReq(r)
	}
	if err != nil {
		return &block.MultiError{Op: "write", Index: idx, N: len(ns), Err: err}
	}
	return nil
}

// AllocMulti implements block.MultiStore: all-or-nothing — on any
// failure the blocks that were allocated are freed again before the
// error returns. The store chooses the numbers; the rest is ClaimMulti's
// body.
func (s *Store) AllocMulti(account block.Account, data [][]byte) ([]block.Num, error) {
	return s.reserveAndAppend("alloc", account, len(data), data, func(int) (block.Num, error) {
		return s.idx.allocNum(account, s.opt.Capacity)
	})
}

// reserveAndAppend is the one body of AllocMulti and ClaimMulti. Under
// one s.mu acquisition it takes count numbers from pick (called with
// the lock held; a failure drops the reservations made so far and is
// reported at its index), then appends the payloads (nil: empty
// records) as alloc-flagged requests, one group per lane. A pipeline
// failure frees whatever did land, so nothing stays allocated.
func (s *Store) reserveAndAppend(op string, account block.Account, count int, data [][]byte, pick func(i int) (block.Num, error)) ([]block.Num, error) {
	reqs := make([]*writeReq, count)
	s.mu.Lock()
	err := s.failed
	if s.closed {
		err = ErrClosed
	}
	if err != nil {
		s.mu.Unlock()
		return nil, &block.MultiError{Op: op, Index: 0, N: count, Err: err}
	}
	for i := range reqs {
		n, err := pick(i)
		if err != nil {
			for _, r := range reqs[:i] {
				s.idx.drop(r.num)
				putReq(r)
			}
			s.mu.Unlock()
			return nil, &block.MultiError{Op: op, Index: i, N: count, Err: err}
		}
		r := getReq()
		r.kind, r.alloc, r.num, r.account = recData, true, n, account
		if data != nil {
			r.data = data[i]
		}
		reqs[i] = r
	}
	s.mu.Unlock()
	if idx, err := s.submitMany(reqs); err != nil {
		var got []block.Num
		for _, r := range reqs {
			if r.err == nil {
				got = append(got, r.num)
			}
		}
		for _, r := range reqs {
			putReq(r)
		}
		if len(got) > 0 {
			_ = s.FreeMulti(account, got) // best-effort rollback
		}
		return nil, &block.MultiError{Op: op, Index: idx, N: count, Err: err}
	}
	out := make([]block.Num, count)
	for i, r := range reqs {
		out[i] = r.num
		putReq(r)
	}
	return out, nil
}

// FreeMulti implements block.MultiStore: per-block independence, all
// free records in one group per lane, first error returned.
func (s *Store) FreeMulti(account block.Account, ns []block.Num) error {
	reqs := make([]*writeReq, len(ns))
	for i, n := range ns {
		r := getReq()
		r.kind, r.num, r.account = recFree, n, account
		reqs[i] = r
	}
	idx, err := s.submitMany(reqs)
	for _, r := range reqs {
		putReq(r)
	}
	if err != nil {
		return &block.MultiError{Op: "free", Index: idx, N: len(ns), Err: err}
	}
	return nil
}

// --- management ---

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Capacity returns the number of allocatable blocks.
func (s *Store) Capacity() int { return s.opt.Capacity }

// Lanes returns the number of log lanes the store runs with, pinned at
// creation.
func (s *Store) Lanes() int { return len(s.lanes) }

// RecreatedLanes reports which lane directories Open found missing from
// a store that already held data and recreated empty: a lost lane
// (dead disk stripe, errant rm) whose acknowledged blocks now read as
// never-allocated. Empty on a healthy open. Callers that cannot
// tolerate the loss should close the store and restore the lane from a
// replica instead of writing on.
func (s *Store) RecreatedLanes() []int {
	out := make([]int, len(s.recreated))
	copy(out, s.recreated)
	return out
}

// LastCompactError returns the most recent background-compaction
// failure, or nil if the last pass that reclaimed anything succeeded.
// Stats().CompactErrors counts how many passes have failed in total.
func (s *Store) LastCompactError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactErr
}

// InUse returns the number of currently allocated blocks.
func (s *Store) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx.entries)
}

// Segments returns the number of live segment files across all lanes
// (free-pool files not included).
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.lanes {
		n += len(l.segs)
	}
	return n
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.WindowGrows = s.windowGrows.Load()
	st.WindowShrinks = s.windowShrinks.Load()
	return st
}

// LaneStat is one lane's point-in-time load picture, for the per-lane
// queue-depth gauges on /metrics and for shutdown stats.
type LaneStat struct {
	Lane       int
	QueueDepth int           // request groups waiting for the appender
	Window     time.Duration // current adaptive group-commit window
	Segments   int           // live segment files
	PoolFree   int           // recycled segment files awaiting reuse
}

// LaneStats snapshots every lane.
func (s *Store) LaneStats() []LaneStat {
	out := make([]LaneStat, len(s.lanes))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range s.lanes {
		out[i] = LaneStat{
			Lane:       i,
			QueueDepth: len(l.reqs),
			Window:     time.Duration(l.windowNs.Load()),
			Segments:   len(l.segs),
			PoolFree:   len(l.pool),
		}
	}
	return out
}

// Collect is the store's metrics collector: the group-commit and
// compaction counters, the always-on latency and batching histograms,
// and each lane's load picture.
func (s *Store) Collect(e *metrics.Emitter) {
	st := s.Stats()
	e.Counters("afs_segstore_total", "Segment-log events by kind.", "event", map[string]uint64{
		"batches": st.Batches, "batch_records": st.BatchRecords, "fsyncs": st.Syncs,
		"compactions": st.Compactions, "relocations": st.Relocations, "segments_reclaimed": st.SegmentsReclaimed,
		"recycles": st.Recycles, "window_grows": st.WindowGrows, "window_shrinks": st.WindowShrinks,
		"compact_errors": st.CompactErrors, "lanes_recreated": st.LanesRecreated,
	})
	e.Histogram("afs_segstore_append_seconds", "Client-visible append latency, submit to durable acknowledgement.", s.appendHist.Snapshot())
	e.Histogram("afs_segstore_flush_seconds", "Duration of each segment-log fsync.", s.flushHist.Snapshot())
	e.Histogram("afs_segstore_batch_pages", "Records carried per group-commit batch.", s.batchHist.Snapshot())
	e.Histogram("afs_segstore_window_seconds", "Adaptive group-commit window in force at each batch.", s.windowHist.Snapshot())
	for _, ls := range s.LaneStats() {
		lane := strconv.Itoa(ls.Lane)
		e.Gauge("afs_segstore_lane_queue_depth", "Request groups waiting per log lane.", float64(ls.QueueDepth), "lane", lane)
		e.Gauge("afs_segstore_lane_window_seconds", "Current adaptive commit window per log lane.", ls.Window.Seconds(), "lane", lane)
		e.Gauge("afs_segstore_lane_segments", "Live segment files per log lane.", float64(ls.Segments), "lane", lane)
		e.Gauge("afs_segstore_lane_pool_free", "Recycled segment files awaiting reuse per log lane.", float64(ls.PoolFree), "lane", lane)
	}
}

// Usage implements block.UsageReporter, so a sharding facade (or a
// remote mount) can read this store's allocation headroom.
func (s *Store) Usage() (block.Usage, error) {
	return block.Usage{Capacity: s.Capacity(), InUse: s.InUse()}, nil
}

// BlockStats implements block.StatsReporter: the common counter subset,
// including the fsync count, in the shape the wire protocol carries.
func (s *Store) BlockStats() (block.Stats, error) {
	st := s.Stats()
	return block.Stats{
		Allocs: st.Allocs, Frees: st.Frees, Reads: st.Reads, Writes: st.Writes,
		Locks: st.Locks, Unlocks: st.Unlocks, LockConflicts: st.LockConflicts,
		Syncs: st.Syncs,
	}, nil
}

// Owners returns a copy of the allocation table, for companion-style
// recovery (parity with block.Server).
func (s *Store) Owners() map[block.Num]block.Account {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.owners()
}

// ClearLocks drops every lock bit (parity with block.Server; Open
// already starts with all locks clear).
func (s *Store) ClearLocks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.clearLocks()
}

// Close stops the compactor and every lane's pipeline, syncs and closes
// every file. Acknowledged writes are already durable (outside
// SyncNone), so Close after a crash is unnecessary — that is the point
// of the store.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.stopCompact != nil {
			close(s.stopCompact)
			s.compactWG.Wait()
		}
		s.markClosed()
		for _, l := range s.lanes {
			<-l.syncerDone
		}
		err = s.closeFiles(true)
	})
	return err
}

// Abandon simulates a process crash, for tests and demos that reopen
// the directory in the same process: every file handle is closed
// immediately — releasing the directory locks — with no flush, no
// drain, no goodbye. In-flight unacknowledged operations fail as they
// would in a real crash; acknowledged writes are already on disk. (A
// genuinely killed process needs no call at all.)
func (s *Store) Abandon() {
	s.closeOnce.Do(func() {
		if s.stopCompact != nil {
			close(s.stopCompact) // do not wait: a crash waits for nothing
		}
		s.markClosed()
		s.closeFiles(false)
	})
}

// markClosed rejects new work and stops the pipelines. closed is read
// under sendMu by send and under mu by everything else, so the write
// holds both.
func (s *Store) markClosed() {
	s.sendMu.Lock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, l := range s.lanes {
		close(l.reqs)
	}
	s.sendMu.Unlock()
}

// closeFiles closes all file handles, syncing first if asked. It also
// marks the store closed, for Open's error paths, which come here
// without going through markClosed.
func (s *Store) closeFiles(sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, l := range s.lanes {
		for _, seg := range l.segs {
			if sync {
				note(seg.f.Sync())
			}
			note(seg.f.Close())
		}
		for _, seg := range l.pool {
			note(seg.f.Close())
		}
		if l.dirf != nil {
			note(l.dirf.Close())
		}
	}
	if s.dirf != nil {
		note(s.dirf.Close())
	}
	return first
}
