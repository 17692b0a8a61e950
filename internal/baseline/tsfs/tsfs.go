// Package tsfs is the timestamp baseline the paper compares against
// (§3): a multi-version store with timestamp-ordering concurrency
// control in the style of SWALLOW, which "uses a timestamp mechanism,
// based on Reed's notion of pseudo time".
//
// Every transaction draws a pseudo-time at start. A read returns the
// version with the largest write-timestamp not exceeding the
// transaction's time and advances the page's read-timestamp; a write is
// rejected (the transaction aborts) when a later reader or writer has
// already acted — the late-write rule that makes timestamp ordering
// abort-prone under contention, in contrast to validation at commit.
// Writes are buffered as tentative versions (Reed's "possibilities")
// that become visible atomically at commit.
//
// The store runs over the same block service as the optimistic file
// service so benchmark comparisons exercise identical storage costs.
package tsfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/block"
)

// Errors of the timestamp baseline.
var (
	// ErrLateWrite reports a write rejected by timestamp ordering; the
	// transaction must abort and retry with a fresh timestamp.
	ErrLateWrite = errors.New("tsfs: write too late (timestamp ordering)")
	// ErrAborted reports use of an aborted transaction.
	ErrAborted = errors.New("tsfs: transaction aborted")
)

// FileID names a file in the store.
type FileID int

// Stats counts concurrency-control events.
type Stats struct {
	Commits    uint64
	Aborts     uint64
	LateWrites uint64
	Reads      uint64
}

// pageVersion is one committed version of a page.
type pageVersion struct {
	writeTS uint64
	blk     block.Num
}

// pageState is one page's version list and read horizon.
type pageState struct {
	versions []pageVersion // ascending writeTS
	readTS   uint64
}

// fileState is one file.
type fileState struct {
	pages []*pageState
}

// Store is the timestamp-ordered multi-version store.
type Store struct {
	blocks block.Store
	acct   block.Account

	mu     sync.Mutex
	clock  uint64
	files  map[FileID]*fileState
	nextID FileID
	stats  Stats
}

// New creates a store over blocks.
func New(blocks block.Store, acct block.Account) *Store {
	return &Store{blocks: blocks, acct: acct, files: make(map[FileID]*fileState)}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CreateFile allocates a file with n zeroed pages at pseudo-time zero.
func (s *Store) CreateFile(n int) (FileID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := &fileState{}
	for i := 0; i < n; i++ {
		blk, err := s.blocks.Alloc(s.acct, nil)
		if err != nil {
			return 0, err
		}
		fs.pages = append(fs.pages, &pageState{versions: []pageVersion{{0, blk}}})
	}
	s.nextID++
	s.files[s.nextID] = fs
	return s.nextID, nil
}

// Txn is one transaction at a fixed pseudo-time.
type Txn struct {
	s       *Store
	ts      uint64
	aborted bool
	done    bool
	// tentative versions, invisible until commit.
	writes map[[2]int][]byte // key: file, page
}

// Begin starts a transaction at the next pseudo-time.
func (s *Store) Begin() (*Txn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	return &Txn{s: s, ts: s.clock, writes: make(map[[2]int][]byte)}, nil
}

// Read returns page pg of file id as of the transaction's pseudo-time.
func (t *Txn) Read(id FileID, pg int) ([]byte, error) {
	if t.aborted || t.done {
		return nil, ErrAborted
	}
	if own, ok := t.writes[[2]int{int(id), pg}]; ok {
		return append([]byte(nil), own...), nil
	}
	t.s.mu.Lock()
	fs, ok := t.s.files[id]
	if !ok || pg < 0 || pg >= len(fs.pages) {
		t.s.mu.Unlock()
		return nil, fmt.Errorf("tsfs: bad read %d/%d", id, pg)
	}
	ps := fs.pages[pg]
	// Latest version with writeTS <= ts.
	i := sort.Search(len(ps.versions), func(i int) bool { return ps.versions[i].writeTS > t.ts })
	if i == 0 {
		t.s.mu.Unlock()
		return nil, fmt.Errorf("tsfs: no version at ts %d", t.ts)
	}
	v := ps.versions[i-1]
	if t.ts > ps.readTS {
		ps.readTS = t.ts
	}
	t.s.stats.Reads++
	t.s.mu.Unlock()
	return t.s.blocks.Read(t.s.acct, v.blk)
}

// Write buffers a tentative version of page pg. Timestamp ordering
// rejects the write if a reader or writer with a later pseudo-time got
// there first.
func (t *Txn) Write(id FileID, pg int, data []byte) error {
	if t.aborted || t.done {
		return ErrAborted
	}
	t.s.mu.Lock()
	fs, ok := t.s.files[id]
	if !ok || pg < 0 || pg >= len(fs.pages) {
		t.s.mu.Unlock()
		return fmt.Errorf("tsfs: bad write %d/%d", id, pg)
	}
	ps := fs.pages[pg]
	last := ps.versions[len(ps.versions)-1]
	if ps.readTS > t.ts || last.writeTS > t.ts {
		t.s.stats.LateWrites++
		t.s.stats.Aborts++
		t.aborted = true
		err := fmt.Errorf("page %d/%d readTS=%d writeTS=%d ts=%d: %w",
			id, pg, ps.readTS, last.writeTS, t.ts, ErrLateWrite)
		t.s.mu.Unlock()
		return err
	}
	t.s.mu.Unlock()
	t.writes[[2]int{int(id), pg}] = append([]byte(nil), data...)
	return nil
}

// Commit atomically publishes the tentative versions. The late-write
// check is repeated at publication time, since later transactions may
// have acted since the write was buffered.
func (t *Txn) Commit() error {
	if t.aborted || t.done {
		return ErrAborted
	}
	// Make the data durable first.
	type staged struct {
		key [2]int
		blk block.Num
	}
	var st []staged
	for key, data := range t.writes {
		blk, err := t.s.blocks.Alloc(t.s.acct, data)
		if err != nil {
			t.Abort()
			return err
		}
		st = append(st, staged{key, blk})
	}
	sort.Slice(st, func(i, j int) bool {
		return st[i].key[0] < st[j].key[0] ||
			(st[i].key[0] == st[j].key[0] && st[i].key[1] < st[j].key[1])
	})

	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	// Re-validate all writes, then publish all: atomic flip.
	for _, w := range st {
		ps := t.s.files[FileID(w.key[0])].pages[w.key[1]]
		last := ps.versions[len(ps.versions)-1]
		if ps.readTS > t.ts || last.writeTS > t.ts {
			t.s.stats.LateWrites++
			t.s.stats.Aborts++
			t.aborted = true
			for _, u := range st {
				t.s.blocks.Free(t.s.acct, u.blk)
			}
			return fmt.Errorf("commit of ts %d: %w", t.ts, ErrLateWrite)
		}
	}
	for _, w := range st {
		ps := t.s.files[FileID(w.key[0])].pages[w.key[1]]
		ps.versions = append(ps.versions, pageVersion{t.ts, w.blk})
	}
	t.s.stats.Commits++
	t.done = true
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	if t.done || t.aborted {
		return
	}
	t.aborted = true
	t.s.mu.Lock()
	t.s.stats.Aborts++
	t.s.mu.Unlock()
}

// Prune drops versions older than the latest per page (storage hygiene
// for long benches); pseudo-time readers of old snapshots are not
// supported after pruning.
func (s *Store) Prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fs := range s.files {
		for _, ps := range fs.pages {
			for len(ps.versions) > 1 {
				s.blocks.Free(s.acct, ps.versions[0].blk)
				ps.versions = ps.versions[1:]
			}
		}
	}
}

// ReadCommitted reads the latest version of a page (test helper).
func (s *Store) ReadCommitted(id FileID, pg int) ([]byte, error) {
	s.mu.Lock()
	fs, ok := s.files[id]
	if !ok || pg < 0 || pg >= len(fs.pages) {
		s.mu.Unlock()
		return nil, fmt.Errorf("tsfs: bad read %d/%d", id, pg)
	}
	ps := fs.pages[pg]
	blk := ps.versions[len(ps.versions)-1].blk
	s.mu.Unlock()
	return s.blocks.Read(s.acct, blk)
}
