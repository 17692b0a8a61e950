// Package archive implements the write-once, content-addressed archive
// tier: a block.Store facade in which a block's address is derived from
// the SHA-256 score of its content, in the style of Plan 9's venti.
//
// The paper's optimistic concurrency design makes every committed
// version an immutable page tree — exactly the property a write-once
// store exploits. The archiver (see Archiver) demotes superseded
// committed roots out of the mutable front tier by rewriting their page
// trees into canonical hash-addressed form; identical pages — across
// versions of one file or across unrelated files — collapse into one
// stored block, and every read re-hashes the payload against the score
// stored with it, so silent corruption surfaces as block.ErrCorrupt
// naming the exact block.
//
// # Addressing
//
// Page references pack 28-bit block numbers, so a 256-bit score cannot
// live in a reference. The store therefore keeps both namespaces: the
// backing store assigns ordinary block numbers (which is what archived
// page references hold), and the store maintains a score→number index
// for dedup plus a number→score index for verification. Neither index
// needs separate durability: every stored block carries a
// self-describing frame (kind, length, score), so Open rebuilds both
// maps with one §4-style recovery scan of the backing store. Any
// block.Store works as the backing medium — the in-memory server for
// tests, a segstore directory for durability, or a remote block-service
// mount.
//
// # Write-once semantics
//
// Alloc is a content-addressed put: storing a payload whose score is
// already indexed returns the existing block (a dedup hit), so Alloc
// never stores the same content twice. Write is allowed only when it
// rewrites a block with the content it already holds (an idempotent
// dedup hit); different content under an existing address is refused
// with ErrImmutable, and Free/FreeMulti are refused outright — an
// archived block may be shared by any number of snapshots, so the tier
// never reclaims. Lock, Unlock and Recover delegate to the backing
// store unchanged.
package archive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

// ErrImmutable reports an attempt to overwrite or free an archived
// block: the archive is write-once and never reclaims.
var ErrImmutable = errors.New("archive: block is write-once")

// Block kinds: the typed levels of the hash tree. Kinds map the page
// tree's levels onto the archive (data pages, pointer pages, version
// roots); KindRaw covers direct Alloc through the block.Store facade,
// and KindSnap marks snapshot-log records (see log.go). The kind is
// part of the score, so payloads of different kinds never alias.
const (
	KindRaw     = 0x00
	KindData    = 0x01
	KindPointer = 0x02
	KindRoot    = 0x03
	KindSnap    = 0x04
)

// kindName returns the exposition label for a block kind.
func kindName(kind byte) string {
	switch kind {
	case KindRaw:
		return "raw"
	case KindData:
		return "data"
	case KindPointer:
		return "pointer"
	case KindRoot:
		return "root"
	case KindSnap:
		return "snap"
	default:
		return "unknown"
	}
}

// Score is the SHA-256 content address of one archived block:
// SHA-256(kind || payload).
type Score [sha256.Size]byte

// ScoreOf computes the score of a payload of the given kind.
func ScoreOf(kind byte, payload []byte) Score {
	h := sha256.New()
	h.Write([]byte{kind})
	h.Write(payload)
	var s Score
	h.Sum(s[:0])
	return s
}

// String renders the score as hex.
func (s Score) String() string { return hex.EncodeToString(s[:]) }

// Frame layout of one stored block:
//
//	magic(1) kind(1) length(4, big-endian) score(32) payload(length)
const (
	frameMagic = 0xCA // "content-addressed"
	// FrameOverhead is the per-block framing cost. A backing store
	// must be provisioned with a block size at least FrameOverhead
	// larger than the front tier's, so any front page fits when
	// demoted (the facade's BlockSize is the backing size minus this).
	FrameOverhead = 1 + 1 + 4 + sha256.Size
)

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Puts         uint64 // content-addressed stores attempted (Alloc + archiver puts)
	Stored       uint64 // puts that stored a new block
	DedupHits    uint64 // puts (and idempotent rewrites) answered by an existing block
	Reads        uint64 // payload reads that passed verification
	CorruptReads uint64 // reads refused by frame or score check
	BytesLogical uint64 // payload bytes presented to the store (padded form)
	BytesStored  uint64 // payload bytes that reached the backing store
	Snapshots    uint64 // snapshot-log records held
	BlocksByKind map[string]uint64
}

// rec is the per-block index entry.
type rec struct {
	score Score
	kind  byte
}

// pendingPut reserves a score while its backing allocation is in
// flight, so the index lock is never held across backing I/O and
// concurrent puts of the same content still converge on one block.
// n and err are written before done is closed and read only after.
type pendingPut struct {
	done chan struct{}
	n    block.Num
	err  error
}

// Store is the content-addressed facade. All methods are safe for
// concurrent use (assuming the backing store is).
type Store struct {
	// Scalar derives Alloc/Free/Read/Write from the vectored operations.
	block.Scalar

	backing block.Store
	acct    block.Account
	size    int // facade block size: backing minus FrameOverhead

	mu      sync.RWMutex
	byScore map[Score]block.Num
	byNum   map[block.Num]rec
	pending map[Score]*pendingPut
	snaps   map[uint32][]Entry // per file object, ascending Seq

	puts         atomic.Uint64
	stored       atomic.Uint64
	dedupHits    atomic.Uint64
	reads        atomic.Uint64
	corruptReads atomic.Uint64
	bytesLogical atomic.Uint64
	bytesStored  atomic.Uint64
}

var _ block.MultiStore = (*Store)(nil)

// New opens the archive over a backing store, rebuilding the score
// indexes and the snapshot log with one recovery scan of the given
// account (the file-service account whose blocks hold the archive).
// The backing block size must exceed FrameOverhead by at least the
// front tier's block size for demotion to succeed; New only enforces
// the hard floor, the deployment check lives with the caller.
func New(backing block.Store, acct block.Account) (*Store, error) {
	if bs := backing.BlockSize(); bs <= FrameOverhead {
		return nil, fmt.Errorf("archive: backing block size %d does not fit the %d-byte frame", bs, FrameOverhead)
	}
	s := &Store{
		backing: backing,
		acct:    acct,
		size:    backing.BlockSize() - FrameOverhead,
		byScore: make(map[Score]block.Num),
		byNum:   make(map[block.Num]rec),
		pending: make(map[Score]*pendingPut),
		snaps:   make(map[uint32][]Entry),
	}
	s.Scalar = block.Scalar{Multi: s}
	ns, err := backing.Recover(acct)
	if err != nil {
		return nil, fmt.Errorf("archive: recovery scan: %w", err)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		raw, err := backing.Read(acct, n)
		if err != nil {
			return nil, fmt.Errorf("archive: rebuild read block %d: %w", n, err)
		}
		kind, payload, score, err := parseFrame(n, raw)
		if err != nil {
			// A corrupt block stays reachable by number — reads name
			// it via the score check — but is withheld from the dedup
			// index so fresh content is stored intact, not aliased
			// onto damage.
			continue
		}
		s.indexLocked(n, kind, payload, score)
	}
	return s, nil
}

// indexLocked adds one parsed frame to the score maps (and, for a
// snapshot record, the snapshot log index). Caller holds s.mu.
func (s *Store) indexLocked(n block.Num, kind byte, payload []byte, score Score) {
	s.byNum[n] = rec{score: score, kind: kind}
	if _, dup := s.byScore[score]; !dup {
		s.byScore[score] = n
	}
	if kind == KindSnap {
		if e, err := decodeEntry(payload); err == nil {
			s.insertEntryLocked(e)
		}
	}
}

// Refresh re-runs the recovery scan and indexes blocks that another
// process sharing the backing store has appended since New (or the
// previous Refresh): the archiver calls it before assigning a snapshot
// sequence, so sibling servers demoting into one shared archive see
// each other's snapshots and dedup onto each other's blocks instead of
// duplicating them. Backing reads happen with the lock released; a
// block that fails the frame check is withheld from the dedup index,
// exactly as in New.
func (s *Store) Refresh() error {
	ns, err := s.backing.Recover(s.acct)
	if err != nil {
		return fmt.Errorf("archive: refresh scan: %w", err)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var fresh []block.Num
	s.mu.RLock()
	for _, n := range ns {
		if _, ok := s.byNum[n]; !ok {
			fresh = append(fresh, n)
		}
	}
	s.mu.RUnlock()
	for _, n := range fresh {
		raw, err := s.backing.Read(s.acct, n)
		if err != nil {
			return fmt.Errorf("archive: refresh read block %d: %w", n, err)
		}
		kind, payload, score, err := parseFrame(n, raw)
		if err != nil {
			continue
		}
		s.mu.Lock()
		if _, ok := s.byNum[n]; !ok {
			s.indexLocked(n, kind, payload, score)
		}
		s.mu.Unlock()
	}
	return nil
}

// Backing returns the store underneath the facade (tests and the
// example corrupt blocks through it; the facade itself refuses).
func (s *Store) Backing() block.Store { return s.backing }

// Account returns the account the archive was opened over.
func (s *Store) Account() block.Account { return s.acct }

// BlockSize implements block.Store: the backing size minus the frame,
// i.e. the largest payload one archived block holds.
func (s *Store) BlockSize() int { return s.size }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:         s.puts.Load(),
		Stored:       s.stored.Load(),
		DedupHits:    s.dedupHits.Load(),
		Reads:        s.reads.Load(),
		CorruptReads: s.corruptReads.Load(),
		BytesLogical: s.bytesLogical.Load(),
		BytesStored:  s.bytesStored.Load(),
		BlocksByKind: make(map[string]uint64),
	}
	s.mu.RLock()
	for _, r := range s.byNum {
		st.BlocksByKind[kindName(r.kind)]++
	}
	for _, es := range s.snaps {
		st.Snapshots += uint64(len(es))
	}
	s.mu.RUnlock()
	return st
}

// Usage implements block.UsageReporter when the backing store does.
func (s *Store) Usage() (block.Usage, error) {
	if ur, ok := s.backing.(block.UsageReporter); ok {
		return ur.Usage()
	}
	return block.Usage{}, errors.New("archive: backing store does not report usage")
}

// pad extends a short payload to the facade block size with zeros.
// Longer payloads pass through untouched; the backing store refuses the
// resulting oversized frame, just as any block store refuses oversized
// writes.
func (s *Store) pad(payload []byte) []byte {
	if len(payload) >= s.size {
		return payload
	}
	out := make([]byte, s.size)
	copy(out, payload)
	return out
}

// frame builds the stored representation of one payload.
func frame(kind byte, payload []byte, score Score) []byte {
	out := make([]byte, FrameOverhead+len(payload))
	out[0] = frameMagic
	out[1] = kind
	binary.BigEndian.PutUint32(out[2:6], uint32(len(payload)))
	copy(out[6:6+sha256.Size], score[:])
	copy(out[FrameOverhead:], payload)
	return out
}

// parseFrame splits a stored block and verifies its score, branding
// every failure with block.ErrCorrupt and the block number. The length
// field is authoritative: backing stores hand back whole device blocks,
// so raw may carry trailing bytes beyond the frame.
func parseFrame(n block.Num, raw []byte) (kind byte, payload []byte, score Score, err error) {
	if len(raw) < FrameOverhead || raw[0] != frameMagic {
		return 0, nil, Score{}, block.MarkCorrupt(fmt.Errorf("archive: block %d: bad frame", n))
	}
	kind = raw[1]
	length := int(binary.BigEndian.Uint32(raw[2:6]))
	if length > len(raw)-FrameOverhead {
		return 0, nil, Score{}, block.MarkCorrupt(fmt.Errorf("archive: block %d: frame length %d exceeds payload room %d", n, length, len(raw)-FrameOverhead))
	}
	copy(score[:], raw[6:6+sha256.Size])
	payload = raw[FrameOverhead : FrameOverhead+length]
	if got := ScoreOf(kind, payload); got != score {
		return 0, nil, Score{}, block.MarkCorrupt(fmt.Errorf("archive: block %d: score mismatch: stored %s, content %s", n, score, got))
	}
	return kind, payload, score, nil
}

// Put stores one payload of the given kind content-addressed, returning
// its block number and whether an existing block answered (a dedup
// hit). A block is a fixed-size unit, so payloads shorter than the
// facade block size are zero-padded before scoring — the stored (and
// addressed) form is always exactly BlockSize bytes, which is also what
// every read hands back. Concurrent puts of the same content converge
// on one block: the first reserves the score in the index, allocates
// from the backing store with the lock released (so a slow backing
// medium never blocks index reads or puts of other content), and the
// rest wait for the reservation to resolve into a dedup hit.
func (s *Store) Put(account block.Account, kind byte, payload []byte) (block.Num, bool, error) {
	payload = s.pad(payload)
	score := ScoreOf(kind, payload)
	s.puts.Add(1)
	s.bytesLogical.Add(uint64(len(payload)))
	for {
		s.mu.Lock()
		if n, ok := s.byScore[score]; ok {
			s.mu.Unlock()
			s.dedupHits.Add(1)
			return n, true, nil
		}
		if p, ok := s.pending[score]; ok {
			s.mu.Unlock()
			<-p.done
			if p.err == nil {
				s.dedupHits.Add(1)
				return p.n, true, nil
			}
			continue // the reservation failed; race for our own
		}
		p := &pendingPut{done: make(chan struct{})}
		s.pending[score] = p
		s.mu.Unlock()

		n, err := s.backing.Alloc(account, frame(kind, payload, score))
		s.mu.Lock()
		delete(s.pending, score)
		if err == nil {
			s.byScore[score] = n
			s.byNum[n] = rec{score: score, kind: kind}
		}
		s.mu.Unlock()
		p.n, p.err = n, err
		close(p.done)
		if err != nil {
			return block.NilNum, false, err
		}
		s.stored.Add(1)
		s.bytesStored.Add(uint64(len(payload)))
		return n, false, nil
	}
}

// ScoreFor returns the stored score of block n.
func (s *Store) ScoreFor(n block.Num) (Score, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byNum[n]
	return r.score, ok
}

// Lookup returns the block holding content with the given score.
func (s *Store) Lookup(score Score) (block.Num, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.byScore[score]
	return n, ok
}

// Lock implements block.Store by delegating to the backing store: the
// commit machinery never runs against the archive, but the facade
// keeps the full contract so generic layers work unchanged.
func (s *Store) Lock(account block.Account, n block.Num) error {
	return s.backing.Lock(account, n)
}

// Unlock implements block.Store.
func (s *Store) Unlock(account block.Account, n block.Num) error {
	return s.backing.Unlock(account, n)
}

// Recover implements block.Store.
func (s *Store) Recover(account block.Account) ([]block.Num, error) {
	return s.backing.Recover(account)
}

// ReadMulti implements block.MultiStore (all-or-nothing): one batched
// read of the backing store, then every payload is re-hashed against
// its stored score; a mismatch (or an undecodable frame) returns an
// error satisfying errors.Is(err, block.ErrCorrupt) that names the
// block.
func (s *Store) ReadMulti(account block.Account, ns []block.Num) ([][]byte, error) {
	out, err := block.ReadMulti(s.backing, account, ns)
	if err != nil {
		return nil, err
	}
	for i, raw := range out {
		_, payload, _, err := parseFrame(ns[i], raw)
		if err != nil {
			s.corruptReads.Add(1)
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: err}
		}
		out[i] = payload
	}
	s.reads.Add(uint64(len(ns)))
	return out, nil
}

// WriteMulti implements block.MultiStore (first error, every block
// attempted) with write-once semantics: rewriting a block with the
// content it already holds is an idempotent dedup hit; different
// content under an existing address is refused.
func (s *Store) WriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("archive: write multi with %d blocks, %d payloads", len(ns), len(data))
	}
	var first error
	for i, n := range ns {
		if err := s.rewrite(account, n, data[i]); err != nil && first == nil {
			first = &block.MultiError{Op: "write", Index: i, N: len(ns), Err: err}
		}
	}
	return first
}

// rewrite checks one write-once rewrite. Allocation and ownership are
// checked through the backing store first, so those failures classify
// exactly as on any other store.
func (s *Store) rewrite(account block.Account, n block.Num, data []byte) error {
	if _, err := s.backing.Read(account, n); err != nil {
		return err
	}
	s.mu.RLock()
	r, ok := s.byNum[n]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("archive: write block %d: %w", n, block.ErrNotAllocated)
	}
	if ScoreOf(r.kind, s.pad(data)) != r.score {
		return fmt.Errorf("archive: write block %d: %w", n, ErrImmutable)
	}
	s.dedupHits.Add(1)
	return nil
}

// AllocMulti implements block.MultiStore as content-addressed puts of
// raw payloads: identical content returns the existing block. The
// all-or-nothing rollback of the generic contract is moot here: a
// write-once store cannot free the prefix stored before a failure, and
// need not — a retry dedups onto it, so no space is lost.
func (s *Store) AllocMulti(account block.Account, data [][]byte) ([]block.Num, error) {
	out := make([]block.Num, len(data))
	for i, d := range data {
		n, _, err := s.Put(account, KindRaw, d)
		if err != nil {
			return nil, &block.MultiError{Op: "alloc", Index: i, N: len(data), Err: err}
		}
		out[i] = n
	}
	return out, nil
}

// FreeMulti implements block.MultiStore by refusing every block: the
// archive never reclaims.
func (s *Store) FreeMulti(account block.Account, ns []block.Num) error {
	if len(ns) == 0 {
		return nil
	}
	return &block.MultiError{Op: "free", Index: 0, N: len(ns),
		Err: fmt.Errorf("archive: free block %d: %w", ns[0], ErrImmutable)}
}
