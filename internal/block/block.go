// Package block implements the paper's block server (§4): the bottom of
// the storage hierarchy, managing fixed-size blocks of data.
//
// The block service implements "as a minimum commands to allocate,
// deallocate, read and write fixed size blocks of data", with three
// further properties the file service depends on:
//
//   - Protection: a block allocated by account A cannot be touched by
//     account B without A's permission. Accounts are identified by
//     capability; the per-block owner is recorded at allocation.
//   - Atomic writes: "Writing a block must be an atomic action, with an
//     acknowledgement that is returned after the block has been stored on
//     disk. This property is vital for the implementation of atomic
//     update on files."
//   - A simple locking facility: the file service realises its commit
//     critical section by "lock and read a block, examine and modify it,
//     then write and unlock the block again". TestAndSet-style semantics
//     are provided through Lock/Unlock plus the composite LockRead and
//     WriteUnlock operations.
//
// Block servers also support the §4 recovery operation: "given an account
// number, returns a list of block numbers owned by that account", which a
// file server uses with its own redundancy information to rebuild its
// file system after a severe crash.
//
// # Contract
//
// Store is the narrow waist of the storage hierarchy: everything above
// (version trees, OCC, the file servers) consumes it, and every backend
// — the in-memory Server here, the durable segstore log, the stable
// companion pairs, the RPC proxy and the sharded facade — provides it
// with identical observable semantics, enforced by the cross-backend
// contract tests (internal/blocktest):
//
//   - Errors are classified by the sentinel errors above (ErrNoSpace,
//     ErrNotAllocated, ErrNotOwner, ErrLocked, ErrNotLocked), reachable
//     through errors.Is on any backend, local or remote.
//   - A Write acknowledged is a write applied (and, on durable
//     backends, on disk); there are no deferred or buffered-but-acked
//     mutations.
//   - Lock bits are volatile commit-section state, never file state: a
//     backend restart clears them.
//
// The vectored MultiStore operations (multi.go) are the one native data
// path of every backend — the scalar Alloc/Free/Read/Write are derived
// from them by the embedded Scalar adapter, a vector of one — with
// documented partial-failure semantics; their first failure is reported
// as a MultiError carrying the failing position, so batching layers can
// attribute errors without parsing text. Backends may additionally
// report allocation headroom (UsageReporter) and operation counters
// (StatsReporter); the sharded facade (internal/shard) uses both to
// place allocations and to expose per-shard statistics.
package block

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/metrics"
)

// Num is a block number. The paper packs block numbers into 28 bits next
// to 4 flag bits; NumBits and MaxNum enforce that bound here so the page
// layer's reference encoding is faithful.
type Num uint32

// NumBits is the width of a block number (the paper's 28 bits).
const NumBits = 28

// MaxNum is the largest representable block number.
const MaxNum Num = 1<<NumBits - 1

// NilNum is the reserved "no block" value. Block 0 is never allocated so
// that nil references are unambiguous, mirroring the paper's nil base and
// commit references.
const NilNum Num = 0

// Errors returned by the block service.
var (
	// ErrNoSpace reports that the underlying disk is full.
	ErrNoSpace = errors.New("block: no space")
	// ErrNotAllocated reports an operation on a free block.
	ErrNotAllocated = errors.New("block: not allocated")
	// ErrNotOwner reports an access by an account that does not own the
	// block.
	ErrNotOwner = errors.New("block: not owner")
	// ErrLocked reports a Lock on an already locked block.
	ErrLocked = errors.New("block: locked")
	// ErrNotLocked reports an Unlock of an unlocked block.
	ErrNotLocked = errors.New("block: not locked")
	// ErrCorrupt reports stored data that failed its integrity check —
	// media decay on the simulated disk, a bad CRC in the segment log.
	// Every backend maps its native corruption error onto this sentinel
	// (local or over the wire), which is what lets the stable-storage
	// layer fall back to the companion copy identically over any medium.
	ErrCorrupt = errors.New("block: corrupt")
	// ErrCollision reports a §4 companion-pair collision: two clients
	// allocated the same number or wrote the same block through
	// different halves simultaneously. The caller redoes the operation,
	// typically after a random wait.
	ErrCollision = errors.New("block: companion collision")
)

// corruptError brands a backend's native corruption error with the
// shared ErrCorrupt sentinel while keeping the original chain intact.
type corruptError struct{ err error }

func (e *corruptError) Error() string   { return e.err.Error() }
func (e *corruptError) Unwrap() []error { return []error{ErrCorrupt, e.err} }

// MarkCorrupt returns err branded so errors.Is(·, ErrCorrupt) holds,
// without disturbing err's own chain. Backends use it to map their
// native corruption errors (disk.ErrCorrupt, segstore's bad CRC) onto
// the shared sentinel.
func MarkCorrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return &corruptError{err}
}

// Account identifies a block-server client for protection and recovery.
// The file servers each hold one account capability.
type Account uint32

// Store is the interface the file service layers consume. Both the plain
// Server here and the paired stable-storage servers satisfy it.
type Store interface {
	// BlockSize returns the fixed block payload size in bytes.
	BlockSize() int
	// Alloc allocates a fresh block owned by account, writes data into
	// it atomically, and returns its number.
	Alloc(account Account, data []byte) (Num, error)
	// Free releases a block.
	Free(account Account, n Num) error
	// Read returns the contents of block n.
	Read(account Account, n Num) ([]byte, error)
	// Write replaces the contents of block n atomically.
	Write(account Account, n Num, data []byte) error
	// Lock acquires the block's mutual-exclusion bit; it fails with
	// ErrLocked if already held. Locks are advisory and scoped to the
	// commit critical section (§5.2).
	Lock(account Account, n Num) error
	// Unlock releases the lock bit.
	Unlock(account Account, n Num) error
	// Recover lists all block numbers owned by account, for crash
	// recovery of a file server's tables.
	Recover(account Account) ([]Num, error)
}

// PairStore is the backend surface a §4 companion-pair half builds on:
// a Store that can additionally mirror its partner's allocation choice
// (Claim) and drop volatile lock state wholesale (ClearLocks). Every
// backend in this repo qualifies — the in-memory Server, the durable
// segstore, the RPC proxy (cmdClaim/cmdClearLocks carry both operations
// over the wire) and the sharded facade — so a mirrored pair can wrap
// any of them, and a pair of pairs or a shard of pairs composes freely.
type PairStore interface {
	Store
	// Claim allocates the specific block number n for account, failing
	// if it is already taken. A failed Claim at the companion is
	// exactly the paper's §4 "allocate collision".
	Claim(account Account, n Num) error
	// ClearLocks drops every lock bit: lock bits are volatile commit
	// critical-section state (§5.2), never file state, so a restarted
	// file server clears them wholesale.
	ClearLocks()
}

// Server is a single block server backed by one simulated disk. Block
// state (owner, lock bit) lives in two maps under one mutex, which is
// held for map state only — never across a disk read or write.
type Server struct {
	d *disk.Disk

	// Scalar derives Alloc/Free/Read/Write from the vectored operations.
	Scalar

	// epoch backs EpochStore for the process lifetime (the RAM server
	// has no persistence to tie it to).
	epoch atomic.Uint64

	// mu guards owner, locked and nextHint.
	mu     sync.Mutex
	owner  map[Num]Account
	locked map[Num]bool
	// nextHint speeds allocation scans; correctness does not depend on it.
	nextHint Num

	stats counters
}

// Stats counts operations on a Server. The same shape is the common
// counter snapshot every backend can report through StatsReporter.
type Stats struct {
	Allocs, Frees, Reads, Writes, Locks, Unlocks uint64
	LockConflicts                                uint64
	// Syncs counts fsyncs issued by durable backends; zero on the
	// RAM-backed server.
	Syncs uint64
}

// Add accumulates o into s, for aggregating per-shard snapshots.
func (s *Stats) Add(o Stats) {
	s.Allocs += o.Allocs
	s.Frees += o.Frees
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Locks += o.Locks
	s.Unlocks += o.Unlocks
	s.LockConflicts += o.LockConflicts
	s.Syncs += o.Syncs
}

// Usage reports a store's allocation headroom.
type Usage struct {
	// Capacity is the number of allocatable blocks.
	Capacity int
	// InUse is the number of currently allocated blocks.
	InUse int
}

// UsageReporter is the optional interface for backends that can report
// allocation headroom. The sharded facade seeds its placement heuristic
// from it; the wire protocol proxies it with cmdUsage.
type UsageReporter interface {
	Usage() (Usage, error)
}

// StatsReporter is the optional interface for backends that expose
// operation counters in the common Stats shape. The wire protocol
// proxies it with cmdStats, so per-shard fsync and operation counts are
// observable across the network.
type StatsReporter interface {
	BlockStats() (Stats, error)
}

// EpochStore is the optional interface for backends that keep a
// monotonic epoch number alongside their data. The stable-storage layer
// uses it to detect boot-time divergence of a §4 companion pair: the
// surviving half bumps its epoch the moment its companion goes down, so
// a half that missed writes is exactly the half with the lower epoch —
// detectable by a freshly started pair with no memory of the outage
// (stable.Pair.DetectStale). Durable backends persist the epoch with
// the data (segstore writes an epoch file); the in-memory server keeps
// it for the process lifetime; the wire protocol proxies both
// operations, so remote halves participate.
type EpochStore interface {
	// Epoch returns the stored epoch (zero for a fresh store).
	Epoch() (uint64, error)
	// SetEpoch stores e; durable backends must persist it before
	// acknowledging.
	SetEpoch(e uint64) error
}

// counters is the lock-free internal form of Stats.
type counters struct {
	allocs, frees, reads, writes, locks, unlocks atomic.Uint64
	lockConflicts                                atomic.Uint64
}

// NewServer creates a block server on d. Block 0 is reserved as NilNum.
func NewServer(d *disk.Disk) *Server {
	s := &Server{d: d, owner: make(map[Num]Account), locked: make(map[Num]bool), nextHint: 1}
	s.Scalar = Scalar{Multi: s}
	return s
}

// BlockSize implements Store.
func (s *Server) BlockSize() int { return s.d.Geometry().BlockSize }

// Capacity returns the number of allocatable blocks (excluding NilNum).
func (s *Server) Capacity() int { return s.d.Geometry().Blocks - 1 }

// InUse returns the number of currently allocated blocks.
func (s *Server) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.owner)
}

// Stats returns a snapshot of the operation counters.
func (s *Server) Stats() Stats {
	return Stats{
		Allocs:        s.stats.allocs.Load(),
		Frees:         s.stats.frees.Load(),
		Reads:         s.stats.reads.Load(),
		Writes:        s.stats.writes.Load(),
		Locks:         s.stats.locks.Load(),
		Unlocks:       s.stats.unlocks.Load(),
		LockConflicts: s.stats.lockConflicts.Load(),
	}
}

// Usage implements UsageReporter.
func (s *Server) Usage() (Usage, error) {
	return Usage{Capacity: s.Capacity(), InUse: s.InUse()}, nil
}

// BlockStats implements StatsReporter.
func (s *Server) BlockStats() (Stats, error) { return s.Stats(), nil }

// Epoch implements EpochStore.
func (s *Server) Epoch() (uint64, error) { return s.epoch.Load(), nil }

// SetEpoch implements EpochStore.
func (s *Server) SetEpoch(e uint64) error {
	s.epoch.Store(e)
	return nil
}

// Disk exposes the underlying disk for fault injection in tests and the
// failure-mode benchmarks.
func (s *Server) Disk() *disk.Disk { return s.d }

// allocNum reserves the next free block number. Caller holds s.mu.
func (s *Server) allocNum(account Account) (Num, error) {
	total := Num(s.d.Geometry().Blocks)
	if total > MaxNum {
		total = MaxNum
	}
	for i := Num(0); i < total; i++ {
		n := (s.nextHint + i) % total
		if n == NilNum {
			continue
		}
		if _, used := s.owner[n]; !used {
			s.owner[n] = account
			s.nextHint = n + 1
			return n, nil
		}
	}
	return NilNum, ErrNoSpace
}

// checkOwner verifies account owns n. Caller holds s.mu.
func (s *Server) checkOwner(account Account, n Num) error {
	own, ok := s.owner[n]
	if !ok {
		return fmt.Errorf("block %d: %w", n, ErrNotAllocated)
	}
	if own != account {
		return fmt.Errorf("block %d owned by %d, access by %d: %w", n, own, account, ErrNotOwner)
	}
	return nil
}

// owns is checkOwner under the mutex.
func (s *Server) owns(account Account, n Num) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkOwner(account, n)
}

// Claim allocates a *specific* block number for account, failing if it is
// already taken. The stable-storage companion protocol uses Claim to
// mirror its partner's allocation choice; a failed Claim is exactly the
// paper's §4 "allocate collision". The server has no native ClaimMulti:
// a claim here costs no I/O, so block.ClaimMulti's per-number loop is
// as cheap, and a type that embeds *Server to count or fault its Claim
// and WriteMulti keeps seeing the mirror leg through those methods.
func (s *Server) Claim(account Account, n Num) error {
	if n == NilNum || int(n) >= s.d.Geometry().Blocks {
		return fmt.Errorf("block %d: %w", n, disk.ErrBadBlock)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.owner[n]; used {
		return fmt.Errorf("block %d: already allocated", n)
	}
	s.owner[n] = account
	s.stats.allocs.Add(1)
	return nil
}

// diskErr maps the simulated disk's corruption error onto the shared
// block.ErrCorrupt sentinel; other disk errors pass through.
func diskErr(err error) error {
	if err != nil && errors.Is(err, disk.ErrCorrupt) {
		return MarkCorrupt(err)
	}
	return err
}

// Lock implements Store. A failed Lock is the §5.2 signal that another
// server is inside the commit critical section for this version page.
func (s *Server) Lock(account Account, n Num) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOwner(account, n); err != nil {
		return err
	}
	if s.locked[n] {
		s.stats.lockConflicts.Add(1)
		return fmt.Errorf("block %d: %w", n, ErrLocked)
	}
	s.locked[n] = true
	s.stats.locks.Add(1)
	return nil
}

// Unlock implements Store.
func (s *Server) Unlock(account Account, n Num) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOwner(account, n); err != nil {
		return err
	}
	if !s.locked[n] {
		return fmt.Errorf("block %d: %w", n, ErrNotLocked)
	}
	delete(s.locked, n)
	s.stats.unlocks.Add(1)
	return nil
}

// Recover implements Store: the §4 recovery scan.
func (s *Server) Recover(account Account) ([]Num, error) {
	var out []Num
	s.mu.Lock()
	for n, a := range s.owner {
		if a == account {
			out = append(out, n)
		}
	}
	s.mu.Unlock()
	slices.Sort(out)
	return out, nil
}

// ClearLocks drops every lock bit; used when a file server restarts after
// a crash (lock bits are volatile commit-section state, not file state).
func (s *Server) ClearLocks() {
	s.mu.Lock()
	s.locked = make(map[Num]bool)
	s.mu.Unlock()
}

var _ Store = (*Server)(nil)
var _ MultiStore = (*Server)(nil)
var _ PairStore = (*Server)(nil)
var _ EpochStore = (*Server)(nil)

// ReadMulti implements MultiStore (all-or-nothing, see the contract).
func (s *Server) ReadMulti(account Account, ns []Num) ([][]byte, error) {
	out := make([][]byte, len(ns))
	for i, n := range ns {
		if err := s.owns(account, n); err != nil {
			return nil, multiErr("read", i, len(ns), err)
		}
		data, err := s.d.Read(int(n))
		if err != nil {
			return nil, multiErr("read", i, len(ns), diskErr(err))
		}
		out[i] = data
	}
	s.stats.reads.Add(uint64(len(ns)))
	return out, nil
}

// WriteMulti implements MultiStore (per-block independence, first error
// returned).
func (s *Server) WriteMulti(account Account, ns []Num, data [][]byte) error {
	if len(ns) != len(data) {
		return errMultiShape
	}
	var first error
	for i, n := range ns {
		err := s.owns(account, n)
		if err == nil {
			s.stats.writes.Add(1)
			err = s.d.Write(int(n), data[i])
		}
		if err != nil && first == nil {
			first = multiErr("write", i, len(ns), err)
		}
	}
	return first
}

// AllocMulti implements MultiStore (all-or-nothing: a failure frees the
// blocks allocated so far). One trip through the allocator for all
// numbers, then the data writes outside the lock.
func (s *Server) AllocMulti(account Account, data [][]byte) ([]Num, error) {
	out := make([]Num, 0, len(data))
	unclaim := func() {
		s.mu.Lock()
		for _, n := range out {
			delete(s.owner, n)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for range data {
		n, err := s.allocNum(account)
		if err != nil {
			s.mu.Unlock()
			unclaim()
			return nil, multiErr("alloc", len(out), len(data), err)
		}
		out = append(out, n)
	}
	s.mu.Unlock()
	for i, n := range out {
		if err := s.d.Write(int(n), data[i]); err != nil {
			unclaim()
			return nil, multiErr("alloc", i, len(data), fmt.Errorf("block %d: %w", n, err))
		}
	}
	s.stats.allocs.Add(uint64(len(out)))
	return out, nil
}

// FreeMulti implements MultiStore (per-block independence, first error
// returned).
func (s *Server) FreeMulti(account Account, ns []Num) error {
	var first error
	s.mu.Lock()
	for i, n := range ns {
		err := s.checkOwner(account, n)
		if err == nil {
			delete(s.owner, n)
			delete(s.locked, n)
			s.stats.frees.Add(1)
		}
		if err != nil && first == nil {
			first = multiErr("free", i, len(ns), err)
		}
	}
	s.mu.Unlock()
	return first
}

// Restore rebuilds the allocation table from an owner map, as a block
// server does after a crash from its companion's notes plus client
// redundancy data. Existing state is replaced.
func (s *Server) Restore(owner map[Num]Account) {
	s.mu.Lock()
	s.owner = maps.Clone(owner)
	if s.owner == nil {
		s.owner = make(map[Num]Account)
	}
	s.locked = make(map[Num]bool)
	s.mu.Unlock()
}

// Owners returns a copy of the allocation table, for companion recovery.
func (s *Server) Owners() map[Num]Account {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.owner)
}

// WithLock runs fn while holding the lock on block n, implementing the
// §5.2 critical section "lock and read a block, examine and modify it,
// then write and unlock the block again" as a convenience. fn receives
// the block contents and returns the new contents (nil to skip the
// write-back).
func WithLock(st Store, account Account, n Num, fn func(data []byte) ([]byte, error)) error {
	if err := st.Lock(account, n); err != nil {
		return err
	}
	defer func() {
		// Unlock failure after a successful body means the store lost
		// the lock table (crash); the caller's retry logic handles it.
		_ = st.Unlock(account, n)
	}()
	data, err := st.Read(account, n)
	if err != nil {
		return err
	}
	out, err := fn(data)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return st.Write(account, n, out)
}

// Collect returns the metrics collector of a store: its operation
// counters and allocation headroom, as far as the store reports them
// (a remote mount asks over the wire on every scrape).
func Collect(s Store) func(*metrics.Emitter) {
	return func(e *metrics.Emitter) {
		if sr, ok := s.(StatsReporter); ok {
			if st, err := sr.BlockStats(); err == nil {
				e.Counters("afs_block_ops_total", "Block store operations by kind.", "op", map[string]uint64{
					"alloc": st.Allocs, "free": st.Frees, "read": st.Reads, "write": st.Writes,
					"lock": st.Locks, "unlock": st.Unlocks, "lock_conflict": st.LockConflicts, "fsync": st.Syncs,
				})
			}
		}
		if ur, ok := s.(UsageReporter); ok {
			if u, err := ur.Usage(); err == nil {
				e.Gauge("afs_blocks_capacity", "Allocatable blocks.", float64(u.Capacity))
				e.Gauge("afs_blocks_in_use", "Allocated blocks.", float64(u.InUse))
			}
		}
	}
}
