// Package treetest builds random version histories for the tests that
// hold the page-tree walkers to reference implementations. A history is
// made with the version layer's own operations, so its trees carry real
// C/R/W/S/M flags: pages shared with the base and pages copied, holes,
// written and restructured pages, and embedded sub-files — at depth two
// or more, crossed and forked by later versions. Store makes chosen
// blocks unreadable and counts read calls.
package treetest

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/version"
)

// ErrUnreadable is the read error of a block Store refuses.
var ErrUnreadable = errors.New("treetest: unreadable block")

// Store is an in-memory block store of 1 KiB blocks whose reads of the
// blocks in Bad fail, as a multi-block read failing at that block does.
// It counts read calls, scalar ones included; Reads counts those outside
// the block-lock critical sections, LockedReads the read of a locked
// block inside one (block.WithLock).
type Store struct {
	*block.Server
	block.Scalar
	Bad map[block.Num]bool

	mu                 sync.Mutex
	locked             map[block.Num]bool
	Reads, LockedReads int
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{
		Server: block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})),
		Bad:    make(map[block.Num]bool),
		locked: make(map[block.Num]bool),
	}
	s.Scalar = block.Scalar{Multi: s}
	return s
}

// ReadMulti implements block.MultiStore.
func (s *Store) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	s.mu.Lock()
	if len(ns) == 1 && s.locked[ns[0]] {
		s.LockedReads++
	} else {
		s.Reads++
	}
	for i, n := range ns {
		if s.Bad[n] {
			s.mu.Unlock()
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: ErrUnreadable}
		}
	}
	s.mu.Unlock()
	return s.Server.ReadMulti(a, ns)
}

// Lock implements block.Store.
func (s *Store) Lock(a block.Account, n block.Num) error {
	err := s.Server.Lock(a, n)
	if err == nil {
		s.mu.Lock()
		s.locked[n] = true
		s.mu.Unlock()
	}
	return err
}

// Unlock implements block.Store.
func (s *Store) Unlock(a block.Account, n block.Num) error {
	s.mu.Lock()
	delete(s.locked, n)
	s.mu.Unlock()
	return s.Server.Unlock(a, n)
}

// Count returns the read counts and zeroes them.
func (s *Store) Count() (reads, lockedReads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reads, lockedReads = s.Reads, s.LockedReads
	s.Reads, s.LockedReads = 0, 0
	return reads, lockedReads
}

// Spoil makes about one in every n of the blocks in set unreadable.
func (s *Store) Spoil(rng *rand.Rand, set map[block.Num]bool, n int) {
	for _, b := range Sorted(set) {
		if rng.Intn(n) == 0 {
			s.Bad[b] = true
		}
	}
}

// Sorted lists a block set in ascending order.
func Sorted(set map[block.Num]bool) []block.Num {
	return slices.Sorted(maps.Keys(set))
}

// History writes a random file history to st: a birth version and then
// n committed updates, each based on the one before (the commit
// reference set as a commit would). It returns the committed roots,
// oldest first. The first update builds the tree — pages to depth four,
// holes and sub-files below the root — and later ones read, write,
// reshape and cross into sub-files. The same seed on an empty store
// writes the same blocks.
func History(st *version.Store, rng *rand.Rand, n int) ([]block.Num, error) {
	birth, err := version.CreateFile(st, capOf(1), capOf(2), []byte("birth"))
	if err != nil {
		return nil, err
	}
	chain := []block.Num{birth.Root}
	for v := 0; v < n; v++ {
		t, err := Update(st, rng, chain[len(chain)-1], v == 0)
		if err != nil {
			return nil, err
		}
		vp, err := st.ReadPage(chain[len(chain)-1])
		if err != nil {
			return nil, err
		}
		vp.CommitRef = t.Root
		if err := st.WritePage(chain[len(chain)-1], vp); err != nil {
			return nil, err
		}
		chain = append(chain, t.Root)
	}
	return chain, nil
}

// Update creates a version based on base and applies random operations
// to it, many and mostly growing the tree when grow is set. Operations
// the version layer refuses change nothing and are skipped.
func Update(st *version.Store, rng *rand.Rand, base block.Num, grow bool) (*version.Tree, error) {
	t, err := version.CreateVersion(st, base, capOf(3))
	if err != nil {
		return nil, err
	}
	// The pass forks each sub-file it first enters, as the server's does,
	// without the §5.3 locks.
	t.Cross = func(blk block.Num, pg *page.Page) (*page.Page, error) {
		return version.Fork(blk, pg, capOf(4))
	}
	ops := 3 + rng.Intn(6)
	if grow {
		ops = 40
	}
	for i := 0; i < ops; i++ {
		p, pg := randomPath(t, rng)
		nrefs := len(pg.Refs)
		kind := rng.Intn(9)
		if grow && kind < 6 && len(p) < 4 {
			kind = 9 // insert
		}
		data := []byte{byte(i), byte(rng.Intn(256))}
		switch kind {
		case 0, 1, 2:
			_, _, err = t.ReadPage(p)
		case 3, 4:
			err = t.WritePage(p, data)
		case 5:
			err = t.MakeHole(p, rng.Intn(nrefs+1))
		case 6:
			err = t.FillHole(p, rng.Intn(nrefs+1), data)
		case 7:
			if len(p) == 0 {
				continue // a sub-file below the root only
			}
			idx := rng.Intn(nrefs + 1)
			obj := uint32(100 + rng.Intn(1000))
			_, err = t.InsertSubFile(p, idx, capOf(obj), capOf(obj+1), data)
		default:
			err = t.InsertPage(p, rng.Intn(nrefs+1), data)
		}
		if err != nil && !refused(err) {
			return nil, err
		}
	}
	return t, nil
}

// refused reports an operation the version layer turned down without
// writing anything.
func refused(err error) bool {
	return errors.Is(err, version.ErrBadPath) || errors.Is(err, version.ErrHole) ||
		errors.Is(err, version.ErrNotHole) || errors.Is(err, page.ErrBadIndex) ||
		errors.Is(err, page.ErrPageFull)
}

// randomPath picks a page of t, sub-files included, and returns its path
// and the page.
func randomPath(t *version.Tree, rng *rand.Rand) (page.Path, *page.Page) {
	var p page.Path
	pg, err := t.St.ReadPage(t.Root)
	if err != nil {
		panic(err)
	}
	for len(pg.Refs) > 0 && rng.Intn(4) > 0 {
		i := rng.Intn(len(pg.Refs))
		if pg.Refs[i].IsNil() {
			break
		}
		child, err := t.St.ReadPage(pg.Refs[i].Block)
		if err != nil {
			break
		}
		p, pg = append(p, i), child
	}
	return p, pg
}

// capOf is a capability naming object obj; the walkers never check one.
func capOf(obj uint32) capability.Capability {
	return capability.Capability{Object: obj, Rights: capability.RightsAll}
}
