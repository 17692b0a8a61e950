// Package file implements the file table: the map from file objects to
// their version chains. The paper's robustness story (§5.4.1) rests on
// it: "Access paths to committed versions go through the replicated file
// table, and a chain of version pages on stable storage, hence version
// access and file access can be guaranteed as long as one or more servers
// are operational."
//
// The table is shared by all server processes of one file service (our
// stand-in for replication on a single machine) and can be rebuilt from
// the block service alone — every version page carries its file
// capability in its header, and the block service's §4 recovery scan
// lists the service's blocks — so a freshly started server needs nothing
// but its account to recover the full file system.
package file

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/page"
	"repro/internal/version"
)

// ErrUnknownFile reports a lookup of a file the table does not know.
var ErrUnknownFile = errors.New("file: unknown file")

// Entry is one file's table row.
type Entry struct {
	// Cap is the file's owner capability — the one its version pages
	// carry (page.Page.FileCap) — against which the file service checks
	// every capability for the file.
	Cap capability.Capability
	// Entry is the block of a committed version page of the file; the
	// current version is found by following commit references from it.
	Entry block.Num
	// Super records that the file has contained sub-files, switching
	// version creation to the §5.3 super-file locking rules.
	Super bool
}

// Table is a concurrency-safe file table.
type Table struct {
	mu      sync.RWMutex
	entries map[uint32]Entry
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[uint32]Entry)}
}

// Put inserts or replaces a file's entry.
func (t *Table) Put(object uint32, e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[object] = e
}

// Get returns a file's entry.
func (t *Table) Get(object uint32) (Entry, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[object]
	if !ok {
		return Entry{}, fmt.Errorf("object %d: %w", object, ErrUnknownFile)
	}
	return e, nil
}

// Advance records a newer committed version as the file's entry point,
// keeping the access path short. Racing writers are harmless: any
// committed version reaches the current one via commit references.
func (t *Table) Advance(object uint32, committed block.Num) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[object]; ok {
		e.Entry = committed
		t.entries[object] = e
	}
}

// CommitCAS records a commit as a compare-and-swap on the file's entry
// point: the table update the paper's replicated file table performs on
// every commit. On the in-process table the swap always applies (commits
// are already serialised by the storage-level commit reference, and any
// committed version reaches the current one by following commit
// references), but the (expect, observed) pair is what the replication
// layer ships to peer tables, whose apply rule falls back to chasing the
// storage chain when the expectation does not hold. It returns the
// entry's new value, or NilNum when the file is unknown.
func (t *Table) CommitCAS(object uint32, expect, next block.Num) block.Num {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[object]
	if !ok {
		return block.NilNum
	}
	_ = expect // see above: the local table trusts the storage-serialised caller
	e.Entry = next
	t.entries[object] = e
	return next
}

// Retire moves the entry point to an older retained version: the
// garbage collector's retention move. On the in-process table it is
// exactly Advance; the replication layer distinguishes the two because
// peers must adopt a retention move verbatim but chase a lazy Advance.
func (t *Table) Retire(object uint32, committed block.Num) {
	t.Advance(object, committed)
}

// MarkSuper flags the file as a super-file.
func (t *Table) MarkSuper(object uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[object]; ok {
		e.Super = true
		t.entries[object] = e
	}
}

// Remove deletes a file's entry.
func (t *Table) Remove(object uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, object)
}

// Objects lists the table's file objects in ascending order.
func (t *Table) Objects() []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint32, 0, len(t.entries))
	for o := range t.entries {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of files.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Entries returns a snapshot of the table.
func (t *Table) Entries() map[uint32]Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint32]Entry, len(t.entries))
	for o, e := range t.entries {
		out[o] = e
	}
	return out
}

// Rebuild reconstructs a file table from storage after a severe crash,
// the §4 recovery path: scan the account's blocks, decode the version
// pages among them (each carries its file's owner capability, which the
// rebuilt entry keeps), and pick a committed version of each file as the
// entry point.
//
// A version page is provably committed when its commit reference is set,
// when it has no base (the birth version), or when its base's commit
// reference points back at it; uncommitted orphans are skipped — "clients
// must be prepared to redo the updates in a version". A version whose
// base vanished is *inferred* committed: the collector retires bases only
// once a successor commits, and it pins the bases of live uncommitted
// versions, so normally only a committed version outlives its base. But
// the pin lapses when the server holding the orphan open crashes, so the
// inference can be wrong — Rebuild therefore prefers a provably committed
// candidate and falls back to the inferred ones only when the file has no
// provable entry, lest a crashed client's abandoned orphan shadow the
// file's real committed content.
//
// The entry must also restore the table invariant that the commit chain
// forward of it is fully alive (retirement advances the table before the
// sweep frees anything). A candidate kept alive out of chain order — a
// pinned base of a live update, say — can have a commit reference into
// swept blocks; a candidate whose forward chain survives in full is
// preferred over one whose chain is broken, within each certainty class.
//
// A removed file's chain head carries the Deleted tombstone flag (ftab's
// Remove stamps it durably before the collector sweeps the chain);
// candidates that are, or provably lead to, a tombstone are not
// resurrected.
func Rebuild(st *version.Store) (*Table, error) {
	nums, err := st.Blocks.Recover(st.Acct)
	if err != nil {
		return nil, fmt.Errorf("file: recovery scan: %w", err)
	}
	type candidate struct {
		blk block.Num
		vp  *page.Page
	}
	byFile := make(map[uint32][]candidate)
	pages := make(map[block.Num]*page.Page, len(nums))
	for _, n := range nums {
		raw, err := st.Blocks.Read(st.Acct, n)
		if err != nil {
			// A block lost with its disk: skip; the stable layer
			// normally repairs these from the companion.
			continue
		}
		p, err := page.Decode(raw)
		if err != nil {
			continue // not a page (or torn); ignore
		}
		pages[n] = p
		if p.IsVersion {
			byFile[p.FileCap.Object] = append(byFile[p.FileCap.Object], candidate{n, p})
		}
	}

	// chainHead follows the commit chain forward of vp while it stays
	// within the surviving version pages of obj; it returns the current
	// (commit-reference-free) version page, or nil when the chain leaves
	// the surviving set (a broken chain).
	chainHead := func(obj uint32, vp *page.Page) *page.Page {
		cur := vp
		for steps := 0; cur.CommitRef != block.NilNum; steps++ {
			next, ok := pages[cur.CommitRef]
			if !ok || !next.IsVersion || next.FileCap.Object != obj || steps > len(pages) {
				return nil
			}
			cur = next
		}
		return cur
	}

	t := NewTable()
	for obj, cands := range byFile {
		// Rank 0: provable, intact chain — 1: inferred, intact chain —
		// 2: provable, broken chain — 3: inferred, broken chain.
		const worst = 4
		best := worst
		var entry block.Num
		var fcap capability.Capability
		for _, c := range cands {
			// A Deleted version page is the durable tombstone the
			// replicated table stamps on the chain head when the file is
			// removed: a candidate that is (or provably leads to) a
			// tombstone must not resurrect the file. The tombstone sits
			// at the head, so any candidate with an intact chain sees it.
			if c.vp.Deleted {
				continue
			}
			if h := chainHead(obj, c.vp); h != nil && h.Deleted {
				continue
			}
			proven := c.vp.CommitRef != block.NilNum || c.vp.BaseRef == block.NilNum
			if !proven {
				if base, ok := pages[c.vp.BaseRef]; ok && base.IsVersion && base.FileCap.Object == obj {
					if base.CommitRef != c.blk {
						continue // an uncommitted orphan: skipped
					}
					// The base's commit reference points back: provable.
					proven = true
				}
				// Otherwise the base was swept, lost, or its block
				// recycled as something else entirely. Usually that
				// means this version committed, but a crashed server's
				// orphan can outlive its base too — inference, not
				// proof (see above).
			}
			rank := 0
			if !proven {
				rank = 1
			}
			if chainHead(obj, c.vp) == nil {
				rank += 2
			}
			if rank < best {
				// The owner capability comes from the chosen page: under
				// a reused object number an older file's pages carry
				// another one.
				best, entry, fcap = rank, c.blk, c.vp.FileCap
			}
		}
		if entry == block.NilNum {
			continue // only uncommitted orphans survive: drop the file
		}
		super := false
		for _, c := range cands {
			s, err := HasSubFiles(st, c.blk)
			if err == nil && s {
				super = true
				break
			}
		}
		t.Put(obj, Entry{Cap: fcap, Entry: entry, Super: super})
	}

	// Sub-files appear in the scan as their own file objects too; that
	// is correct — they are real files with their own chains,
	// addressable by capability. The system-tree nesting itself lives
	// in the pages.
	return t, nil
}

// HasSubFiles reports whether the version tree rooted at root directly
// contains sub-file version pages, i.e. whether the file is a super-file
// in the §5.3 sense. A sub-file found anywhere answers true even when
// some other page cannot be read.
func HasSubFiles(st *version.Store, root block.Num) (bool, error) {
	return st.Any([]block.Num{root}, version.All, func(n *version.Node) bool {
		return n.Parent != nil && n.Page.IsVersion
	})
}
