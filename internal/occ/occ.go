// Package occ implements the paper's optimistic concurrency control
// (§5.2): validation of a version at commit time, the merge of
// non-conflicting concurrent updates, and the commit protocol whose only
// critical section is an atomic test-and-set of a commit reference.
//
// Kung and Robinson's three validation conditions reduce, in the Amoeba
// File Service, to two — because the critical section of the validation
// phase and the whole write phase happen in one atomic action:
//
//	(1) Version V.a commits before version V.b is created.
//	(2) The write set of V.c does not intersect the read set of V.b,
//	    and V.c commits before V.b.
//
// Condition (1) holds trivially when V.b is based on the current version:
// every such commit is allowed outright. Otherwise the committed
// successor chain is walked: for each committed version V.c between V.b's
// base and the current version, serialise(V.b, V.c) both tests condition
// (2) and prepares the new current version by "replacing unaccessed parts
// in V.b's page tree by corresponding written parts in V.c's page tree",
// all in one pass that skips subtrees neither update accessed.
//
// # Contract
//
// The read and write sets come from the page flags (package page, the
// paper's Fig. 3): R/S mark data read and references searched, W/M mark
// data written and references modified, and the version layer maintains
// them as pages are shadowed — so validation needs no separate logs,
// and its cost is proportional to the intersection of the accessed
// sets, not the file size. Anything that reads without setting flags
// (the server's ReadCommitted and PeekPage inspections of immutable
// committed pages) is invisible to validation by construction and can
// never cause a spurious conflict.
//
// The whole commit path has exactly one critical section:
// TestAndSetCommitRef locks, reads, tests, sets and writes one version
// page under the block service's lock facility. It therefore touches
// exactly one block — and under the sharded facade, exactly one block
// server — no matter how large the update; coordination stays off the
// data path. The critical section itself is version.UpdateVersionPage,
// shared with the lock fields, tombstones and the collector's reshare:
// while another server holds the version page's block lock the request
// is re-sent, for a bounded time. ErrConflict means the update must be
// redone on a fresh version; an error wrapping block.ErrLocked means the
// block lock stayed held past that bound.
package occ

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/trace"
	"repro/internal/version"
)

// ErrConflict reports that the update is not serialisable with a
// committed concurrent update; the client must redo it on a new version.
var ErrConflict = errors.New("occ: serialisability conflict")

// Stats counts validation work, for the E3/E4/E5 experiments.
type Stats struct {
	// Commits counts successful commits.
	Commits atomic.Uint64
	// FastCommits counts commits that found their base still current
	// (condition 1): the "virtually no processing at all" path.
	FastCommits atomic.Uint64
	// Validations counts serialise passes (condition 2).
	Validations atomic.Uint64
	// Conflicts counts aborts.
	Conflicts atomic.Uint64
	// PagesCompared counts page pairs visited by serialise: the paper
	// claims this is proportional to the intersection of the accessed
	// sets, not the file size.
	PagesCompared atomic.Uint64
	// Merged counts references adopted from the committed version.
	Merged atomic.Uint64
	// ChainRetries counts set-commit-reference attempts that lost the
	// race to yet another committer and moved down the chain.
	ChainRetries atomic.Uint64
	// Latency is the commit-path latency histogram, observed by the
	// file server around its whole Commit operation (validation, the
	// critical section, sub-file commits, lock clearing and the
	// replicated table CAS) and exposed on GET /metrics.
	Latency metrics.Histogram
}

// Committer runs commits against one version store.
type Committer struct {
	St *version.Store
	// Stat is optional shared instrumentation.
	Stat *Stats
	// tc, when sampled, runs Commit under an occ-layer span against
	// trace-bound storage (see BindTrace).
	tc trace.Context
}

// NewCommitter creates a Committer with its own stats.
func NewCommitter(st *version.Store) *Committer {
	return &Committer{St: st, Stat: &Stats{}}
}

// BindTrace returns a committer whose Commit runs under an occ-layer
// span, with the validation pass's page reads and the critical
// section's lock/read/write/unlock issued against the trace-bound block
// stack — so shard, mirror and segstore spans nest beneath the
// commit's. Stats stay shared with the original.
func (c *Committer) BindTrace(tc trace.Context) *Committer {
	if !tc.Sampled() {
		return c
	}
	return &Committer{St: c.St, Stat: c.Stat, tc: tc}
}

// TestAndSetCommitRef atomically sets the commit reference of the version
// page in block base to succ if and only if it is still nil, inside
// version.UpdateVersionPage: "only one server may be allowed to read the
// version block, test the commit reference, set it, and write it back" —
// the single critical section of the whole commit path.
//
// It returns (NilNum, nil) on success, or the existing successor if base
// has already been superseded. A current base whose inner lock is set
// belongs to a super-file update that has entered this file (§5.3):
// nothing may commit over it but that update's own sub-file commit, so
// the update is refused with ErrConflict, and its redo's CreateVersion
// waits for the lock or recovers a dead holder.
//
// A top lock equal to hint — the committing update's own top-lock hint —
// is cleared in the same write that sets the commit reference.
func (c *Committer) TestAndSetCommitRef(base, succ block.Num, hint capability.Port) (block.Num, error) {
	existing := block.NilNum
	err := c.St.UpdateVersionPage(base, func(vp *page.Page) (bool, error) {
		if vp.CommitRef != block.NilNum {
			existing = vp.CommitRef
			return false, nil // examine only; no write-back
		}
		if !vp.InnerLock.IsNil() {
			return false, fmt.Errorf("occ: version page %d is inner-locked by %v: %w", base, vp.InnerLock, ErrConflict)
		}
		vp.CommitRef = succ
		if !hint.IsNil() && vp.TopLock == hint {
			vp.TopLock = capability.NilPort
		}
		return true, nil
	})
	if err != nil {
		return block.NilNum, err
	}
	return existing, nil
}

// Commit makes version tree b the current version of its file, or fails
// with ErrConflict. On success b's version page carries a nil commit
// reference and its base's commit reference points at b. A version page
// that has no block yet gets one first.
//
// hint is the top-lock hint (§5.3) the committing update holds on b's
// base, or NilPort: the test-and-set that sets the base's commit
// reference clears it in the same write. A commit rebased onto a later
// version sets that version's commit reference instead, and leaves the
// hint on the original base for the caller to clear.
//
// Contention on the block-level lock (two servers in the critical section
// for the same version page) is waited out inside TestAndSetCommitRef, as
// a server re-sends the set-commit-reference request; only a lock held
// past version.UpdateVersionPage's bound surfaces, as an error wrapping
// block.ErrLocked.
func (c *Committer) Commit(b *version.Tree, hint capability.Port) error {
	if !c.tc.Sampled() {
		return c.commit(b, hint)
	}
	sp, ctx := c.tc.Start("occ", "commit")
	bound := &Committer{
		St:   version.NewStore(block.BindTrace(c.St.Blocks, ctx), c.St.Acct),
		Stat: c.Stat,
	}
	err := bound.commit(b, hint)
	sp.End(err)
	return err
}

func (c *Committer) commit(b *version.Tree, hint capability.Port) error {
	if err := b.Place(); err != nil {
		return err
	}
	vp, err := b.VersionPage()
	if err != nil {
		return err
	}
	base := vp.BaseRef
	if base == block.NilNum {
		// First version of a fresh file: current by construction.
		c.Stat.Commits.Add(1)
		c.Stat.FastCommits.Add(1)
		return nil
	}
	first := true
	for {
		prev, err := c.TestAndSetCommitRef(base, b.Root, hint)
		if errors.Is(err, ErrConflict) {
			c.Stat.Conflicts.Add(1)
		}
		if err != nil {
			return err
		}
		if prev == block.NilNum {
			// Success: b is the current version.
			c.Stat.Commits.Add(1)
			if first {
				c.Stat.FastCommits.Add(1)
			}
			return nil
		}
		if prev == b.Root {
			// A crashed server (or a lost reply) already installed us.
			c.Stat.Commits.Add(1)
			return nil
		}
		// Another update committed first: validate against it (and
		// merge its changes into b), then try to succeed it instead.
		first = false
		c.Stat.ChainRetries.Add(1)
		ok, err := c.Serialise(b, prev)
		if err != nil {
			return err
		}
		if !ok {
			c.Stat.Conflicts.Add(1)
			return fmt.Errorf("version %d vs committed %d: %w", b.Root, prev, ErrConflict)
		}
		// b is now logically based on prev; record it and move on.
		if err := c.rebase(b, prev); err != nil {
			return err
		}
		base = prev
	}
}

// rebase points b's version page at its new predecessor after a merge.
func (c *Committer) rebase(b *version.Tree, newBase block.Num) error {
	vp, err := b.VersionPage()
	if err != nil {
		return err
	}
	vp.BaseRef = newBase
	return b.WriteVersionPage(vp)
}

// Serialise tests whether the uncommitted version b can be serialised
// after the committed version cRoot (condition 2: write set of c must not
// intersect read set of b), merging c's updates into b's tree as it goes.
// Both trees descend from the same base version. It returns false on
// conflict; b is then unusable and must be abandoned.
func (c *Committer) Serialise(b *version.Tree, cRoot block.Num) (bool, error) {
	c.Stat.Validations.Add(1)
	bRoot, err := b.VersionPage()
	if err != nil {
		return false, err
	}
	cPage, err := c.St.ReadPage(cRoot)
	if err != nil {
		return false, err
	}
	c.Stat.PagesCompared.Add(1)

	bf, cf := bRoot.RootFlags, cPage.RootFlags
	// Root-level conflicts.
	if cf&page.FlagW != 0 && bf&page.FlagR != 0 {
		return false, nil
	}
	if cf&page.FlagM != 0 && bf&page.FlagS != 0 {
		return false, nil
	}
	dirty := false
	// Root data: c wrote it and b did not — the merged current version
	// must carry c's data.
	if cf&page.FlagW != 0 && bf&page.FlagW == 0 {
		bRoot.Data = append([]byte(nil), cPage.Data...)
		dirty = true
	}
	ok, childDirty, err := c.mergeChildren(bRoot, cPage, bf, cf)
	if err != nil || !ok {
		return ok, err
	}
	if childDirty {
		dirty = true
	}
	if dirty {
		if err := b.WriteVersionPage(bRoot); err != nil {
			return false, err
		}
	}
	return true, nil
}

// mergeChildren validates and merges the reference tables of one
// corresponding page pair (bp from the uncommitted version, cp from the
// committed one), given the pages' own flags. It reports whether bp's
// table or descendants changed.
func (c *Committer) mergeChildren(bp, cp *page.Page, bf, cf page.Flags) (ok, dirty bool, err error) {
	switch {
	case cf&page.FlagS == 0:
		// c never descended here: nothing of c's to merge below.
		return true, false, nil
	case bf&page.FlagS == 0:
		// c descended, b did not (and bf has no S, so no M either):
		// adopt c's entire table; b's copy below is untouched base.
		bp.Refs = adoptRefs(cp.Refs)
		c.Stat.Merged.Add(uint64(len(cp.Refs)))
		return true, true, nil
	}

	// Both descended. Structural changes need care.
	if bf&page.FlagM != 0 {
		// b restructured this table. cf.M with bf.S would already have
		// conflicted, so c's table is structurally the base's. If c
		// wrote anything below, index correspondence to b's new table
		// is lost: conservatively refuse (a false conflict costs a
		// redo, never correctness). If c only read below, b's
		// restructure stands unchanged.
		hasW, err := c.subtreeHasWrites(cp)
		if err != nil {
			return false, false, err
		}
		return !hasW, false, nil
	}
	// b did not restructure, so b's table is index-aligned with the
	// base; c's too (cf.M ⇒ conflict with bf.S was checked by caller).
	if len(bp.Refs) != len(cp.Refs) {
		// Only possible via M, which was excluded: corrupt state.
		return false, false, fmt.Errorf("occ: table size mismatch %d vs %d without M flags",
			len(bp.Refs), len(cp.Refs))
	}
	for i := range bp.Refs {
		bRef, cRef := bp.Refs[i], cp.Refs[i]
		okc, d, err := c.mergeRefPair(bp, i, bRef, cRef)
		if err != nil || !okc {
			return okc, false, err
		}
		if d {
			dirty = true
		}
	}
	return true, dirty, nil
}

// mergeRefPair validates one corresponding reference pair and merges c's
// side into b's where b left the subtree untouched.
func (c *Committer) mergeRefPair(bp *page.Page, idx int, bRef, cRef page.Ref) (ok, dirty bool, err error) {
	c.Stat.PagesCompared.Add(1)
	if !cRef.Flags.Accessed() {
		// c never touched this subtree: keep b's side as is.
		return true, false, nil
	}
	if !bRef.Flags.Accessed() {
		// b never touched this subtree: adopt c's (possibly updated)
		// subtree wholesale. Cleared flags mean "shared with the new
		// base", which after the rebase is exactly c.
		bp.Refs[idx] = page.Ref{Block: cRef.Block}
		c.Stat.Merged.Add(1)
		return true, true, nil
	}

	// Both touched the page: the §5.2 conflict tests on the two
	// independent item kinds, data (W vs R) and references (M vs S).
	if cRef.Flags&page.FlagW != 0 && bRef.Flags&page.FlagR != 0 {
		return false, false, nil
	}
	if cRef.Flags&page.FlagM != 0 && bRef.Flags&page.FlagS != 0 {
		return false, false, nil
	}
	if !cRef.Flags.InWriteSet() && cRef.Flags&page.FlagS == 0 {
		// c only read this page's data and went no deeper: nothing of
		// c's to merge, no possible conflict below. Skipping here is
		// what makes the test's cost proportional to the accessed-set
		// intersection rather than to file size.
		return true, false, nil
	}

	bChild, err := c.St.ReadPage(bRef.Block)
	if err != nil {
		return false, false, err
	}
	cChild, err := c.St.ReadPage(cRef.Block)
	if err != nil {
		return false, false, err
	}
	childDirty := false
	// Data: c wrote, b did not read (checked) nor write — carry c's.
	if cRef.Flags&page.FlagW != 0 && bRef.Flags&page.FlagW == 0 {
		bChild.Data = append([]byte(nil), cChild.Data...)
		childDirty = true
	}
	if cRef.Flags&page.FlagM != 0 {
		// c restructured below; b did not search (checked above), so
		// b has no reads below to conflict and no structural opinion:
		// adopt c's table.
		bChild.Refs = adoptRefs(cChild.Refs)
		c.Stat.Merged.Add(uint64(len(cChild.Refs)))
		childDirty = true
	} else {
		okc, d, err := c.mergeChildren(bChild, cChild, bRef.Flags, cRef.Flags)
		if err != nil || !okc {
			return okc, false, err
		}
		if d {
			childDirty = true
		}
	}
	if childDirty {
		// bChild is private to b (accessed ⇒ copied), so in-place.
		if err := c.St.WritePage(bRef.Block, bChild); err != nil {
			return false, false, err
		}
	}
	return true, childDirty, nil
}

// adoptRefs copies a committed version's reference table with flags
// cleared: in the merged version those subtrees are shared with the new
// base, not accessed.
func adoptRefs(refs []page.Ref) []page.Ref {
	out := make([]page.Ref, len(refs))
	for i, r := range refs {
		out[i] = page.Ref{Block: r.Block}
	}
	return out
}

// subtreeHasWrites reports whether any reference reachable from pg (in
// the committed version's private region) carries W or M: used to decide
// whether a restructure in b can stand against c's subtree. A write found
// anywhere answers true even when some other page cannot be read.
func (c *Committer) subtreeHasWrites(pg *page.Page) (bool, error) {
	if hasWrite(pg) {
		return true, nil
	}
	var roots []block.Num
	for _, r := range pg.Refs {
		if !r.IsNil() && searched(r) {
			roots = append(roots, r.Block)
		}
	}
	return c.St.Any(roots, searched, func(n *version.Node) bool { return hasWrite(n.Page) })
}

// hasWrite reports whether a reference of pg carries W or M.
func hasWrite(pg *page.Page) bool {
	for _, r := range pg.Refs {
		if !r.IsNil() && r.Flags.InWriteSet() {
			return true
		}
	}
	return false
}

// searched reports a reference the committed version descended through.
func searched(r page.Ref) bool { return r.Flags.Accessed() && r.Flags&page.FlagS != 0 }

// Current follows commit references from any committed version of a file
// to the current version, returning its root block. This is how both
// servers and recovering clients locate the head of the chain.
func Current(st *version.Store, from block.Num) (block.Num, error) {
	cur := from
	for {
		vp, err := st.ReadPage(cur)
		if err != nil {
			return block.NilNum, err
		}
		if !vp.IsVersion {
			return block.NilNum, fmt.Errorf("occ: block %d is not a version page", cur)
		}
		if vp.CommitRef == block.NilNum {
			return cur, nil
		}
		cur = vp.CommitRef
	}
}

// History walks the committed chain from the oldest version reachable
// backwards from `from` and returns the roots oldest-first, ending at the
// current version. It uses base references to walk back and commit
// references to walk forward, the doubly linked list of Fig. 4.
func History(st *version.Store, from block.Num) ([]block.Num, error) {
	// Walk back to the oldest committed version still on disk: versions
	// beyond the garbage collector's retention horizon are gone, and
	// the chain simply starts after them.
	cur := from
	for {
		vp, err := st.ReadPage(cur)
		if err != nil {
			return nil, err
		}
		if vp.BaseRef == block.NilNum {
			break
		}
		base, err := st.ReadPage(vp.BaseRef)
		if err != nil {
			break // base collected: cur is the oldest surviving version
		}
		// Only follow the committed chain: a base whose commit ref
		// does not point back at us is not our predecessor list (we
		// were an uncommitted sibling).
		if base.CommitRef != cur {
			break
		}
		cur = vp.BaseRef
	}
	// Walk forward along commit references.
	var out []block.Num
	for cur != block.NilNum {
		out = append(out, cur)
		vp, err := st.ReadPage(cur)
		if err != nil {
			return nil, err
		}
		cur = vp.CommitRef
	}
	return out, nil
}
