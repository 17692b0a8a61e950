// Package gc implements the garbage collector the paper promises in its
// abstract: one "that runs independent of, and in parallel with, the
// operation of the system".
//
// Copy-on-write versioning never frees anything inline: aborted versions
// leave orphaned page copies, version chains grow without bound, and
// pages copied only to initialise flags (read shadowing) duplicate their
// base. The collector reclaims all three:
//
//   - Mark & sweep over the service's block account. Roots are the
//     retained committed versions of every file (a configurable horizon)
//     plus all live uncommitted versions reported by the servers.
//   - Retention: committed versions older than Retain steps behind the
//     current version are condemned; the file table entry is advanced
//     first so access paths never dangle.
//   - Reshare (§5.1): "The Amoeba File Service garbage collector may
//     remove pages that were copied but not written or modified and
//     reshare the corresponding page from the version on which it was
//     based." After a version commits, its R/S information is no longer
//     needed, so a copy whose whole subtree carries no W or M is
//     replaced by a reference to the base's page and the copy freed.
//
// Safety against concurrent operation comes from two-cycle condemnation:
// a block is freed only if it was unreachable in two consecutive
// collections, giving in-flight descents and just-allocated-but-not-yet-
// linked pages a full cycle of grace. That grace holds because a cycle
// samples its pins — the open versions and their bases, where an open
// version whose root has no block yet (it gets one in the version's
// first flush) is pinned through its base alone — before it reads the
// file table: a block allocated after one cycle's pin sample is reachable
// from the next cycle's roots, through an open version or, once that
// version commits, through the table.
package gc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/ftab"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/version"
)

// Report summarises one collection cycle.
type Report struct {
	Scanned   int // blocks on the account
	Marked    int // blocks reachable from roots
	Condemned int // unreachable this cycle, not yet freed
	Freed     int // blocks returned to the block service
	Reshared  int // page copies replaced by their base's page
	Retired   int // committed versions dropped past the horizon
	Demoted   int // retired versions rewritten into the archive tier
	// DemoteErrors counts demote attempts that failed this cycle; the
	// versions stay retained (nothing committed is freed unarchived),
	// so a persistently failing archive shows up here — and in the log
	// of whoever runs the cycles (core.Instance) — instead of silently
	// halting retirement while the front tier grows.
	DemoteErrors int
	DemoteErr    error // last demote failure, nil when DemoteErrors is 0
	LiveRoots    int   // root versions marked (retained + uncommitted + pinned bases)
	Duration     time.Duration
}

// Collector reclaims storage for one file service.
type Collector struct {
	St    *version.Store
	Table ftab.Table
	// Retain is how many committed versions (including the current one)
	// each file keeps; minimum 1.
	Retain int
	// Live reports the root blocks of versions currently managed by
	// servers (uncommitted updates); they and their pages are pinned. It
	// is required: a collector without pins frees pages under running
	// updates.
	Live func() []block.Num
	// Gate, when set, is consulted at the start of every collection; a
	// false return skips the cycle entirely. Multi-server deployments
	// fail closed through it when a peer's open versions cannot be
	// pinned (the peer is unreachable): sweeping without those pins
	// could free pages under a sibling server's in-flight update.
	Gate func() bool
	// Demote, when set, turns retirement into demote-instead-of-delete:
	// every committed version about to fall past the retention horizon
	// is handed to the archive tier (still fully readable — the sweep
	// has not touched it) before the table advances past it. A version
	// the archiver cannot take stays retained for this cycle, so
	// nothing committed is ever freed unarchived; failures are counted
	// in Report.DemoteErrors and logged by the loop that runs the cycles.
	// Demotion is idempotent (content-addressed, the snapshot log
	// refuses duplicates, and the archiver refreshes its index from the
	// shared backing store first), which also defuses the multi-server
	// hazard: a second server demoting the same retired root converges
	// on the sibling's snapshot instead of double-freeing. Two servers
	// demoting the same root at the same instant can still each append
	// a log record (same score, different Seq) — harmless, the blocks
	// dedup and either record opens the same tree. Sweeping remains
	// single-writer — concurrent sweeps could free a sibling's
	// not-yet-linked shadow pages — but the constraint is enforced by
	// election now, not configuration: every server may run the
	// collector, and ftab.Replicated.SweepLeader picks exactly one
	// (the lowest configured server ID) to actually sweep.
	Demote func(object uint32, root block.Num) error

	mu        sync.Mutex
	condemned map[block.Num]bool
}

// New creates a collector with a retention of keep committed versions
// per file. live must not be nil.
func New(st *version.Store, table ftab.Table, keep int, live func() []block.Num) *Collector {
	if live == nil {
		panic("gc: New without a Live function")
	}
	if keep < 1 {
		keep = 1
	}
	return &Collector{
		St:        st,
		Table:     table,
		Retain:    keep,
		Live:      live,
		condemned: make(map[block.Num]bool),
	}
}

// Collect runs one cycle: reshare, mark, and two-cycle sweep.
func (g *Collector) Collect() (Report, error) {
	start := time.Now()
	var rep Report
	if g.Gate != nil && !g.Gate() {
		return rep, nil
	}

	// Pins first: the live uncommitted versions and their bases. A
	// version that commits after this sample is reached from the table
	// read below (occ.History chases commit references forward), so it is
	// in one root set or the other; sampled the other way round, it could
	// fall between the two.
	live := g.Live()
	roots := append([]block.Num(nil), live...)
	// Pin each live uncommitted version's base as well. Retirement
	// follows only the committed chain from the table entry, so an old
	// base kept alive solely by an in-flight update would otherwise be
	// retired and swept under it — and a crash-recovery Rebuild relies on
	// "an uncommitted version's base survives" to tell abandoned orphans
	// from committed survivors. The version pages come in one read.
	g.St.Visit(live, func(n *version.Node) (version.Follow, error) {
		if n.Err == nil && n.Page.BaseRef != block.NilNum {
			roots = append(roots, n.Page.BaseRef)
		}
		return nil, nil
	})

	// Retained committed versions per file, advancing the table entry to
	// the oldest retained version.
	for _, obj := range g.Table.Objects() {
		e, err := g.Table.Get(obj)
		if err != nil {
			continue
		}
		chain, err := occ.History(g.St, e.Entry)
		if err != nil || len(chain) == 0 {
			continue
		}
		keepFrom := len(chain) - g.Retain
		if keepFrom < 0 {
			keepFrom = 0
		}
		if g.Demote != nil && keepFrom > 0 {
			// Archive oldest-first; stop at the first failure and keep
			// the remainder of the chain retained until a later cycle
			// manages to demote it. A root that is already condemned was
			// retired — and demoted — in an earlier cycle and merely
			// awaits the sweep (History still reaches it through base
			// references until its blocks are freed); skip it instead of
			// demoting again.
			handled := 0
			for _, root := range chain[:keepFrom] {
				g.mu.Lock()
				already := g.condemned[root]
				g.mu.Unlock()
				if already {
					handled++
					continue
				}
				if err := g.Demote(obj, root); err != nil {
					rep.DemoteErrors++
					rep.DemoteErr = fmt.Errorf("gc: demote object %d root %d: %w", obj, root, err)
					break
				}
				handled++
				rep.Demoted++
			}
			keepFrom = handled
		}
		rep.Retired += keepFrom
		if keepFrom > 0 {
			g.Table.Retire(obj, chain[keepFrom])
		}
		retained := chain[keepFrom:]
		// Reshare every retained version against its base — skipping
		// the oldest retained one, whose base is about to be condemned.
		for _, root := range retained[1:] {
			n, err := g.reshareVersion(root)
			if err == nil {
				rep.Reshared += n
			}
		}
		roots = append(roots, retained...)
	}
	rep.LiveRoots = len(roots)

	marked := g.mark(roots)
	rep.Marked = len(marked)

	// Sweep with two-cycle condemnation.
	all, err := g.St.Blocks.Recover(g.St.Acct)
	if err != nil {
		return rep, fmt.Errorf("gc: account scan: %w", err)
	}
	rep.Scanned = len(all)
	g.mu.Lock()
	prev := g.condemned
	next := make(map[block.Num]bool)
	var dead []block.Num
	for _, n := range all {
		if marked[n] {
			continue
		}
		if prev[n] {
			// Unreachable for two consecutive cycles: free it.
			dead = append(dead, n)
			continue
		}
		next[n] = true
	}
	g.condemned = next
	g.mu.Unlock()
	// One multi-block free for the whole condemned set instead of a
	// round trip per dead page.
	if len(dead) > 0 {
		if err := block.FreeMulti(g.St.Blocks, g.St.Acct, dead); err == nil {
			rep.Freed += len(dead)
		} else {
			// Rare (e.g. a block freed concurrently): retry singly for
			// an accurate count; blocks the multi op already freed now
			// fail and stay uncounted, so the report may undercount.
			for _, n := range dead {
				if g.St.Blocks.Free(g.St.Acct, n) == nil {
					rep.Freed++
				}
			}
		}
	}
	rep.Condemned = len(next)
	rep.Duration = time.Since(start)
	return rep, nil
}

// mark returns every block reachable from roots, following all
// references (including sub-file version pages and, from them, their
// committed chains' retained parts — sub-files are files in the table,
// so their chains are rooted independently; here we only follow the
// tree). One visit covers every root, so a cycle reads each level of
// the whole store once, and a block reached twice is read once. A page
// that cannot be read (e.g. a crashed server's version freed earlier)
// is marked and marks nothing further.
func (g *Collector) mark(roots []block.Num) map[block.Num]bool {
	marked := make(map[block.Num]bool)
	var start []block.Num
	for _, n := range roots {
		if !marked[n] {
			marked[n] = true
			start = append(start, n)
		}
	}
	unmarked := func(r page.Ref) bool {
		if marked[r.Block] {
			return false
		}
		marked[r.Block] = true
		return true
	}
	g.St.Visit(start, func(*version.Node) (version.Follow, error) {
		return unmarked, nil
	})
	return marked
}

// reshareVersion applies the §5.1 optimisation to one committed version:
// copies whose whole subtree carries no W or M are replaced by the base's
// corresponding page. It reads the version's accessed region with one
// visit (sub-file version pages have their own chains and are not
// entered), finds bottom-up which copies have a write below them, and
// patches the parents of the others. A page that cannot be read, or a
// sub-file boundary, counts as a write: the copies above it stay.
// Returns the number of reshared references.
func (g *Collector) reshareVersion(root block.Num) (int, error) {
	var nodes []*version.Node
	err := g.St.Visit([]block.Num{root}, func(n *version.Node) (version.Follow, error) {
		if n.Parent == nil && n.Err != nil {
			return nil, n.Err
		}
		nodes = append(nodes, n)
		if n.Err != nil || n.Parent != nil && n.Page.IsVersion ||
			n.Parent == nil && n.Page.BaseRef == block.NilNum {
			return nil, nil
		}
		return version.Accessed, nil
	})
	if err != nil {
		return 0, err
	}
	// Bottom-up: a page is kept when it was written or modified, cannot
	// be read, is a sub-file, or has a kept page below it.
	kept := make(map[*version.Node]bool)
	for i := len(nodes) - 1; i > 0; i-- {
		n := nodes[i]
		if n.Err != nil || n.Page.IsVersion || n.Ref.Flags.InWriteSet() {
			kept[n] = true
		}
		if kept[n] {
			kept[n.Parent] = true
		}
	}
	// Every copy that is not kept, under the root or a kept page, and has
	// a base is replaced by a reference to the base's page; the orphaned
	// copy (and its descendants) fall to the sweep. Below a copy that is
	// not kept nothing is patched: the copy itself goes.
	vp := nodes[0]
	reshared := 0
	patched := make(map[*version.Node][]int)
	for _, n := range nodes[1:] {
		if (n.Parent == vp || kept[n.Parent]) && !kept[n] && n.Page.BaseRef != block.NilNum {
			n.Parent.Page.Refs[n.Index] = page.Ref{Block: n.Page.BaseRef}
			patched[n.Parent] = append(patched[n.Parent], n.Index)
			reshared++
		}
	}
	// Interior pages of a committed version are immutable: nobody else
	// writes them, so the copies read above are still current and go
	// back in one multi-block write.
	var ns []block.Num
	var pgs []*page.Page
	for _, n := range nodes[1:] {
		if patched[n] != nil {
			ns = append(ns, n.Ref.Block)
			pgs = append(pgs, n.Page)
		}
	}
	if err := g.St.WritePages(ns, pgs); err != nil {
		return 0, err
	}
	if patched[vp] == nil {
		return reshared, nil
	}
	// The version page is the one page of a committed version that is
	// still written in place — its commit reference is set by a
	// successor's commit, and lock hints and tombstones land there too —
	// always inside version.UpdateVersionPage, the critical section.
	// Writing the copy read above back whole would erase a commit
	// reference set since, forking the chain and losing acknowledged
	// commits. Join the same critical section and patch only the
	// reshared slots into the page as it is now; its references never
	// change once it is committed.
	err = g.St.UpdateVersionPage(root, func(fresh *page.Page) (bool, error) {
		for _, i := range patched[vp] {
			fresh.Refs[i] = vp.Page.Refs[i]
		}
		return true, nil
	})
	return reshared, err
}
