// Package lock implements the paper's §5.3 locking mechanism for
// super-file updates, layered over the optimistic machinery so that "no
// special recovery in case of crashes" is needed.
//
// Each version page has two lock fields, the top lock and the inner lock,
// both holding the port of the updating server (locks "are made of
// ports"); a file is locked when a field is non-zero, and locks only have
// meaning in the current version. The rules:
//
//   - Creating a version of a super-file: both fields must be zero; the
//     top lock is then set. Wait otherwise.
//   - Creating a version of a small file: only the inner lock must be
//     zero, "but the top lock set. Thus, a small file can be subject to
//     more than one update at the same time" — the top lock on small
//     files is a hint (the soft-locking scheme), not mutual exclusion.
//   - A super-file update sets inner locks on the (current) version pages
//     of the sub-files it visits, and waits on any top lock it discovers
//     while descending.
//   - Commit on a super-file sets the commit reference as usual, then
//     descends the new tree to commit the sub-file versions and clear the
//     locks; "These commits always succeed, because the locks prevent
//     access by other clients during the update to the super-file."
//
// Crash recovery needs no rollback. A waiter that finds the lock-holding
// port dead applies §5.3: if the locked version page's commit reference
// is off, the locks are simply cleared; if it is set, the waiter finishes
// the crashed server's work by committing the sub-files of the version
// the commit reference names.
//
// Lock field mutations are made atomic with the block service's lock
// facility, the same primitive the commit critical section uses.
package lock

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/version"
)

// ErrLockTimeout reports that a lock did not clear within the manager's
// patience while its holder stayed alive.
var ErrLockTimeout = errors.New("lock: timed out waiting for live holder")

// Prober answers whether a lock-holding port is still served. The file
// service passes a closure over its transport: a failed transaction to
// the port is the "automatic warning mechanism for waiting updates".
type Prober func(holder capability.Port) bool

// Manager performs lock operations for one file server.
type Manager struct {
	St   *version.Store
	Port capability.Port // this server's port, stored in lock fields
	// Probe reports holder liveness. nil means "assume alive".
	Probe Prober
	// Poll is the wait-loop interval; Patience bounds total waiting for
	// a live holder.
	Poll     time.Duration
	Patience time.Duration
}

// NewManager creates a Manager with test-friendly defaults.
func NewManager(st *version.Store, port capability.Port, probe Prober) *Manager {
	return &Manager{
		St:       st,
		Port:     port,
		Probe:    probe,
		Poll:     200 * time.Microsecond,
		Patience: 5 * time.Second,
	}
}

// As returns a copy of the manager acting under a different port: the
// file server gives every update its own lock port so that concurrent
// updates exclude one another even when one server manages both, and so
// that waiters can probe the liveness of exactly the update they wait on.
func (m *Manager) As(port capability.Port) *Manager {
	cp := *m
	cp.Port = port
	return &cp
}

// alive wraps Probe with its nil default.
func (m *Manager) alive(holder capability.Port) bool {
	if holder.IsNil() {
		return false
	}
	if m.Probe == nil {
		return true
	}
	return m.Probe(holder)
}

// mutate runs fn on the version page in blk under the block lock; fn
// returns whether to write the page back. It retries while another server
// briefly holds the block lock.
func (m *Manager) mutate(blk block.Num, fn func(vp *page.Page) (write bool, err error)) error {
	for {
		err := block.WithLock(m.St.Blocks, m.St.Acct, blk, func(raw []byte) ([]byte, error) {
			vp, err := page.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("lock: version page %d: %w", blk, err)
			}
			if !vp.IsVersion {
				return nil, fmt.Errorf("lock: block %d is not a version page", blk)
			}
			write, err := fn(vp)
			if err != nil || !write {
				return nil, err
			}
			return vp.Encode(m.St.Blocks.BlockSize())
		})
		if errors.Is(err, block.ErrLocked) {
			time.Sleep(m.Poll)
			continue
		}
		return err
	}
}

// Holder describes why a lock attempt failed.
type Holder struct {
	Top   capability.Port // non-nil if a top lock blocked us
	Inner capability.Port // non-nil if an inner lock blocked us
}

// blocked reports whether any lock stood in the way.
func (h Holder) blocked() bool { return !h.Top.IsNil() || !h.Inner.IsNil() }

// port returns the blocking port, preferring the top lock.
func (h Holder) port() capability.Port {
	if !h.Top.IsNil() {
		return h.Top
	}
	return h.Inner
}

// TryAcquireTop attempts the version-creation lock step on the current
// version page blk. For a super-file both fields must be zero; for a
// small file only the inner lock is tested. On success the top lock holds
// m.Port. A small-file acquisition overwrites a foreign top lock (it is
// only a hint there).
func (m *Manager) TryAcquireTop(blk block.Num, super bool) (Holder, error) {
	var h Holder
	err := m.mutate(blk, func(vp *page.Page) (bool, error) {
		h = Holder{}
		if !vp.InnerLock.IsNil() && vp.InnerLock != m.Port {
			h.Inner = vp.InnerLock
			return false, nil
		}
		if super && !vp.TopLock.IsNil() && vp.TopLock != m.Port {
			h.Top = vp.TopLock
			return false, nil
		}
		vp.TopLock = m.Port
		return true, nil
	})
	return h, err
}

// AcquireTop waits until TryAcquireTop succeeds, recovering from crashed
// holders along the way.
func (m *Manager) AcquireTop(blk block.Num, super bool) error {
	deadline := time.Now().Add(m.Patience)
	for {
		h, err := m.TryAcquireTop(blk, super)
		if err != nil {
			return err
		}
		if !h.blocked() {
			return nil
		}
		if !m.alive(h.port()) {
			if err := m.RecoverCrashed(blk, h.port()); err != nil {
				return err
			}
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("version page %d held by %v: %w", blk, h.port(), ErrLockTimeout)
		}
		time.Sleep(m.Poll)
	}
}

// AcquireInner sets the inner lock on the current version page of the
// sub-file whose version page is in blk, during a super-file update. It
// checks currency under each page's block lock: a page whose commit
// reference is set has been superseded, so it stays unlocked and the
// acquisition moves on to its successor ("locks only have meaning in the
// current version"). It waits while another update holds either lock on
// the current page ("If an update, while descending the page tree,
// discovers a top lock, it must wait"), recovering from crashed holders.
// It returns the block it locked and that page as it locked it.
func (m *Manager) AcquireInner(blk block.Num) (block.Num, *page.Page, error) {
	deadline := time.Now().Add(m.Patience)
	for {
		var h Holder
		var locked *page.Page
		next := block.NilNum
		err := m.mutate(blk, func(vp *page.Page) (bool, error) {
			h, next, locked = Holder{}, vp.CommitRef, nil
			switch {
			case next != block.NilNum:
				return false, nil
			case !vp.TopLock.IsNil() && vp.TopLock != m.Port:
				h.Top = vp.TopLock
				return false, nil
			case !vp.InnerLock.IsNil() && vp.InnerLock != m.Port:
				h.Inner = vp.InnerLock
				return false, nil
			}
			vp.InnerLock, locked = m.Port, vp
			return true, nil
		})
		switch {
		case err != nil:
			return block.NilNum, nil, err
		case next != block.NilNum:
			blk = next
			continue
		case !h.blocked():
			return blk, locked, nil
		}
		if !m.alive(h.port()) {
			if !h.Top.IsNil() {
				err = m.RecoverCrashed(blk, h.Top)
			} else {
				err = m.recoverInner(blk, h.Inner)
			}
			if err != nil {
				return block.NilNum, nil, err
			}
			continue
		}
		if time.Now().After(deadline) {
			return block.NilNum, nil, fmt.Errorf("version page %d held by %v: %w", blk, h.port(), ErrLockTimeout)
		}
		time.Sleep(m.Poll)
	}
}

// Clear removes this server's locks (or a dead holder's) from the version
// page in blk.
func (m *Manager) Clear(blk block.Num, holder capability.Port) error {
	return m.mutate(blk, func(vp *page.Page) (bool, error) {
		return clearHolder(vp, holder), nil
	})
}

// clearHolder clears holder's locks in vp, reporting whether any was set.
func clearHolder(vp *page.Page, holder capability.Port) (changed bool) {
	if vp.TopLock == holder {
		vp.TopLock, changed = capability.NilPort, true
	}
	if vp.InnerLock == holder {
		vp.InnerLock, changed = capability.NilPort, true
	}
	return changed
}

// Locks returns the current lock fields of the version page in blk.
func (m *Manager) Locks(blk block.Num) (top, inner capability.Port, err error) {
	vp, err := m.St.ReadPage(blk)
	if err != nil {
		return 0, 0, err
	}
	if !vp.IsVersion {
		return 0, 0, fmt.Errorf("lock: block %d is not a version page", blk)
	}
	return vp.TopLock, vp.InnerLock, nil
}

// RecoverCrashed applies the §5.3 top-lock recovery rules to the version
// page in blk, whose holder (dead) held the top lock:
//
//	"If the commit reference is off, the lock can be cleared without
//	further ado, and, when the page tree is descended, inner locks (with
//	the same port, of course) can be cleared or ignored. If the commit
//	reference is set, the version it refers to is current. The version
//	with the lock, and the current version are traversed simultaneously,
//	and the commit references of the sub-files are set, finishing the
//	work of the crashed server."
func (m *Manager) RecoverCrashed(blk block.Num, dead capability.Port) error {
	vp, err := m.St.ReadPage(blk)
	if err != nil {
		return err
	}
	if vp.CommitRef != block.NilNum {
		// The crashed server got as far as committing the super-file:
		// finish its sub-file commits, which also clears inner locks.
		if _, err := m.CommitSubFiles(vp.CommitRef, dead); err != nil {
			return err
		}
	} else {
		// Crashed mid-update: the uncommitted version is garbage (the
		// GC reclaims it); just clear the stale inner locks under this
		// page.
		if err := m.clearInnerLocks(blk, dead); err != nil {
			return err
		}
	}
	return m.Clear(blk, dead)
}

// recoverInner applies the §5.3 inner-lock recovery rule: "A server,
// waiting on an inner lock ascends the system tree to the first unlocked
// page, or a page with a top lock. If the page thus found is not locked,
// the inner lock can be ignored. If the page is locked, it is treated as
// described above."
func (m *Manager) recoverInner(blk block.Num, dead capability.Port) error {
	cur := blk
	for {
		vp, err := m.St.ReadPage(cur)
		if err != nil {
			return err
		}
		if vp.ParentRef == block.NilNum {
			// Reached the system-tree root without finding the dead
			// holder's top lock: the inner lock is stale.
			return m.Clear(blk, dead)
		}
		parent := vp.ParentRef
		// The enclosing file's update state lives in its current
		// version page.
		curBlk, err := occ.Current(m.St, parent)
		if err != nil {
			return err
		}
		cvp, err := m.St.ReadPage(curBlk)
		if err != nil {
			return err
		}
		if cvp.TopLock == dead {
			return m.RecoverCrashed(curBlk, dead)
		}
		if cvp.TopLock.IsNil() && cvp.InnerLock.IsNil() {
			// First unlocked ancestor: the inner lock is stale.
			return m.Clear(blk, dead)
		}
		cur = parent
	}
}

// clearInnerLocks clears the locks the dead port holds on the current
// version pages of the sub-files directly inside the committed tree
// under the version page in blk, and of the sub-files directly inside
// those.
func (m *Manager) clearInnerLocks(blk block.Num, dead capability.Port) error {
	subs, err := m.subVersions([]block.Num{blk})
	if err != nil {
		return err
	}
	inner, err := m.subVersions(subs)
	if err != nil {
		return err
	}
	for _, b := range append(subs, inner...) {
		if err := m.Clear(b, dead); err != nil {
			return err
		}
	}
	return nil
}

// subVersions returns, for every sub-file found directly inside the page
// trees of the version pages in roots, the sub-file's *current* version
// page (the tree may reference a stale committed version; commit
// references are chased, since "locks only have meaning in the current
// version"). It does not enter the sub-files themselves.
func (m *Manager) subVersions(roots []block.Num) ([]block.Num, error) {
	var out []block.Num
	err := m.St.Visit(roots, func(n *version.Node) (version.Follow, error) {
		switch {
		case n.Err != nil:
			return nil, n.Err
		case n.Parent == nil || !n.Page.IsVersion:
			return version.All, nil
		}
		cur, err := occ.Current(m.St, n.Ref.Block)
		if err == nil {
			out = append(out, cur)
		}
		return nil, err
	})
	return out, err
}

// CommitSubFiles finishes a super-file commit: it visits the freshly
// committed version tree rooted at newRoot (following only references
// the update actually touched, into the sub-files too) and, for every
// sub-file version created during the update, sets the base's commit
// reference and clears the holder's locks — outer sub-files before the
// sub-files inside them, whose new versions are unlocked first. It
// returns the bases whose locks it cleared. The operation is idempotent,
// so a waiter can safely re-run it for a crashed server.
func (m *Manager) CommitSubFiles(newRoot block.Num, holder capability.Port) ([]block.Num, error) {
	var subs []*version.Node
	err := m.St.Visit([]block.Num{newRoot}, func(n *version.Node) (version.Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		if n.Parent != nil && n.Page.IsVersion {
			subs = append(subs, n)
		}
		return version.Accessed, nil
	})
	if err != nil {
		return nil, err
	}
	var bases []block.Num
	for _, n := range subs {
		if base := n.Page.BaseRef; base != block.NilNum {
			if err := m.commitOneSub(n.Ref.Block, base, holder); err != nil {
				return nil, err
			}
			bases = append(bases, base)
		}
	}
	// New sub-versions become current; leave them unlocked, and the new
	// current version of the super-file too.
	for i := len(subs) - 1; i >= 0; i-- {
		if err := m.Clear(subs[i].Ref.Block, holder); err != nil {
			return nil, err
		}
	}
	return bases, m.Clear(newRoot, holder)
}

// commitOneSub commits one new sub-file version (newBlk) over its base
// and clears the holder's locks on the base, in one write under the block
// lock: under the locks setting base.CommitRef "always succeeds", and
// re-running it after a crash finds it set.
func (m *Manager) commitOneSub(newBlk, base block.Num, holder capability.Port) error {
	return m.mutate(base, func(bvp *page.Page) (bool, error) {
		if bvp.CommitRef != block.NilNum && bvp.CommitRef != newBlk {
			return false, fmt.Errorf("lock: sub-file commit clash at block %d: %d vs %d",
				base, bvp.CommitRef, newBlk)
		}
		set := bvp.CommitRef == block.NilNum
		bvp.CommitRef = newBlk
		return clearHolder(bvp, holder) || set, nil
	})
}
