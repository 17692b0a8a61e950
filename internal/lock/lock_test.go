package lock

import (
	"errors"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

const acct block.Account = 1

type fixture struct {
	st    *version.Store
	alive map[capability.Port]bool
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})
	return &fixture{
		st:    version.NewStore(block.NewServer(d), acct),
		alive: make(map[capability.Port]bool),
	}
}

func (f *fixture) manager(port capability.Port) *Manager {
	m := NewManager(f.st, port, func(h capability.Port) bool { return f.alive[h] })
	m.Poll = 50 * time.Microsecond
	m.Patience = 100 * time.Millisecond
	f.alive[port] = true
	return m
}

// versionPage allocates a bare version page and returns its block.
func (f *fixture) versionPage(t *testing.T, mut func(*page.Page)) block.Num {
	t.Helper()
	vp := &page.Page{IsVersion: true, RootFlags: page.FlagC}
	if mut != nil {
		mut(vp)
	}
	blk, err := f.st.AllocPage(vp)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func TestTryAcquireTopSuper(t *testing.T) {
	f := newFixture(t)
	m := f.manager(capability.NewPort())
	blk := f.versionPage(t, nil)

	h, _, err := m.TryAcquireTop(blk, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.blocked() {
		t.Fatalf("unlocked page blocked: %+v", h)
	}
	top, inner, err := m.Locks(blk)
	if err != nil {
		t.Fatal(err)
	}
	if top != m.Port || !inner.IsNil() {
		t.Fatalf("locks = %v/%v", top, inner)
	}

	// Re-acquiring one's own lock is fine (idempotent).
	if h, _, err = m.TryAcquireTop(blk, true); err != nil || h.blocked() {
		t.Fatalf("re-acquire blocked: %+v %v", h, err)
	}

	// A second server is blocked.
	m2 := f.manager(capability.NewPort())
	h, _, err = m2.TryAcquireTop(blk, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.Top != m.Port {
		t.Fatalf("blocked holder = %+v, want %v", h, m.Port)
	}
}

func TestTryAcquireTopSmallIgnoresForeignTop(t *testing.T) {
	f := newFixture(t)
	m1 := f.manager(capability.NewPort())
	m2 := f.manager(capability.NewPort())
	blk := f.versionPage(t, nil)

	if _, _, err := m1.TryAcquireTop(blk, false); err != nil {
		t.Fatal(err)
	}
	// Small-file rule: only the inner lock is tested; the top lock is a
	// hint and gets overwritten.
	h, _, err := m2.TryAcquireTop(blk, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.blocked() {
		t.Fatalf("small-file acquire blocked by top hint: %+v", h)
	}
	top, _, _ := m2.Locks(blk)
	if top != m2.Port {
		t.Fatalf("top = %v, want %v", top, m2.Port)
	}
}

func TestTryAcquireTopBlockedByInner(t *testing.T) {
	f := newFixture(t)
	other := capability.NewPort()
	f.alive[other] = true
	blk := f.versionPage(t, func(vp *page.Page) { vp.InnerLock = other })
	m := f.manager(capability.NewPort())

	for _, super := range []bool{true, false} {
		h, _, err := m.TryAcquireTop(blk, super)
		if err != nil {
			t.Fatal(err)
		}
		if h.Inner != other {
			t.Fatalf("super=%v: inner holder = %+v, want %v", super, h, other)
		}
	}
}

func TestAcquireTopWaitsForRelease(t *testing.T) {
	f := newFixture(t)
	m1 := f.manager(capability.NewPort())
	m2 := f.manager(capability.NewPort())
	blk := f.versionPage(t, nil)
	if _, _, err := m1.TryAcquireTop(blk, true); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := m2.AcquireTop(blk, true); done <- err }()
	time.Sleep(2 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("acquire did not wait: %v", err)
	default:
	}
	if err := m1.Clear(blk, m1.Port); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	top, _, _ := m2.Locks(blk)
	if top != m2.Port {
		t.Fatalf("top = %v after waited acquire", top)
	}
}

func TestAcquireTopTimesOutOnLiveHolder(t *testing.T) {
	f := newFixture(t)
	m1 := f.manager(capability.NewPort())
	m2 := f.manager(capability.NewPort())
	m2.Patience = 5 * time.Millisecond
	blk := f.versionPage(t, nil)
	if _, _, err := m1.TryAcquireTop(blk, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.AcquireTop(blk, true); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
}

func TestAcquireTopRecoversFromDeadHolderBeforeCommit(t *testing.T) {
	f := newFixture(t)
	dead := capability.NewPort() // never marked alive
	blk := f.versionPage(t, func(vp *page.Page) { vp.TopLock = dead })
	m := f.manager(capability.NewPort())

	// The holder is dead and the commit reference is off: §5.3 says the
	// lock can be cleared without further ado.
	if _, err := m.AcquireTop(blk, true); err != nil {
		t.Fatal(err)
	}
	top, _, _ := m.Locks(blk)
	if top != m.Port {
		t.Fatalf("top = %v, want new holder", top)
	}
}

// buildSuperCommitScene models a server that crashed after setting the
// super-file's commit reference but before committing the sub-files:
//
//	P  (old current super version; top lock = dead; CommitRef -> P')
//	P' (new super version; tree holds Q', a new version of sub-file Q)
//	Q  (sub-file current version; inner lock = dead)
//	Q' (new sub version; BaseRef -> Q; commit ref not yet set)
//
// P' and Q' carry no lock: version.Fork copies none, and an update locks
// only the versions it forks from.
func buildSuperCommitScene(t *testing.T, f *fixture, dead capability.Port) (p, pNew, q, qNew block.Num) {
	t.Helper()
	q = f.versionPage(t, func(vp *page.Page) {
		vp.InnerLock = dead
		vp.Data = []byte("sub old")
	})
	p = f.versionPage(t, func(vp *page.Page) {
		vp.TopLock = dead
		vp.Refs = []page.Ref{{Block: q}}
	})
	qNew = f.versionPage(t, func(vp *page.Page) {
		vp.BaseRef = q
		vp.Data = []byte("sub new")
	})
	pNew = f.versionPage(t, func(vp *page.Page) {
		vp.BaseRef = p
		vp.Refs = []page.Ref{{Block: qNew, Flags: page.Flags(0).Set(page.FlagW)}}
	})
	// P crashed mid-commit: its commit reference is already set.
	vp, err := f.st.ReadPage(p)
	if err != nil {
		t.Fatal(err)
	}
	vp.CommitRef = pNew
	if err := f.st.WritePage(p, vp); err != nil {
		t.Fatal(err)
	}
	// Q' version pages carry parent references for ascent.
	for _, b := range []block.Num{q, qNew} {
		vp, err := f.st.ReadPage(b)
		if err != nil {
			t.Fatal(err)
		}
		vp.ParentRef = p
		if err := f.st.WritePage(b, vp); err != nil {
			t.Fatal(err)
		}
	}
	return p, pNew, q, qNew
}

func TestRecoverFinishesCrashedSuperCommit(t *testing.T) {
	f := newFixture(t)
	dead := capability.NewPort()
	p, pNew, q, qNew := buildSuperCommitScene(t, f, dead)
	m := f.manager(capability.NewPort())

	// A waiter on P's top lock finds the holder dead and the commit
	// reference set: it finishes the crashed server's work.
	if _, err := m.AcquireTop(p, true); err != nil {
		t.Fatal(err)
	}

	// The sub-file committed: Q.CommitRef -> Q'.
	qvp, err := f.st.ReadPage(q)
	if err != nil {
		t.Fatal(err)
	}
	if qvp.CommitRef != qNew {
		t.Fatalf("sub commit ref = %d, want %d", qvp.CommitRef, qNew)
	}
	// All the dead holder's locks are gone.
	for _, b := range []block.Num{q, qNew, pNew} {
		top, inner, err := m.Locks(b)
		if err != nil {
			t.Fatal(err)
		}
		if top == dead || inner == dead {
			t.Fatalf("block %d still holds dead locks %v/%v", b, top, inner)
		}
	}
}

func TestRecoverClearsLocksWhenNoCommit(t *testing.T) {
	f := newFixture(t)
	dead := capability.NewPort()
	// Super version P with top lock, sub Q with inner lock, but no
	// commit reference: the update died before committing.
	q := f.versionPage(t, func(vp *page.Page) { vp.InnerLock = dead })
	p := f.versionPage(t, func(vp *page.Page) {
		vp.TopLock = dead
		vp.Refs = []page.Ref{{Block: q}}
	})
	m := f.manager(capability.NewPort())
	if err := m.RecoverCrashed(p, dead); err != nil {
		t.Fatal(err)
	}
	top, _, _ := m.Locks(p)
	_, inner, _ := m.Locks(q)
	if !top.IsNil() || !inner.IsNil() {
		t.Fatalf("locks not cleared: top=%v inner=%v", top, inner)
	}
}

func TestCommitSubFilesIdempotent(t *testing.T) {
	f := newFixture(t)
	dead := capability.NewPort()
	_, pNew, q, qNew := buildSuperCommitScene(t, f, dead)
	m := f.manager(capability.NewPort())

	if _, err := m.CommitSubFiles(pNew, dead); err != nil {
		t.Fatal(err)
	}
	// Re-running (e.g. a second waiter racing the first) must succeed.
	if _, err := m.CommitSubFiles(pNew, dead); err != nil {
		t.Fatalf("second run: %v", err)
	}
	qvp, _ := f.st.ReadPage(q)
	if qvp.CommitRef != qNew {
		t.Fatalf("sub commit ref = %d", qvp.CommitRef)
	}
}

func TestAcquireInnerWaitsAndRecovers(t *testing.T) {
	f := newFixture(t)
	dead := capability.NewPort()
	// Sub-file version page with a stale inner lock from a dead server;
	// its parent (system tree root) is unlocked, so the inner lock can
	// be ignored per §5.3.
	p := f.versionPage(t, nil)
	q := f.versionPage(t, func(vp *page.Page) {
		vp.InnerLock = dead
		vp.ParentRef = p
	})
	// Fix up: parent's tree references q.
	pvp, _ := f.st.ReadPage(p)
	pvp.Refs = []page.Ref{{Block: q}}
	if err := f.st.WritePage(p, pvp); err != nil {
		t.Fatal(err)
	}

	m := f.manager(capability.NewPort())
	if got, _, err := m.AcquireInner(q); err != nil || got != q {
		t.Fatalf("AcquireInner = %d, %v; want %d", got, err, q)
	}
	_, inner, _ := m.Locks(q)
	if inner != m.Port {
		t.Fatalf("inner = %v, want %v", inner, m.Port)
	}
}

// TestAcquireInnerChasesCommitRef: a version page whose commit reference
// is set is no longer current, whatever lock it still carries; the inner
// lock goes on the current version at the end of the chain, and the
// acquisition returns that block and the page it locked.
func TestAcquireInnerChasesCommitRef(t *testing.T) {
	f := newFixture(t)
	other := f.manager(capability.NewPort())
	c := f.versionPage(t, func(vp *page.Page) { vp.Data = []byte("current") })
	b := f.versionPage(t, func(vp *page.Page) { vp.CommitRef = c })
	a := f.versionPage(t, func(vp *page.Page) { vp.CommitRef, vp.TopLock = b, other.Port })
	m := f.manager(capability.NewPort())
	m.Patience = 5 * time.Millisecond
	got, vp, err := m.AcquireInner(a)
	if err != nil || got != c || string(vp.Data) != "current" || vp.InnerLock != m.Port {
		t.Fatalf("AcquireInner = %d, %+v, %v; want %d, the current page locked", got, vp, err, c)
	}
	for _, blk := range []block.Num{a, b} {
		if _, inner, _ := m.Locks(blk); !inner.IsNil() {
			t.Fatalf("superseded page %d got inner lock %v", blk, inner)
		}
	}
	if _, inner, _ := m.Locks(c); inner != m.Port {
		t.Fatalf("current page inner lock %v, want %v", inner, m.Port)
	}
}

func TestAcquireInnerBlockedByLiveTop(t *testing.T) {
	f := newFixture(t)
	m1 := f.manager(capability.NewPort())
	m2 := f.manager(capability.NewPort())
	m2.Patience = 5 * time.Millisecond
	blk := f.versionPage(t, nil)
	if _, _, err := m1.TryAcquireTop(blk, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.AcquireInner(blk); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
}

func TestClearOnlyRemovesNamedHolder(t *testing.T) {
	f := newFixture(t)
	m1 := f.manager(capability.NewPort())
	m2 := f.manager(capability.NewPort())
	blk := f.versionPage(t, nil)
	if _, _, err := m1.TryAcquireTop(blk, true); err != nil {
		t.Fatal(err)
	}
	// Clearing a different holder is a no-op.
	if err := m2.Clear(blk, m2.Port); err != nil {
		t.Fatal(err)
	}
	top, _, _ := m1.Locks(blk)
	if top != m1.Port {
		t.Fatalf("top = %v, cleared by wrong holder", top)
	}
}

func TestLocksRejectsNonVersionPage(t *testing.T) {
	f := newFixture(t)
	m := f.manager(capability.NewPort())
	blk, err := f.st.AllocPage(&page.Page{Data: []byte("plain")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Locks(blk); err == nil {
		t.Fatal("Locks accepted a plain page")
	}
	if _, _, err := m.TryAcquireTop(blk, true); err == nil {
		t.Fatal("TryAcquireTop accepted a plain page")
	}
}

func TestConcurrentTopAcquisitionExactlyOneWins(t *testing.T) {
	f := newFixture(t)
	blk := f.versionPage(t, nil)
	const n = 8
	managers := make([]*Manager, n)
	for i := range managers {
		managers[i] = f.manager(capability.NewPort())
	}
	wins := make(chan int, n)
	for i, m := range managers {
		go func(i int, m *Manager) {
			h, _, err := m.TryAcquireTop(blk, true)
			if err == nil && !h.blocked() {
				wins <- i
			} else {
				wins <- -1
			}
		}(i, m)
	}
	won := 0
	for i := 0; i < n; i++ {
		if <-wins >= 0 {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d managers acquired the top lock, want exactly 1", won)
	}
}

// TestCommitSubFilesReadBudget: committing a super-file update that
// crossed k sub-files at depth d reads the new tree one level per call —
// at most d+1 calls down to the sub-files' version pages, whatever k is —
// besides one read inside the block lock of each base it commits.
func TestCommitSubFilesReadBudget(t *testing.T) {
	fs := treetest.NewStore()
	st := version.NewStore(fs, acct)
	c := capability.Capability{Object: 1}
	outer, err := version.CreateFile(st, c, c, []byte("outer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.InsertPage(page.RootPath, 0, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	const k = 3 // sub-files at /0/0, /0/1, /0/2: depth 2
	for i := 0; i < k; i++ {
		if _, err := outer.InsertSubFile(page.Path{0}, i, c, c, []byte("sub")); err != nil {
			t.Fatal(err)
		}
	}
	v, err := version.CreateVersion(st, outer.Root, c)
	if err != nil {
		t.Fatal(err)
	}
	holder := capability.NewPort()
	m := NewManager(st, holder, nil)
	var bases []block.Num
	v.Cross = func(blk block.Num, _ *page.Page) (*page.Page, error) {
		cur, vp, err := m.AcquireInner(blk)
		if err != nil {
			return nil, err
		}
		bases = append(bases, cur)
		return version.Fork(cur, vp, c)
	}
	ps := make([]page.Path, k)
	datas := make([][]byte, k)
	for i := range ps {
		ps[i], datas[i] = page.Path{0, i}, []byte("new")
	}
	if err := v.Apply(nil, ps, datas); err != nil {
		t.Fatal(err)
	}
	mid, err := v.PeekPage(page.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	var forks []block.Num
	for _, r := range mid.Refs {
		forks = append(forks, r.Block)
	}
	fs.Count()
	if _, err := m.CommitSubFiles(v.Root, holder); err != nil {
		t.Fatal(err)
	}
	reads, locked := fs.Count()
	if reads > 3 {
		t.Fatalf("%d sub-files at depth 2: %d read calls outside the block lock, want <= 3", k, reads)
	}
	if locked != k {
		t.Fatalf("%d reads inside the block lock, want %d (one commit of each base)", locked, k)
	}
	for i, b := range bases {
		vp, err := st.ReadPage(b)
		if err != nil {
			t.Fatal(err)
		}
		if vp.CommitRef != forks[i] || !vp.InnerLock.IsNil() {
			t.Fatalf("sub-file %d: commit ref %d, inner lock %v; want %d, none", i, vp.CommitRef, vp.InnerLock, forks[i])
		}
	}
}

// TestSuperFileCommitLeavesNewVersionsUnlocked: a super-file update that
// holds the top lock on its base and crosses into sub-files, one of them
// nested in another, locks only the versions it forks from. After the
// commit reference is set, the sub-files are committed and the top lock
// is cleared, no version page of the new tree — the new root, a new
// sub-file version, an untouched sub-file — and no base carries a lock:
// the invariant that lets CommitSubFiles clear locks on the bases alone.
func TestSuperFileCommitLeavesNewVersionsUnlocked(t *testing.T) {
	st := version.NewStore(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})), acct)
	c := capability.Capability{Object: 1}
	outer, err := version.CreateFile(st, c, c, []byte("outer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.InsertPage(page.RootPath, 0, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := outer.InsertSubFile(page.Path{0}, i, c, c, []byte("sub")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := outer.InsertSubFile(page.Path{0, 0}, 0, c, c, []byte("nested")); err != nil {
		t.Fatal(err)
	}
	holder := capability.NewPort()
	m := NewManager(st, holder, nil)
	locked, err := m.AcquireTop(outer.Root, true)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := version.Fork(outer.Root, locked, c)
	if err != nil {
		t.Fatal(err)
	}
	v := version.NewTree(st, vp)
	bases := []block.Num{outer.Root}
	v.Cross = func(blk block.Num, _ *page.Page) (*page.Page, error) {
		cur, vp, err := m.AcquireInner(blk)
		if err != nil {
			return nil, err
		}
		bases = append(bases, cur)
		return version.Fork(cur, vp, c)
	}
	ps := []page.Path{{0, 0, 0}, {0, 1}}
	if err := v.Apply(nil, ps, [][]byte{[]byte("new nested"), []byte("new sub")}); err != nil {
		t.Fatal(err)
	}
	if len(bases) != 4 {
		t.Fatalf("crossed %d sub-files, want 3", len(bases)-1)
	}
	if err := occ.NewCommitter(st).Commit(v, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitSubFiles(v.Root, holder); err != nil {
		t.Fatal(err)
	}
	if err := m.Clear(outer.Root, holder); err != nil {
		t.Fatal(err)
	}
	pages := 0
	err = st.Visit([]block.Num{v.Root}, func(n *version.Node) (version.Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		if n.Page.IsVersion {
			pages++
			if !n.Page.TopLock.IsNil() || !n.Page.InnerLock.IsNil() {
				t.Errorf("version page %d of the new tree locked: top %v, inner %v", n.Ref.Block, n.Page.TopLock, n.Page.InnerLock)
			}
		}
		return version.All, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages != 5 {
		t.Fatalf("new tree holds %d version pages, want 5", pages)
	}
	for _, b := range bases {
		top, inner, err := m.Locks(b)
		if err != nil {
			t.Fatal(err)
		}
		if !top.IsNil() || !inner.IsNil() {
			t.Errorf("base %d still locked: top %v, inner %v", b, top, inner)
		}
	}
}
