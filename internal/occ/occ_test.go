package occ

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/version"
)

const acct block.Account = 1

type fixture struct {
	st   *version.Store
	com  *Committer
	fact *capability.Factory
	next uint32
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})
	st := version.NewStore(block.NewServer(d), acct)
	return &fixture{
		st:   st,
		com:  NewCommitter(st),
		fact: capability.NewFactory(capability.NewPort().Public()),
	}
}

func (f *fixture) cap() capability.Capability {
	f.next++
	return f.fact.Mint(f.next)
}

// newFile creates a committed initial version with children child0..childN-1.
func (f *fixture) newFile(t *testing.T, children int) *version.Tree {
	t.Helper()
	tr, err := version.CreateFile(f.st, f.cap(), f.cap(), []byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < children; i++ {
		if err := tr.InsertPage(page.RootPath, i, []byte(fmt.Sprintf("child%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.com.Commit(tr, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	return tr
}

func (f *fixture) newVersion(t *testing.T, base block.Num) *version.Tree {
	t.Helper()
	v, err := version.CreateVersion(f.st, base, f.cap())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func (f *fixture) mustCurrent(t *testing.T, from block.Num) *version.Tree {
	t.Helper()
	cur, err := Current(f.st, from)
	if err != nil {
		t.Fatal(err)
	}
	return &version.Tree{St: f.st, Root: cur}
}

func TestSequentialCommitsAlwaysSucceed(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 3)
	cur := base.Root
	for i := 0; i < 10; i++ {
		v := f.newVersion(t, cur)
		if err := v.WritePage(page.Path{i % 3}, []byte(fmt.Sprintf("update%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := f.com.Commit(v, capability.NilPort); err != nil {
			t.Fatalf("sequential commit %d: %v", i, err)
		}
		cur = v.Root
	}
	// All commits took the fast path: "As long as updates are done one
	// after the other, commit always succeeds and requires virtually no
	// processing at all."
	if got := f.com.Stat.Validations.Load(); got != 0 {
		t.Fatalf("sequential commits ran %d validations, want 0", got)
	}
	if got := f.com.Stat.FastCommits.Load(); got != 11 { // +1 for newFile
		t.Fatalf("FastCommits = %d, want 11", got)
	}
}

func TestCommitLinksChain(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	v1 := f.newVersion(t, base.Root)
	v1.WritePage(page.Path{0}, []byte("v1"))
	if err := f.com.Commit(v1, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	v2 := f.newVersion(t, v1.Root)
	v2.WritePage(page.Path{0}, []byte("v2"))
	if err := f.com.Commit(v2, capability.NilPort); err != nil {
		t.Fatal(err)
	}

	// Fig. 4: committed versions form a doubly linked list via base and
	// commit references.
	hist, err := History(f.st, v2.Root)
	if err != nil {
		t.Fatal(err)
	}
	want := []block.Num{base.Root, v1.Root, v2.Root}
	if len(hist) != 3 {
		t.Fatalf("history %v, want %v", hist, want)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("history %v, want %v", hist, want)
		}
	}
	// Current from any point reaches v2.
	for _, from := range want {
		cur, err := Current(f.st, from)
		if err != nil {
			t.Fatal(err)
		}
		if cur != v2.Root {
			t.Fatalf("Current(%d) = %d, want %d", from, cur, v2.Root)
		}
	}
}

func TestConcurrentDisjointWritesMerge(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 3)

	// The airline scenario: two concurrent updates touch different
	// pages of the same shared file.
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	if err := vb.WritePage(page.Path{0}, []byte("AMS->LON")); err != nil {
		t.Fatal(err)
	}
	if err := vc.WritePage(page.Path{2}, []byte("SFO->LAX")); err != nil {
		t.Fatal(err)
	}

	// vc commits first (fast), vb must validate and merge.
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("disjoint concurrent update aborted: %v", err)
	}
	if f.com.Stat.Validations.Load() != 1 {
		t.Fatalf("validations = %d, want 1", f.com.Stat.Validations.Load())
	}

	// The new current version contains BOTH updates.
	cur := f.mustCurrent(t, base.Root)
	if cur.Root != vb.Root {
		t.Fatalf("current = %d, want vb %d", cur.Root, vb.Root)
	}
	d0, _, _ := cur.ReadPage(page.Path{0})
	d2, _, _ := cur.ReadPage(page.Path{2})
	if string(d0) != "AMS->LON" || string(d2) != "SFO->LAX" {
		t.Fatalf("merged state: %q %q", d0, d2)
	}
	d1, _, _ := cur.ReadPage(page.Path{1})
	if string(d1) != "child1" {
		t.Fatalf("untouched page clobbered: %q", d1)
	}
}

func TestReadWriteOverlapConflicts(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)

	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vb reads page 0 and writes page 1 based on what it read.
	if _, _, err := vb.ReadPage(page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := vb.WritePage(page.Path{1}, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	// vc writes page 0.
	if err := vc.WritePage(page.Path{0}, []byte("overwrite")); err != nil {
		t.Fatal(err)
	}

	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	err := f.com.Commit(vb, capability.NilPort)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("write/read overlap committed: %v", err)
	}
	if f.com.Stat.Conflicts.Load() != 1 {
		t.Fatalf("conflicts = %d", f.com.Stat.Conflicts.Load())
	}
	// The file's current version is vc's, untouched by the abort.
	cur := f.mustCurrent(t, base.Root)
	if cur.Root != vc.Root {
		t.Fatalf("current = %d, want %d", cur.Root, vc.Root)
	}
}

func TestReverseOrderAllowsReadersToCommit(t *testing.T) {
	// Same accesses as above, but the READER commits first: the writer
	// then validates fine because write-set(reader) is empty on the
	// read page.
	f := newFixture(t)
	base := f.newFile(t, 2)

	vb := f.newVersion(t, base.Root) // writer
	vc := f.newVersion(t, base.Root) // reader
	if _, _, err := vc.ReadPage(page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := vc.WritePage(page.Path{1}, []byte("reader-write")); err != nil {
		t.Fatal(err)
	}
	if err := vb.WritePage(page.Path{0}, []byte("writer")); err != nil {
		t.Fatal(err)
	}

	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("writer after reader aborted: %v", err)
	}
	cur := f.mustCurrent(t, base.Root)
	d0, _, _ := cur.ReadPage(page.Path{0})
	d1, _, _ := cur.ReadPage(page.Path{1})
	if string(d0) != "writer" || string(d1) != "reader-write" {
		t.Fatalf("merged: %q %q", d0, d1)
	}
}

func TestBlindWriteWriteLastWins(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	vb.WritePage(page.Path{0}, []byte("B"))
	vc.WritePage(page.Path{0}, []byte("C"))
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("blind write-write aborted: %v", err)
	}
	cur := f.mustCurrent(t, base.Root)
	d, _, _ := cur.ReadPage(page.Path{0})
	if string(d) != "B" {
		t.Fatalf("current data %q, want later committer's B", d)
	}
}

func TestRootDataWriteMergesIntoNonWriter(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vc rewrites the ROOT page's data; vb writes child 1.
	if err := vc.WritePage(page.RootPath, []byte("newroot")); err != nil {
		t.Fatal(err)
	}
	if err := vb.WritePage(page.Path{1}, []byte("leaf")); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("root-write vs leaf-write aborted: %v", err)
	}
	cur := f.mustCurrent(t, base.Root)
	root, _, _ := cur.ReadPage(page.RootPath)
	leaf, _, _ := cur.ReadPage(page.Path{1})
	if string(root) != "newroot" || string(leaf) != "leaf" {
		t.Fatalf("merged: root=%q leaf=%q", root, leaf)
	}
}

func TestStructuralModifyVsSearchConflicts(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vb descends the root (search) to read child 0.
	if _, _, err := vb.ReadPage(page.Path{0}); err != nil {
		t.Fatal(err)
	}
	// vc restructures the root's reference table.
	if err := vc.InsertPage(page.RootPath, 0, []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); !errors.Is(err, ErrConflict) {
		t.Fatalf("M vs S overlap committed: %v", err)
	}
}

func TestRestructureByCommitterAdoptedWhenOtherDidNotSearch(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vb only reads the root's data — no search of its references.
	if _, _, err := vb.ReadPage(page.RootPath); err != nil {
		t.Fatal(err)
	}
	// vc appends a child (modifies root references).
	if err := vc.InsertPage(page.RootPath, 2, []byte("appended")); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("R-only vs M aborted: %v", err)
	}
	cur := f.mustCurrent(t, base.Root)
	d, _, err := cur.ReadPage(page.Path{2})
	if err != nil {
		t.Fatal(err)
	}
	if string(d) != "appended" {
		t.Fatalf("appended child lost in merge: %q", d)
	}
}

func TestRestructureByUncommittedStandsOverReadOnlyCommit(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vb restructures the root; vc only reads below it.
	if err := vb.RemovePage(page.RootPath, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := vc.ReadPage(page.Path{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatalf("restructure vs read-only aborted: %v", err)
	}
	cur := f.mustCurrent(t, base.Root)
	d, _, _ := cur.ReadPage(page.Path{0})
	if string(d) != "child1" {
		t.Fatalf("restructure lost: {0} = %q", d)
	}
}

func TestRestructureVsDeepWriteConservativeConflict(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	// vb restructures the root table; vc writes a child's data.
	if err := vb.RemovePage(page.RootPath, 0); err != nil {
		t.Fatal(err)
	}
	if err := vc.WritePage(page.Path{1}, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	// The index correspondence under vb's restructure is lost, so the
	// implementation conservatively refuses (documented deviation: a
	// false conflict, never a false commit).
	if err := f.com.Commit(vb, capability.NilPort); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conservative conflict, got %v", err)
	}
}

func TestChainOfThreeConcurrentCommits(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 3)
	v1 := f.newVersion(t, base.Root)
	v2 := f.newVersion(t, base.Root)
	v3 := f.newVersion(t, base.Root)
	v1.WritePage(page.Path{0}, []byte("one"))
	v2.WritePage(page.Path{1}, []byte("two"))
	v3.WritePage(page.Path{2}, []byte("three"))

	if err := f.com.Commit(v1, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if err := f.com.Commit(v2, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	// v3 must validate against v1 AND v2, walking the chain.
	if err := f.com.Commit(v3, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	if got := f.com.Stat.ChainRetries.Load(); got < 3 {
		t.Fatalf("chain retries = %d, want >= 3", got)
	}
	cur := f.mustCurrent(t, base.Root)
	for i, want := range []string{"one", "two", "three"} {
		d, _, _ := cur.ReadPage(page.Path{i})
		if string(d) != want {
			t.Fatalf("page %d = %q, want %q", i, d, want)
		}
	}
	// History is base -> v1 -> v2 -> v3.
	hist, _ := History(f.st, base.Root)
	if len(hist) != 4 || hist[3] != v3.Root {
		t.Fatalf("history %v", hist)
	}
}

func TestCommitIdempotentAfterCrashRedo(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	v := f.newVersion(t, base.Root)
	v.WritePage(page.Path{0}, []byte("x"))
	if err := f.com.Commit(v, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	// A client whose server crashed after setting the commit reference
	// redoes the commit: it must succeed as a no-op.
	if err := f.com.Commit(v, capability.NilPort); err != nil {
		t.Fatalf("redo of completed commit failed: %v", err)
	}
}

func TestSerialiseSkipsUnaccessedSubtrees(t *testing.T) {
	f := newFixture(t)
	// A wide file: 50 children.
	base := f.newFile(t, 50)
	vb := f.newVersion(t, base.Root)
	vc := f.newVersion(t, base.Root)
	vb.WritePage(page.Path{0}, []byte("b"))
	vc.WritePage(page.Path{49}, []byte("c"))
	if err := f.com.Commit(vc, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	before := f.com.Stat.PagesCompared.Load()
	if err := f.com.Commit(vb, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	compared := f.com.Stat.PagesCompared.Load() - before
	// Root pair + 50 ref pairs at most; child pages themselves must not
	// be read (neither side wrote where the other looked). The key
	// claim: cost does not blow up with file size — specifically, no
	// recursion below the touched refs.
	if compared > 52 {
		t.Fatalf("compared %d page pairs for two one-page updates", compared)
	}
}

func TestConcurrentCommitStorm(t *testing.T) {
	f := newFixture(t)
	const writers = 8
	base := f.newFile(t, writers)

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each writer updates only its own page; with retry on
			// conflict every writer must eventually commit.
			for attempt := 0; attempt < 20; attempt++ {
				cur, err := Current(f.st, base.Root)
				if err != nil {
					errs[i] = err
					return
				}
				v, err := version.CreateVersion(f.st, cur, capability.Capability{Object: uint32(i)})
				if err != nil {
					errs[i] = err
					return
				}
				if err := v.WritePage(page.Path{i}, []byte(fmt.Sprintf("writer%d", i))); err != nil {
					errs[i] = err
					return
				}
				err = f.com.Commit(v, capability.NilPort)
				if err == nil {
					return
				}
				if !errors.Is(err, ErrConflict) {
					errs[i] = err
					return
				}
			}
			errs[i] = fmt.Errorf("writer %d never committed", i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	// Every page carries its writer's update.
	cur := f.mustCurrent(t, base.Root)
	for i := 0; i < writers; i++ {
		d, _, err := cur.ReadPage(page.Path{i})
		if err != nil {
			t.Fatal(err)
		}
		if string(d) != fmt.Sprintf("writer%d", i) {
			t.Fatalf("page %d = %q", i, d)
		}
	}
}

func TestUncommittedVersionsInvisible(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	v := f.newVersion(t, base.Root)
	v.WritePage(page.Path{0}, []byte("draft"))
	// Without commit, the current version is still the base.
	cur := f.mustCurrent(t, base.Root)
	if cur.Root != base.Root {
		t.Fatalf("current = %d, want base %d", cur.Root, base.Root)
	}
	d, _, _ := cur.ReadPage(page.Path{0})
	if string(d) != "child0" {
		t.Fatalf("base sees %q", d)
	}
}

func TestHistoryIgnoresUncommittedSiblings(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	v1 := f.newVersion(t, base.Root)
	v1.WritePage(page.Path{0}, []byte("v1"))
	if err := f.com.Commit(v1, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	// Never committed, but on the store, as after its first flush.
	orphan := f.newVersion(t, v1.Root)
	if err := orphan.Place(); err != nil {
		t.Fatal(err)
	}

	hist, err := History(f.st, orphan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Walking back from the orphan finds the committed chain; the
	// orphan itself is not part of it... except as the starting point.
	// The chain from the orphan's base: base -> v1.
	if len(hist) < 1 || hist[len(hist)-1] != orphan.Root {
		// History starts from `from` and only walks committed bases;
		// orphan's base v1 has CommitRef nil (v1 is current), so the
		// back-walk stops at the orphan itself.
		t.Fatalf("history %v", hist)
	}
}

func TestCurrentOnNonVersionPageFails(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 1)
	vp, _ := base.VersionPage()
	if _, err := Current(f.st, vp.Refs[0].Block); err == nil {
		t.Fatal("Current accepted a non-version page")
	}
}

func TestTestAndSetCommitRefContention(t *testing.T) {
	f := newFixture(t)
	base := f.newFile(t, 2)
	v1 := f.newVersion(t, base.Root)
	v2 := f.newVersion(t, base.Root)
	v1.WritePage(page.Path{0}, []byte("1"))
	v2.WritePage(page.Path{1}, []byte("2"))

	// Race both commits; both must eventually succeed (disjoint).
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = f.com.Commit(v1, capability.NilPort) }()
	go func() { defer wg.Done(); e2 = f.com.Commit(v2, capability.NilPort) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("e1=%v e2=%v", e1, e2)
	}
	hist, _ := History(f.st, base.Root)
	if len(hist) != 3 {
		t.Fatalf("history %v, want 3 versions", hist)
	}
}
