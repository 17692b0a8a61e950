package version

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
)

const testAcct block.Account = 1

func newStore(t *testing.T) *Store {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})
	return NewStore(block.NewServer(d), testAcct)
}

func caps(t *testing.T) (capability.Capability, capability.Capability, *capability.Factory) {
	t.Helper()
	f := capability.NewFactory(capability.NewPort().Public())
	return f.Register(1), f.Register(2), f
}

// buildFile creates a file whose root has three children, the middle one
// with two children of its own:
//
//	root ── 0: "child0"
//	     ── 1: "child1" ── 0: "gc0"
//	     │               └ 1: "gc1"
//	     └ 2: "child2"
func buildFile(t *testing.T, s *Store) *Tree {
	t.Helper()
	fc, vc, _ := caps(t)
	tr, err := CreateFile(s, fc, vc, []byte("rootdata"))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []string{"child0", "child1", "child2"} {
		if err := tr.InsertPage(page.RootPath, i, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range []string{"gc0", "gc1"} {
		if err := tr.InsertPage(page.Path{1}, i, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestCreateFileAndReadRoot(t *testing.T) {
	s := newStore(t)
	fc, vc, _ := caps(t)
	tr, err := CreateFile(s, fc, vc, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	data, nrefs, err := tr.ReadPage(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || nrefs != 0 {
		t.Fatalf("data=%q nrefs=%d", data, nrefs)
	}
	vp, err := tr.VersionPage()
	if err != nil {
		t.Fatal(err)
	}
	if !vp.IsVersion || vp.FileCap != fc || vp.VersionCap != vc {
		t.Fatal("version page header wrong")
	}
	if vp.CommitRef != block.NilNum || vp.BaseRef != block.NilNum {
		t.Fatal("fresh file must have nil base and commit refs")
	}
}

func TestTreeConstructionAndReads(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	cases := []struct {
		path  page.Path
		data  string
		nrefs int
	}{
		{page.RootPath, "rootdata", 3},
		{page.Path{0}, "child0", 0},
		{page.Path{1}, "child1", 2},
		{page.Path{1, 0}, "gc0", 0},
		{page.Path{1, 1}, "gc1", 0},
		{page.Path{2}, "child2", 0},
	}
	for _, c := range cases {
		data, nrefs, err := tr.ReadPage(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if string(data) != c.data || nrefs != c.nrefs {
			t.Fatalf("%s: data=%q nrefs=%d, want %q %d", c.path, data, nrefs, c.data, c.nrefs)
		}
	}
}

func TestPathErrors(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	if _, _, err := tr.ReadPage(page.Path{9}); !errors.Is(err, ErrBadPath) {
		t.Fatalf("out of range read err = %v", err)
	}
	if _, _, err := tr.ReadPage(page.Path{0, 0}); !errors.Is(err, ErrBadPath) {
		t.Fatalf("descent into leaf err = %v", err)
	}
	if err := tr.MakeHole(page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadPage(page.Path{2}); !errors.Is(err, ErrHole) {
		t.Fatalf("read through hole err = %v", err)
	}
}

func TestVersionSharesTreeUntilWritten(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, err := CreateVersion(s, base.Root, vc2)
	if err != nil {
		t.Fatal(err)
	}

	// Before any access the new version's page tree is fully shared:
	// only the version page itself is private.
	priv, err := v2.PrivateBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(priv) != 1 || !priv[v2.Root] {
		t.Fatalf("fresh version owns %d blocks, want only its version page", len(priv))
	}

	// Reads are identical to the base.
	data, _, err := v2.ReadPage(page.Path{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "gc1" {
		t.Fatalf("read %q", data)
	}
}

func TestCopyOnWriteLeavesBaseIntact(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, err := CreateVersion(s, base.Root, vc2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.WritePage(page.Path{1, 0}, []byte("GC0-NEW")); err != nil {
		t.Fatal(err)
	}
	// New version sees the new data.
	data, _, _ := v2.ReadPage(page.Path{1, 0})
	if string(data) != "GC0-NEW" {
		t.Fatalf("v2 reads %q", data)
	}
	// Base still sees the old data ("leaving the old page intact").
	data, _, _ = base.ReadPage(page.Path{1, 0})
	if string(data) != "gc0" {
		t.Fatalf("base reads %q after v2 write", data)
	}
}

func TestWriteCopiesPathOnce(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)

	if err := v2.WritePage(page.Path{1, 0}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	priv1, _ := v2.PrivateBlocks()
	// Private: version page + child1 copy + gc0 copy.
	if len(priv1) != 3 {
		t.Fatalf("after first write: %d private blocks, want 3", len(priv1))
	}

	// Writing the same page again must not copy anything more ("a page
	// is only copied once; after it has been copied for writing, it can
	// be written in place").
	if err := v2.WritePage(page.Path{1, 0}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	priv2, _ := v2.PrivateBlocks()
	if len(priv2) != len(priv1) {
		t.Fatalf("second write grew private set %d -> %d", len(priv1), len(priv2))
	}
	for b := range priv1 {
		if !priv2[b] {
			t.Fatal("private set changed between writes")
		}
	}
}

func TestReadShadowsPath(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)

	// Reading gc1 must shadow the pages on the way (flag initialisation
	// requires changing them): child1 and gc1 become private copies.
	if _, _, err := v2.ReadPage(page.Path{1, 1}); err != nil {
		t.Fatal(err)
	}
	priv, _ := v2.PrivateBlocks()
	if len(priv) != 3 {
		t.Fatalf("read shadowed %d blocks, want 3 (root+child1+gc1)", len(priv))
	}
}

func TestFlagTracking(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)

	if _, _, err := v2.ReadPage(page.Path{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := v2.WritePage(page.Path{0}, []byte("w")); err != nil {
		t.Fatal(err)
	}

	vp, _ := v2.VersionPage()
	// Root searched (descended twice), and copied by construction.
	if !vp.RootFlags.Accessed() || vp.RootFlags&page.FlagS == 0 {
		t.Fatalf("root flags = %s, want C and S", vp.RootFlags)
	}
	// child1: searched on the way to gc0, not read or written itself.
	r1 := vp.Refs[1]
	if r1.Flags&page.FlagS == 0 || r1.Flags&page.FlagR != 0 || r1.Flags&page.FlagW != 0 {
		t.Fatalf("child1 flags = %s, want S only (plus C)", r1.Flags)
	}
	// child0: written, not read, not searched.
	r0 := vp.Refs[0]
	if r0.Flags&page.FlagW == 0 || r0.Flags&page.FlagR != 0 || r0.Flags&page.FlagS != 0 {
		t.Fatalf("child0 flags = %s, want W only (plus C)", r0.Flags)
	}
	// child2: untouched, still shared.
	if vp.Refs[2].Flags != 0 {
		t.Fatalf("child2 flags = %s, want none", vp.Refs[2].Flags)
	}
	// gc0: read.
	c1, err := s.ReadPage(r1.Block)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Refs[0].Flags&page.FlagR == 0 {
		t.Fatalf("gc0 flags = %s, want R", c1.Refs[0].Flags)
	}
	if c1.Refs[1].Flags != 0 {
		t.Fatalf("gc1 flags = %s, want none", c1.Refs[1].Flags)
	}
}

func TestParentOfWrittenPageNotWritten(t *testing.T) {
	// "the parent page of a written page is not considered written or
	// modified, although, strictly speaking, it has changed."
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)
	if err := v2.WritePage(page.Path{1, 0}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	vp, _ := v2.VersionPage()
	r1 := vp.Refs[1]
	if r1.Flags&(page.FlagW|page.FlagM) != 0 {
		t.Fatalf("child1 flags = %s: parent of written page must not be W or M", r1.Flags)
	}
	if r1.Flags&page.FlagS == 0 {
		t.Fatalf("child1 flags = %s: descent must set S", r1.Flags)
	}
}

func TestInsertRemoveSetsM(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)

	if err := v2.InsertPage(page.Path{1}, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	vp, _ := v2.VersionPage()
	r1 := vp.Refs[1]
	if r1.Flags&page.FlagM == 0 || r1.Flags&page.FlagS == 0 {
		t.Fatalf("child1 flags = %s, want M (implying S)", r1.Flags)
	}
	// Table shifted: old gc0 now at index 1.
	data, _, err := v2.ReadPage(page.Path{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "gc0" {
		t.Fatalf("after insert, {1,1} = %q, want gc0", data)
	}
	data, _, _ = v2.ReadPage(page.Path{1, 0})
	if string(data) != "new" {
		t.Fatalf("after insert, {1,0} = %q", data)
	}

	if err := v2.RemovePage(page.Path{1}, 0); err != nil {
		t.Fatal(err)
	}
	data, _, _ = v2.ReadPage(page.Path{1, 0})
	if string(data) != "gc0" {
		t.Fatalf("after remove, {1,0} = %q, want gc0", data)
	}
	// Base unaffected by the new version's structural changes.
	data, _, _ = base.ReadPage(page.Path{1, 0})
	if string(data) != "gc0" {
		t.Fatalf("base {1,0} = %q", data)
	}
}

func TestHoleLifecycle(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)

	if err := tr.MakeHole(page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadPage(page.Path{1}); !errors.Is(err, ErrHole) {
		t.Fatal("hole readable")
	}
	if err := tr.FillHole(page.RootPath, 0, nil); !errors.Is(err, ErrNotHole) {
		t.Fatal("FillHole on live ref accepted")
	}
	if err := tr.FillHole(page.RootPath, 1, []byte("refill")); err != nil {
		t.Fatal(err)
	}
	data, _, err := tr.ReadPage(page.Path{1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "refill" {
		t.Fatalf("refilled = %q", data)
	}
	if err := tr.RemoveHole(page.RootPath, 1); !errors.Is(err, ErrNotHole) {
		t.Fatal("RemoveHole removed a live ref")
	}
	if err := tr.MakeHole(page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveHole(page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	// Table shrunk: index 1 is now the old child2.
	data, _, _ = tr.ReadPage(page.Path{1})
	if string(data) != "child2" {
		t.Fatalf("after hole removal, {1} = %q", data)
	}
}

func TestMoveSubtree(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)

	// Make room: a hole at root index 2 (dropping child2), then move
	// child1's subtree there.
	if err := tr.MakeHole(page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.MoveSubtree(page.RootPath, 1, page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	// Old location is a hole.
	if _, _, err := tr.ReadPage(page.Path{1}); !errors.Is(err, ErrHole) {
		t.Fatal("source not detached")
	}
	// Subtree intact at the new location.
	data, _, err := tr.ReadPage(page.Path{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "gc0" {
		t.Fatalf("moved subtree {2,0} = %q", data)
	}
}

func TestMoveSubtreeUnderItselfRefused(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	if err := tr.MoveSubtree(page.RootPath, 1, page.Path{1, 0}, 0); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v, want ErrBadPath", err)
	}
}

func TestSplitPage(t *testing.T) {
	s := newStore(t)
	fc, vc, _ := caps(t)
	tr, err := CreateFile(s, fc, vc, []byte("headtail"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SplitPage(page.RootPath, 4); err != nil {
		t.Fatal(err)
	}
	data, nrefs, err := tr.ReadPage(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "head" || nrefs != 1 {
		t.Fatalf("root after split: %q nrefs=%d", data, nrefs)
	}
	data, _, err = tr.ReadPage(page.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "tail" {
		t.Fatalf("tail page: %q", data)
	}
	if err := tr.SplitPage(page.RootPath, 99); !errors.Is(err, ErrBadPath) {
		t.Fatal("split past end accepted")
	}
}

func TestWritePageTooLarge(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	big := bytes.Repeat([]byte{1}, 2000) // block size is 1024
	if err := tr.WritePage(page.Path{0}, big); !errors.Is(err, page.ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
}

func TestPeekDoesNotShadowOrFlag(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)
	pg, err := v2.PeekPage(page.Path{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Data) != "gc1" {
		t.Fatalf("peek read %q", pg.Data)
	}
	priv, _ := v2.PrivateBlocks()
	if len(priv) != 1 {
		t.Fatalf("peek shadowed %d blocks", len(priv)-1)
	}
	vp, _ := v2.VersionPage()
	if vp.RootFlags&page.FlagS != 0 {
		t.Fatal("peek set flags")
	}
}

func TestWalkVisitsAllPages(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	var paths []string
	err := tr.Walk(func(p page.Path, _ page.Ref, _ *page.Page) error {
		paths = append(paths, p.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/", "/0", "/1", "/2", "/1/0", "/1/1"} // level order
	if len(paths) != len(want) {
		t.Fatalf("walk visited %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("walk order %v, want %v", paths, want)
		}
	}
}

func TestWalkPropagatesError(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	boom := fmt.Errorf("boom")
	if err := tr.Walk(func(page.Path, page.Ref, *page.Page) error { return boom }); !errors.Is(err, boom) {
		t.Fatal("walk swallowed error")
	}
}

func TestBlocksSetDiffersBetweenVersions(t *testing.T) {
	s := newStore(t)
	base := buildFile(t, s)
	_, vc2, _ := caps(t)
	v2, _ := CreateVersion(s, base.Root, vc2)
	v2.WritePage(page.Path{0}, []byte("x"))

	bb, err := base.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := v2.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for b := range vb {
		if bb[b] {
			shared++
		}
	}
	// v2 shares child1 (+its grandchildren) and child2 with base:
	// 4 shared blocks; root and child0 are private.
	if shared != 4 {
		t.Fatalf("%d shared blocks, want 4", shared)
	}
}

func TestCreateVersionRequiresVersionPage(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	vp, _ := tr.VersionPage()
	childBlk := vp.Refs[0].Block
	_, vc, _ := caps(t)
	if _, err := CreateVersion(s, childBlk, vc); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v, want ErrBadPath", err)
	}
}

func TestDeepTree(t *testing.T) {
	s := newStore(t)
	fc, vc, _ := caps(t)
	tr, err := CreateFile(s, fc, vc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a 10-deep chain and write at the bottom.
	p := page.RootPath
	for depth := 0; depth < 10; depth++ {
		if err := tr.InsertPage(p, 0, []byte(fmt.Sprintf("d%d", depth))); err != nil {
			t.Fatal(err)
		}
		p = p.Child(0)
	}
	if err := tr.WritePage(p, []byte("bottom")); err != nil {
		t.Fatal(err)
	}
	data, _, err := tr.ReadPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "bottom" {
		t.Fatalf("deep read %q", data)
	}

	// A version of the deep file copies exactly the path on write.
	_, vc2, _ := caps(t)
	v2, err := CreateVersion(s, tr.Root, vc2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.WritePage(p, []byte("BOTTOM")); err != nil {
		t.Fatal(err)
	}
	priv, _ := v2.PrivateBlocks()
	if len(priv) != 11 { // version page + 10 path pages
		t.Fatalf("deep write copied %d blocks, want 11", len(priv))
	}
}

// countStore counts the vectored calls reaching the in-memory server.
// It re-binds the scalar adapter to itself, so scalar calls count too.
type countStore struct {
	*block.Server
	block.Scalar
	reads, allocs, writes int
}

func newCountStore(srv *block.Server) *countStore {
	c := &countStore{Server: srv}
	c.Scalar = block.Scalar{Multi: c}
	return c
}

func (c *countStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	c.reads++
	return c.Server.ReadMulti(a, ns)
}

func (c *countStore) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	c.allocs++
	return c.Server.AllocMulti(a, data)
}

func (c *countStore) WriteMulti(a block.Account, ns []block.Num, data [][]byte) error {
	c.writes++
	return c.Server.WriteMulti(a, ns, data)
}

// The reference copy-on-write engine: the descend + setFlags pair and the
// per-operation bodies that the single pass replaced, kept here so the
// equivalence test can hold the pass to their result. They run only on
// operations the pass accepted, so they leave out the refusal checks.

// refEntry is one step of a root-to-target descent.
type refEntry struct {
	blk block.Num
	pg  *page.Page
}

// refDescend walks from the root to the page at path, shadowing every
// page first accessed in this version (one alloc for the shadows, one
// write for their patched parents) and returning the chain of private
// pages: chain[i] is the page at path[:i].
func refDescend(t *Tree, p page.Path) ([]refEntry, error) {
	cur, err := t.St.ReadPage(t.Root)
	if err != nil {
		return nil, err
	}
	chain := make([]refEntry, 0, len(p)+1)
	chain = append(chain, refEntry{t.Root, cur})
	var toCopy []int // chain indices of pages first accessed in this version
	copying := false // everything below a first access is also a first access
	for depth, idx := range p {
		if idx < 0 || idx >= len(cur.Refs) {
			return nil, fmt.Errorf("version: %s index %d of %d at depth %d: %w",
				p, idx, len(cur.Refs), depth, ErrBadPath)
		}
		ref := cur.Refs[idx]
		if ref.IsNil() {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrHole)
		}
		child, err := t.St.ReadPage(ref.Block)
		if err != nil {
			return nil, err
		}
		if child.IsVersion {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrSubFile)
		}
		if copying || !ref.Flags.Accessed() {
			copying = true
			toCopy = append(toCopy, depth+1)
		}
		chain = append(chain, refEntry{ref.Block, child})
		cur = child
	}
	if len(toCopy) == 0 {
		return chain, nil
	}
	clones := make([]*page.Page, len(toCopy))
	raws := make([][]byte, len(toCopy))
	for k, ci := range toCopy {
		orig := chain[ci]
		cp := orig.pg.Clone()
		cp.Refs = clearRefFlags(orig.pg.Refs)
		cp.BaseRef = orig.blk
		clones[k] = cp
		raw, err := cp.Encode(t.St.Blocks.BlockSize())
		if err != nil {
			return nil, err
		}
		raws[k] = raw
	}
	newBlks, err := block.AllocMulti(t.St.Blocks, t.St.Acct, raws)
	if err != nil {
		return nil, err
	}
	dirty := make([]bool, len(chain))
	for k, ci := range toCopy {
		chain[ci] = refEntry{newBlks[k], clones[k]}
		parent := chain[ci-1].pg
		idx := p[ci-1]
		parent.Refs[idx] = page.Ref{Block: newBlks[k], Flags: parent.Refs[idx].Flags.Set(page.FlagC)}
		dirty[ci-1] = true
	}
	var ns []block.Num
	var pgs []*page.Page
	for i, d := range dirty {
		if d {
			ns = append(ns, chain[i].blk)
			pgs = append(pgs, chain[i].pg)
		}
	}
	if err := t.St.WritePages(ns, pgs); err != nil {
		return nil, err
	}
	return chain, nil
}

// refSetFlags marks every page above the target searched (S), gives the
// target finalBits, and writes the changed pages back in place.
func refSetFlags(t *Tree, p page.Path, chain []refEntry, finalBits page.Flags) error {
	dirty := make([]bool, len(chain))
	setOn := func(i int, bits page.Flags) {
		if i == 0 {
			rf := chain[0].pg.RootFlags.Set(bits)
			if rf != chain[0].pg.RootFlags {
				chain[0].pg.RootFlags = rf
				dirty[0] = true
			}
			return
		}
		parent := chain[i-1].pg
		idx := p[i-1]
		nf := parent.Refs[idx].Flags.Set(bits)
		if nf != parent.Refs[idx].Flags {
			parent.Refs[idx].Flags = nf
			dirty[i-1] = true
		}
	}
	for i := 0; i < len(chain)-1; i++ {
		setOn(i, page.FlagS)
	}
	setOn(len(chain)-1, finalBits)
	var ns []block.Num
	var pgs []*page.Page
	for i, d := range dirty {
		if d {
			ns = append(ns, chain[i].blk)
			pgs = append(pgs, chain[i].pg)
		}
	}
	if len(ns) == 0 {
		return nil
	}
	return t.St.WritePages(ns, pgs)
}

// refEdit is the reference body of a one-path operation: descend, edit
// the target and write it in place, then set the flags.
func refEdit(t *Tree, p page.Path, bits page.Flags, fn func(target *page.Page) error) error {
	chain, err := refDescend(t, p)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	if err := fn(target.pg); err != nil {
		return err
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return refSetFlags(t, p, chain, bits)
}

// refNewChild allocates a fresh page holding data and returns the
// reference to it (C|W).
func refNewChild(t *Tree, data []byte) (page.Ref, error) {
	blk, err := t.St.AllocPage(&page.Page{Data: append([]byte(nil), data...)})
	return page.Ref{Block: blk, Flags: page.Flags(0).Set(page.FlagW)}, err
}

// refWritePage is the one-path page write: descend, rewrite the target
// in place, then set W on it and S on its ancestors.
func refWritePage(t *Tree, p page.Path, data []byte) error {
	return refEdit(t, p, page.FlagW, func(pg *page.Page) error {
		pg.Data = append([]byte(nil), data...)
		return nil
	})
}

func refReadPage(t *Tree, p page.Path) ([]byte, int, error) {
	chain, err := refDescend(t, p)
	if err != nil {
		return nil, 0, err
	}
	if err := refSetFlags(t, p, chain, page.FlagR); err != nil {
		return nil, 0, err
	}
	last := chain[len(chain)-1].pg
	return append([]byte(nil), last.Data...), len(last.Refs), nil
}

func refInsertPage(t *Tree, p page.Path, idx int, data []byte) error {
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error {
		ref, err := refNewChild(t, data)
		if err != nil {
			return err
		}
		return pg.InsertRef(idx, ref)
	})
}

func refRemovePage(t *Tree, p page.Path, idx int) error {
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error { return pg.RemoveRef(idx) })
}

func refMakeHole(t *Tree, p page.Path, idx int) error {
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error { return pg.SetRef(idx, page.Ref{}) })
}

func refFillHole(t *Tree, p page.Path, idx int, data []byte) error {
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error {
		ref, err := refNewChild(t, data)
		if err != nil {
			return err
		}
		pg.Refs[idx] = ref
		return nil
	})
}

func refRemoveHole(t *Tree, p page.Path, idx int) error {
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error { return pg.RemoveRef(idx) })
}

func refSplitPage(t *Tree, p page.Path, keep int) error {
	return refEdit(t, p, page.FlagW|page.FlagM, func(pg *page.Page) error {
		ref, err := refNewChild(t, pg.Data[keep:])
		if err != nil {
			return err
		}
		pg.Data = pg.Data[:keep]
		pg.Refs = append(pg.Refs, ref)
		return nil
	})
}

// refMoveSubtree detaches at the source, then re-descends to attach at
// the destination.
func refMoveSubtree(t *Tree, srcPath page.Path, srcIdx int, dstPath page.Path, dstIdx int) error {
	var moved page.Ref
	if err := refEdit(t, srcPath, page.FlagM, func(pg *page.Page) error {
		moved = pg.Refs[srcIdx]
		pg.Refs[srcIdx] = page.Ref{}
		return nil
	}); err != nil {
		return err
	}
	return refEdit(t, dstPath, page.FlagM, func(pg *page.Page) error {
		pg.Refs[dstIdx] = moved
		return nil
	})
}

func refLinkSubVersion(t *Tree, p page.Path, idx int, newRoot block.Num) error {
	return refEdit(t, p, page.FlagS, func(pg *page.Page) error {
		return pg.SetRef(idx, page.Ref{Block: newRoot, Flags: pg.Refs[idx].Flags.Set(page.FlagC)})
	})
}

// refInsertSubFile allocates the birth version page of a sub-file, its
// parent reference t's root, and inserts a reference to it (C|W).
func refInsertSubFile(t *Tree, p page.Path, idx int, fileCap, verCap capability.Capability, data []byte) error {
	subRoot, err := t.St.AllocPage(&page.Page{IsVersion: true, FileCap: fileCap, VersionCap: verCap,
		ParentRef: t.Root, RootFlags: page.Flags(0).Set(page.FlagW), Data: append([]byte(nil), data...)})
	if err != nil {
		return err
	}
	return refEdit(t, p, page.FlagM, func(pg *page.Page) error {
		return pg.InsertRef(idx, page.Ref{Block: subRoot, Flags: page.Flags(0).Set(page.FlagW)})
	})
}

// forkCap is the version capability of every sub-file fork the tests
// make, through the pass's hook and through the reference alike.
var forkCap = capability.Capability{Object: 77, Rights: capability.RightsAll}

// forkHook is a Cross hook without the §5.3 locks: it forks the page the
// pass read.
func forkHook(blk block.Num, pg *page.Page) (*page.Page, error) { return Fork(blk, pg, forkCap) }

// refBoundary finds the first embedded version page on p in t: the depth
// of the reference to it, its block, and whether this version accessed
// that reference and every one above it. The depth is -1 when p reaches
// no sub-file before its end, a hole or a bad index.
func refBoundary(t *Tree, p page.Path) (int, block.Num, bool, error) {
	cur, err := t.St.ReadPage(t.Root)
	if err != nil {
		return -1, block.NilNum, false, err
	}
	accessed := true
	for depth, idx := range p {
		if idx < 0 || idx >= len(cur.Refs) || cur.Refs[idx].IsNil() {
			break
		}
		ref := cur.Refs[idx]
		accessed = accessed && ref.Flags.Accessed()
		if cur, err = t.St.ReadPage(ref.Block); err != nil {
			return -1, block.NilNum, false, err
		}
		if cur.IsVersion {
			return depth, ref.Block, accessed, nil
		}
	}
	return -1, block.NilNum, false, nil
}

// refCross is the reference for a pass that crosses sub-file boundaries:
// the link-then-rerun sequence the server ran before the pass crossed
// them itself. At the first sub-file on p that this version has not
// accessed it forks the sub-file (CreateVersion), points the fork's
// parent reference at t's root and links the fork in (refLinkSubVersion);
// then it reruns op inside the sub-file with the rest of the path.
func refCross(t *Tree, p page.Path, op func(t *Tree, rest page.Path) error) error {
	for {
		d, sub, accessed, err := refBoundary(t, p)
		if err != nil {
			return err
		}
		if d < 0 {
			return op(t, p)
		}
		if !accessed {
			fork, err := CreateVersion(t.St, sub, forkCap)
			if err != nil {
				return err
			}
			vp, err := t.St.ReadPage(fork.Root)
			if err != nil {
				return err
			}
			vp.ParentRef = t.Root
			if err := t.St.WritePage(fork.Root, vp); err != nil {
				return err
			}
			if err := refLinkSubVersion(t, p[:d], p[d], fork.Root); err != nil {
				return err
			}
			sub = fork.Root
		}
		t, p = &Tree{St: t.St, Root: sub}, p[d+1:]
	}
}

// sameTrees reports the first difference between the trees under want
// and got: shape, data, flags, capabilities, lock fields, and commit,
// base and parent references, with the blocks private to each tree
// mapped onto each other. Both trees are versions of one base, so a
// reference neither version accessed must name the same shared block in
// both, and a block both trees name needs no comparing; the roots'
// version capabilities are their own.
func sameTrees(st *Store, want, got block.Num) error {
	m := make(map[block.Num]block.Num)
	mapped := func(b block.Num) block.Num {
		if w, ok := m[b]; ok {
			return w
		}
		return b
	}
	var cmp func(p page.Path, w, g block.Num) error
	cmp = func(p page.Path, w, g block.Num) error {
		m[g] = w
		if w == g {
			return nil
		}
		wp, err := st.ReadPage(w)
		if err != nil {
			return err
		}
		gp, err := st.ReadPage(g)
		if err != nil {
			return err
		}
		if gp.IsVersion != wp.IsVersion || !bytes.Equal(gp.Data, wp.Data) || gp.RootFlags != wp.RootFlags ||
			gp.FileCap != wp.FileCap || (len(p) > 0 && gp.VersionCap != wp.VersionCap) ||
			gp.TopLock != wp.TopLock || gp.InnerLock != wp.InnerLock || mapped(gp.CommitRef) != wp.CommitRef ||
			mapped(gp.BaseRef) != wp.BaseRef || mapped(gp.ParentRef) != wp.ParentRef || len(gp.Refs) != len(wp.Refs) {
			return fmt.Errorf("page %s: pass %+v, reference %+v", p, gp, wp)
		}
		for i, wr := range wp.Refs {
			gr := gp.Refs[i]
			if gr.Flags != wr.Flags || gr.IsNil() != wr.IsNil() {
				return fmt.Errorf("page %s: reference %d is %v/%v through the pass, %v/%v through the reference",
					p, i, gr.Flags, gr.IsNil(), wr.Flags, wr.IsNil())
			}
			if !wr.IsNil() && !wr.Flags.Accessed() && gr.Block != wr.Block {
				return fmt.Errorf("page %s: unaccessed reference %d names block %d through the pass, %d through the reference",
					p, i, gr.Block, wr.Block)
			}
			if !wr.IsNil() {
				if err := cmp(p.Child(i), wr.Block, gr.Block); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return cmp(page.RootPath, want, got)
}

// buildWide creates a depth-3 file: root → 3 children → 3 each → 2 each.
func buildWide(t *testing.T, s *Store) *Tree {
	t.Helper()
	fc, vc, _ := caps(t)
	tr, err := CreateFile(s, fc, vc, []byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	var grow func(p page.Path, fanouts []int)
	grow = func(p page.Path, fanouts []int) {
		if len(fanouts) == 0 {
			return
		}
		for i := 0; i < fanouts[0]; i++ {
			if err := tr.InsertPage(p, i, []byte("base"+p.Child(i).String())); err != nil {
				t.Fatal(err)
			}
			grow(p.Child(i), fanouts[1:])
		}
	}
	grow(page.RootPath, []int{3, 3, 2})
	return tr
}

// TestWritePagesMatchesSequentialWrites: a batch of writes and recorded
// reads with shared prefixes, repeated paths, paths both read and written
// and pages this version already shadowed leaves the same tree — pages,
// data and flags — as the same reads and writes made one at a time, and
// costs at most one read per depth plus the root, one alloc and one
// write.
func TestWritePagesMatchesSequentialWrites(t *testing.T) {
	const depth = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024}))
		s := NewStore(srv, testAcct)
		base := buildWide(t, s)
		randPath := func(firstChildren int) page.Path {
			p := page.RootPath
			for _, fan := range []int{firstChildren, 3, 2}[:rng.Intn(depth+1)] {
				p = p.Child(rng.Intn(fan))
			}
			return p
		}
		_, vc1, _ := caps(t)
		_, vc2, _ := caps(t)
		seq, err := CreateVersion(s, base.Root, vc1)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := CreateVersion(s, base.Root, vc2)
		if err != nil {
			t.Fatal(err)
		}
		// Shadow part of the tree first, identically in both versions:
		// reads and writes under the root's children 0 and 1 only, so
		// child 2's subtree is still shared when the batch arrives.
		for i := 0; i < 4; i++ {
			p, data, read := randPath(2), []byte(fmt.Sprintf("pre%d-%d", seed, i)), rng.Intn(2) == 0
			for _, tr := range []*Tree{seq, bat} {
				if read {
					if _, _, err := tr.ReadPage(p); err != nil {
						t.Fatal(err)
					}
				} else if err := refWritePage(tr, p, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		var ps []page.Path
		var datas [][]byte
		for i := 0; i < 12; i++ {
			p := randPath(3)
			if i > 0 && rng.Intn(4) == 0 {
				p = ps[rng.Intn(len(ps))] // a repeated path: the later write wins
			}
			ps = append(ps, p)
			datas = append(datas, []byte(fmt.Sprintf("w%d-%d", seed, i)))
		}
		ps = append(ps, page.Path{2, 1, 0}) // at least one page first touched here
		datas = append(datas, []byte("fresh"))
		var reads []page.Path
		for i := 0; i < 6; i++ {
			p := randPath(3)
			if rng.Intn(3) == 0 {
				p = ps[rng.Intn(len(ps))] // a path both read and written
			}
			reads = append(reads, p)
		}
		reads = append(reads, page.Path{2, 2}) // a read of a page first touched here
		for i, p := range ps {
			if err := refWritePage(seq, p, datas[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range reads {
			if _, _, err := refReadPage(seq, p); err != nil {
				t.Fatal(err)
			}
		}
		cs := newCountStore(srv)
		counted := &Tree{St: NewStore(cs, testAcct), Root: bat.Root}
		if err := counted.Apply(reads, ps, datas); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cs.reads > depth+1 || cs.allocs != 1 || cs.writes > 1 {
			t.Fatalf("seed %d: batch of %d writes and %d reads cost %d reads, %d allocs, %d writes; want <= %d, 1, <= 1",
				seed, len(ps), len(reads), cs.reads, cs.allocs, cs.writes, depth+1)
		}
		if err := sameTrees(s, seq.Root, bat.Root); err != nil {
			t.Fatalf("seed %d: the batch against sequential writes: %v", seed, err)
		}
		// Then a seeded mix of reads, writes and every shape command, each
		// through the pass on bat and through the reference on seq.
		mixOps(t, rng, s, seq, bat, cs, fmt.Sprintf("seed %d", seed))
	}
}

// mixOps applies 60 random operations — reads, writes, every shape
// command and sub-file inserts, on paths that may be bad or cross into
// sub-files — to got through the single pass (over cs, which counts its
// block calls, and with got's Cross hook) and, when the pass accepts one,
// to want through the reference engine, crossing sub-file boundaries by
// refCross. A read on got is the server's: a Look whose path waits to be
// recorded by the next write's Apply, or by an Apply of its own before a
// shape command, and a ReadPage when the Look meets a sub-file got has
// not entered. Whenever no read waits the two trees must match; each pass
// stays within its budget of one read per depth plus the root, one alloc
// and one write; a Look makes no mutating call; and a refused operation
// makes no mutating call at all.
func mixOps(t *testing.T, rng *rand.Rand, s *Store, want, got *Tree, cs *countStore, what string) {
	t.Helper()
	_, _, f := caps(t)
	counted := &Tree{St: NewStore(cs, testAcct), Root: got.Root, Cross: got.Cross}
	cs.reads, cs.allocs, cs.writes = 0, 0, 0
	shape := func(p page.Path) (n, hole int, data []byte) {
		pg, err := want.PeekPage(p)
		if err != nil {
			return 3, -1, nil
		}
		hole = -1
		for i, r := range pg.Refs {
			if r.IsNil() {
				hole = i
			}
		}
		return len(pg.Refs), hole, pg.Data
	}
	// randPath walks want's tree and may step past a table's end or
	// through a hole or a sub-file.
	randPath := func() page.Path {
		p := page.RootPath
		for len(p) < 6 && rng.Intn(4) > 0 {
			n, _, _ := shape(p)
			p = p.Child(rng.Intn(n + 1))
		}
		return p
	}
	randIdx := func(p page.Path, preferHole bool) int {
		n, hole, _ := shape(p)
		if preferHole && hole >= 0 && rng.Intn(4) > 0 {
			return hole
		}
		return rng.Intn(n+2) - 1
	}
	var looked []page.Path // reads Look answered, not yet recorded
	lookDepth := 0
	record := func() {
		t.Helper()
		if len(looked) == 0 {
			return
		}
		if err := counted.Apply(looked, nil, nil); err != nil {
			t.Fatalf("%s: recording the reads %v: %v", what, looked, err)
		}
		if cs.reads > lookDepth+1 || cs.allocs > 1 || cs.writes > 1 {
			t.Fatalf("%s: recording %d reads cost %d reads, %d allocs, %d writes; want <= %d, 1, 1",
				what, len(looked), cs.reads, cs.allocs, cs.writes, lookDepth+1)
		}
		looked, lookDepth = nil, 0
		cs.reads, cs.allocs, cs.writes = 0, 0, 0
		if err := sameTrees(s, want.Root, got.Root); err != nil {
			t.Fatalf("%s: after recording the reads: %v", what, err)
		}
	}
	defer record()
	for i := 0; i < 60; i++ {
		p := randPath()
		data := []byte(fmt.Sprintf("%s op %d", what, i))
		var name string
		var gotErr error
		var wantOp func(w *Tree, rest page.Path) error
		maxDepth := len(p)
		op := rng.Intn(18)
		if op > 5 {
			record() // a shape command records the reads first
		}
		switch op {
		case 0, 1, 2:
			name = "read"
			gd, gn, recorded, err := counted.Look(p)
			switch {
			case recorded:
				name = "crossing read"
			case cs.allocs != 0 || cs.writes != 0:
				t.Fatalf("%s: look %s made %d allocs and %d writes", what, p, cs.allocs, cs.writes)
			case err == nil:
				looked, lookDepth = append(looked, p), max(lookDepth, len(p))
			}
			gotErr = err
			wantOp = func(w *Tree, rest page.Path) error {
				wd, wn, err := refReadPage(w, rest)
				if err == nil && (!bytes.Equal(gd, wd) || gn != wn) {
					err = fmt.Errorf("pass read %q/%d, reference %q/%d", gd, gn, wd, wn)
				}
				return err
			}
		case 3, 4, 5:
			name = "write"
			maxDepth = max(maxDepth, lookDepth)
			gotErr = counted.Apply(looked, []page.Path{p}, [][]byte{data})
			if gotErr == nil {
				looked, lookDepth = nil, 0
			}
			wantOp = func(w *Tree, rest page.Path) error { return refWritePage(w, rest, data) }
		case 6, 7:
			name = "insert"
			idx := randIdx(p, false)
			gotErr = counted.InsertPage(p, idx, data)
			wantOp = func(w *Tree, rest page.Path) error { return refInsertPage(w, rest, idx, data) }
		case 8:
			name = "remove"
			idx := randIdx(p, false)
			gotErr = counted.RemovePage(p, idx)
			wantOp = func(w *Tree, rest page.Path) error { return refRemovePage(w, rest, idx) }
		case 9, 10:
			name = "makeHole"
			idx := randIdx(p, false)
			gotErr = counted.MakeHole(p, idx)
			wantOp = func(w *Tree, rest page.Path) error { return refMakeHole(w, rest, idx) }
		case 11:
			name = "fillHole"
			idx := randIdx(p, true)
			gotErr = counted.FillHole(p, idx, data)
			wantOp = func(w *Tree, rest page.Path) error { return refFillHole(w, rest, idx, data) }
		case 12:
			name = "removeHole"
			idx := randIdx(p, true)
			gotErr = counted.RemoveHole(p, idx)
			wantOp = func(w *Tree, rest page.Path) error { return refRemoveHole(w, rest, idx) }
		case 13:
			_, _, cur := shape(p)
			name = "split"
			keep := rng.Intn(len(cur) + 2)
			gotErr = counted.SplitPage(p, keep)
			wantOp = func(w *Tree, rest page.Path) error { return refSplitPage(w, rest, keep) }
		case 14, 15, 16:
			srcIdx, dst := randIdx(p, false), randPath()
			for k := 0; k < 4; k++ { // look for a hole to move into
				if _, hole, _ := shape(dst); hole >= 0 {
					break
				}
				dst = randPath()
			}
			dstIdx := randIdx(dst, true)
			name = fmt.Sprintf("move to %s/%d", dst, dstIdx)
			if len(dst) > maxDepth {
				maxDepth = len(dst)
			}
			gotErr = counted.MoveSubtree(p, srcIdx, dst, dstIdx)
			// The pass accepts only a move inside one file, so the
			// destination crosses the boundaries the source does.
			wantOp = func(w *Tree, rest page.Path) error {
				return refMoveSubtree(w, rest, srcIdx, dst[len(p)-len(rest):], dstIdx)
			}
		default:
			name = "insertSubFile"
			idx := randIdx(p, false)
			fc, vc := f.Register(uint32(100+i)), f.Register(uint32(1100+i))
			_, gotErr = counted.InsertSubFile(p, idx, fc, vc, data)
			wantOp = func(w *Tree, rest page.Path) error { return refInsertSubFile(w, rest, idx, fc, vc, data) }
		}
		if cs.reads > maxDepth+1 || cs.allocs > 1 || cs.writes > 1 {
			t.Fatalf("%s: %s %s cost %d reads, %d allocs, %d writes; want <= %d, 1, 1",
				what, name, p, cs.reads, cs.allocs, cs.writes, maxDepth+1)
		}
		if gotErr != nil {
			if cs.allocs != 0 || cs.writes != 0 {
				t.Fatalf("%s: refused %s %s (%v) made %d allocs and %d writes", what, name, p, gotErr, cs.allocs, cs.writes)
			}
		} else if err := refCross(want, p, wantOp); err != nil {
			t.Fatalf("%s: %s %s: the pass accepted it, the reference: %v", what, name, p, err)
		}
		cs.reads, cs.allocs, cs.writes = 0, 0, 0
		if len(looked) > 0 {
			continue
		}
		if err := sameTrees(s, want.Root, got.Root); err != nil {
			t.Fatalf("%s: after %s %s: %v", what, name, p, err)
		}
	}
}

// buildNested creates a file whose tree holds sub-files nested in
// sub-files: /0 and /0/1 to start with, then forty random inserts of
// pages and sub-files down to depth three, all in the birth version, so
// that no insert crosses a boundary.
func buildNested(t *testing.T, rng *rand.Rand, s *Store) *Tree {
	t.Helper()
	fc, vc, f := caps(t)
	tr, err := CreateFile(s, fc, vc, []byte("outer"))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(p page.Path, idx int, sub bool, data []byte) {
		t.Helper()
		if sub {
			_, err = tr.InsertSubFile(p, idx, f.Register(uint32(10+len(data))), f.Register(uint32(60+len(data))), data)
		} else {
			err = tr.InsertPage(p, idx, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	insert(page.RootPath, 0, true, []byte("sub A"))
	insert(page.Path{0}, 0, false, []byte("in A"))
	insert(page.Path{0}, 1, true, []byte("sub A/B"))
	insert(page.Path{0, 1}, 0, false, []byte("in A/B"))
	for i := 0; i < 40; i++ {
		p := page.RootPath
		pg, err := tr.PeekPage(p)
		for err == nil && len(p) < 3 && len(pg.Refs) > 0 && rng.Intn(4) > 0 {
			p = p.Child(rng.Intn(len(pg.Refs)))
			pg, err = tr.PeekPage(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		insert(p, rng.Intn(len(pg.Refs)+1), len(p) > 0 && rng.Intn(3) == 0, []byte(fmt.Sprint("page ", i)))
	}
	return tr
}

// TestCrossingPassMatchesLinkThenRerun holds the pass that crosses
// sub-file boundaries itself to the sequence it replaced — fork, point
// the fork's parent reference at the enclosing version page, link, then
// rerun the operation inside the sub-file — over seeded random trees with
// nested sub-files: the second of two versions, so the first has already
// forked some sub-files, which the second must fork again. Every crossing
// pass stays within one read per depth plus the root, one alloc and one
// write, a nested crossing's patched parent reference included.
func TestCrossingPassMatchesLinkThenRerun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024}))
		s := NewStore(srv, testAcct)
		base := buildNested(t, rng, s)
		_, vc, _ := caps(t)
		first, err := CreateVersion(s, base.Root, vc)
		if err != nil {
			t.Fatal(err)
		}
		first.Cross = forkHook
		for i := 0; i < 10; i++ {
			p := page.RootPath
			for len(p) < 4 && rng.Intn(4) > 0 {
				p = p.Child(rng.Intn(3))
			}
			if err := first.WritePage(p, []byte(fmt.Sprint("first ", i))); err != nil && !errors.Is(err, ErrBadPath) && !errors.Is(err, ErrHole) {
				t.Fatal(err)
			}
		}
		pair := func() (want, got *Tree) {
			t.Helper()
			want, err := CreateVersion(s, first.Root, vc)
			if err != nil {
				t.Fatal(err)
			}
			got, err = CreateVersion(s, first.Root, vc)
			if err != nil {
				t.Fatal(err)
			}
			got.Cross = forkHook
			return want, got
		}
		// One batch that writes every sub-file's version page, crossing
		// each boundary above it, nested ones included, in one pass.
		want, got := pair()
		var ps []page.Path
		var datas [][]byte
		maxDepth := 0
		err = want.Walk(func(p page.Path, _ page.Ref, pg *page.Page) error {
			if pg.IsVersion && len(p) > 0 {
				ps, datas = append(ps, p), append(datas, []byte("batch "+p.String()))
				maxDepth = max(maxDepth, len(p))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cs := newCountStore(srv)
		counted := &Tree{St: NewStore(cs, testAcct), Root: got.Root, Cross: got.Cross}
		if err := counted.Apply(nil, ps, datas); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cs.reads > maxDepth+1 || cs.allocs != 1 || cs.writes != 1 {
			t.Fatalf("seed %d: a batch into %d sub-files cost %d reads, %d allocs, %d writes; want <= %d, 1, 1",
				seed, len(ps), cs.reads, cs.allocs, cs.writes, maxDepth+1)
		}
		for i, p := range ps {
			if err := refCross(want, p, func(w *Tree, rest page.Path) error { return refWritePage(w, rest, datas[i]) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameTrees(s, want.Root, got.Root); err != nil {
			t.Fatalf("seed %d: a batch into %d sub-files: %v", seed, len(ps), err)
		}
		// Then the random mix, on a second pair.
		want, got = pair()
		mixOps(t, rng, s, want, got, cs, fmt.Sprintf("seed %d", seed))
	}
}

// TestCrossingRefusals: with no Cross hook a pass that reaches a sub-file
// this version has not entered refuses with ErrSubFile and writes
// nothing, and so does a move between two files of a super-file, before
// it calls the hook. With the hook, a Look that crosses records its read
// at once; once inside, a Look writes nothing.
func TestCrossingRefusals(t *testing.T) {
	srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024}))
	s := NewStore(srv, testAcct)
	base := buildFile(t, s) // /0 /1 /2, /1 has /1/0 and /1/1
	fc, vc, _ := caps(t)
	if _, err := base.InsertSubFile(page.Path{1}, 2, fc, vc, []byte("sub")); err != nil {
		t.Fatal(err)
	}
	if err := base.InsertPage(page.Path{1, 2}, 0, []byte("in sub")); err != nil {
		t.Fatal(err)
	}
	if err := base.MakeHole(page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	v, err := CreateVersion(s, base.Root, vc)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCountStore(srv)
	tr := &Tree{St: NewStore(cs, testAcct), Root: v.Root}
	refuses := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSubFile) {
			t.Fatalf("%s: err = %v, want ErrSubFile", what, err)
		}
		if cs.allocs != 0 || cs.writes != 0 {
			t.Fatalf("%s: refused pass made %d allocs and %d writes", what, cs.allocs, cs.writes)
		}
	}
	_, _, err = tr.ReadPage(page.Path{1, 2, 0})
	refuses("read with no hook", err)
	_, _, _, err = tr.Look(page.Path{1, 2, 0})
	refuses("look with no hook", err)
	refuses("batch with no hook", tr.Apply(nil, []page.Path{{0}, {1, 2}}, [][]byte{nil, nil}))
	crossed := 0
	tr.Cross = func(blk block.Num, pg *page.Page) (*page.Page, error) {
		crossed++
		return forkHook(blk, pg)
	}
	refuses("move out of a sub-file", tr.MoveSubtree(page.Path{1, 2}, 0, page.RootPath, 2))
	refuses("move into a sub-file", tr.MoveSubtree(page.RootPath, 0, page.Path{1, 2}, 0))
	if crossed != 0 {
		t.Fatalf("refused moves called the Cross hook %d times", crossed)
	}
	data, _, recorded, err := tr.Look(page.Path{1, 2, 0})
	if err != nil || string(data) != "in sub" || !recorded || crossed != 1 || cs.allocs != 1 || cs.writes != 1 {
		t.Fatalf("crossing look: %q, recorded %v, %v after %d crossings, %d allocs, %d writes; want in sub, recorded, 1, 1, 1",
			data, recorded, err, crossed, cs.allocs, cs.writes)
	}
	cs.allocs, cs.writes = 0, 0
	data, _, recorded, err = tr.Look(page.Path{1, 2, 0})
	if err != nil || string(data) != "in sub" || recorded || crossed != 1 || cs.allocs != 0 || cs.writes != 0 {
		t.Fatalf("look inside the entered sub-file: %q, recorded %v, %v after %d crossings, %d allocs, %d writes; want in sub, not recorded, 1, 0, 0",
			data, recorded, err, crossed, cs.allocs, cs.writes)
	}
}

// TestWritePagesRefusesBeforeWriting: a batch with one bad entry —
// a bad path, a hole, or data too large for its page — fails with that
// entry's error and writes nothing at all.
func TestWritePagesRefusesBeforeWriting(t *testing.T) {
	srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024}))
	base := buildFile(t, NewStore(srv, testAcct))
	if err := base.MakeHole(page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	_, vc, _ := caps(t)
	v, err := CreateVersion(NewStore(srv, testAcct), base.Root, vc)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCountStore(srv)
	tr := &Tree{St: NewStore(cs, testAcct), Root: v.Root}
	good := []byte("fine")
	for _, c := range []struct {
		bad  page.Path
		data []byte
		want error
	}{
		{page.Path{1, 7}, good, ErrBadPath},
		{page.Path{2}, good, ErrHole},
		{page.Path{1, 1}, bytes.Repeat([]byte{1}, 2000), page.ErrPageFull},
	} {
		err := tr.Apply(nil, []page.Path{{0}, {1, 0}, c.bad}, [][]byte{good, good, c.data})
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.bad, err, c.want)
		}
		if cs.allocs != 0 || cs.writes != 0 {
			t.Fatalf("%s: refused batch made %d allocs and %d writes", c.bad, cs.allocs, cs.writes)
		}
	}
}

// TestShapeCommandsRefuseBeforeWriting: a shape command that fails — on
// a full reference table, a bad index below a valid prefix, a destination
// that is not a hole — fails with its error and makes no mutating block
// call, so the version is exactly as before.
func TestShapeCommandsRefuseBeforeWriting(t *testing.T) {
	srv := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024}))
	base := buildFile(t, NewStore(srv, testAcct))
	if err := base.MakeHole(page.RootPath, 2); err != nil {
		t.Fatal(err)
	}
	_, vc, f := caps(t)
	v, err := CreateVersion(NewStore(srv, testAcct), base.Root, vc)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCountStore(srv)
	tr := &Tree{St: NewStore(cs, testAcct), Root: v.Root}
	refuses := func(what string, want error, err error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", what, err, want)
		}
		if cs.allocs != 0 || cs.writes != 0 {
			t.Fatalf("%s: refused command made %d allocs and %d writes", what, cs.allocs, cs.writes)
		}
	}
	refuses("remove below a bad index", ErrBadPath, tr.RemovePage(page.Path{1, 7}, 0))
	refuses("insert at a bad index", page.ErrBadIndex, tr.InsertPage(page.Path{1}, 9, nil))
	refuses("fill a live reference", ErrNotHole, tr.FillHole(page.Path{1}, 0, nil))
	refuses("remove a live reference as a hole", ErrNotHole, tr.RemoveHole(page.RootPath, 0))
	refuses("split past the end", ErrBadPath, tr.SplitPage(page.Path{0}, 99))
	refuses("move onto a live reference", ErrNotHole, tr.MoveSubtree(page.Path{1}, 0, page.RootPath, 0))
	refuses("move from a hole", ErrHole, tr.MoveSubtree(page.RootPath, 2, page.Path{1}, 0))

	// Fill /1's table, one pass per insert, until it cannot take another
	// reference: the refused insert and sub-file insert write nothing.
	for i := 0; ; i++ {
		cs.allocs, cs.writes = 0, 0
		err := tr.InsertPage(page.Path{1}, 0, nil)
		if errors.Is(err, page.ErrPageFull) {
			refuses("insert into a full table", page.ErrPageFull, err)
			break
		}
		if err != nil || i > 1024 {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	cs.allocs, cs.writes = 0, 0
	_, err = tr.InsertSubFile(page.Path{1}, 0, f.Register(7), f.Register(8), nil)
	refuses("sub-file into a full table", page.ErrPageFull, err)
}

// TestVisitReadsOneLevelPerCall: a visit over k roots of depth at most d
// makes at most d+1 read calls, one per level across all the roots, and
// so do Blocks, PrivateBlocks and WalkArchive on one tree.
func TestVisitReadsOneLevelPerCall(t *testing.T) {
	cs := newCountStore(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})))
	s := NewStore(cs, testAcct)
	wide := buildWide(t, s) // depth 3
	narrow := buildFile(t, s)
	_, vc, _ := caps(t)
	v2, err := CreateVersion(s, wide.Root, vc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []page.Path{{0, 0, 0}, {1, 2, 1}, {2, 1}} {
		if err := v2.WritePage(p, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	budget := func(what string, want int, run func() error) {
		t.Helper()
		cs.reads = 0
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if cs.reads > want {
			t.Fatalf("%s: %d read calls, want <= %d", what, cs.reads, want)
		}
	}
	pages := 0
	budget("visit over 3 roots of depth <= 3", 4, func() error {
		return s.Visit([]block.Num{wide.Root, narrow.Root, v2.Root}, func(*Node) (Follow, error) {
			pages++
			return All, nil
		})
	})
	if want := 1 + 3 + 9 + 18 + 6 + 1 + 3 + 9 + 18; pages != want {
		t.Fatalf("visited %d pages, want %d", pages, want)
	}
	budget("Blocks of a depth-3 tree", 4, func() error { _, err := v2.Blocks(); return err })
	budget("PrivateBlocks of a depth-3 tree", 4, func() error { _, err := v2.PrivateBlocks(); return err })
	budget("WalkArchive of a depth-3 tree", 4, func() error {
		_, err := wide.WalkArchive(func(page.Path, *page.Page) (block.Num, error) { return 1, nil })
		return err
	})
}

// failStore fails reads of the blocks in bad; with anon it fails them
// without naming the block.
type failStore struct {
	*countStore
	block.Scalar
	bad  map[block.Num]bool
	anon bool
}

func (f *failStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	for i, n := range ns {
		if f.bad[n] {
			f.reads++
			if f.anon {
				return nil, errors.New("store down")
			}
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: block.ErrNotAllocated}
		}
	}
	return f.countStore.ReadMulti(a, ns)
}

// TestVisitIsolatesUnreadablePage: a page that cannot be read reaches
// the callback with its error and hides none of its level; its level is
// read again without it. A failure that names no block fails the level.
func TestVisitIsolatesUnreadablePage(t *testing.T) {
	cs := newCountStore(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})))
	fs := &failStore{countStore: cs}
	fs.Scalar = block.Scalar{Multi: fs}
	tr := buildFile(t, NewStore(cs, testAcct))
	root, _ := tr.VersionPage()
	fs.bad = map[block.Num]bool{root.Refs[1].Block: true}
	s := NewStore(fs, testAcct)
	visit := func() (ok, failed []string) {
		cs.reads = 0
		err := s.Visit([]block.Num{tr.Root}, func(n *Node) (Follow, error) {
			if n.Err != nil {
				failed = append(failed, n.Path().String())
				return All, nil // no page: nothing to follow
			}
			ok = append(ok, n.Path().String())
			return All, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ok, failed
	}
	ok, failed := visit()
	if fmt.Sprint(ok) != "[/ /0 /2]" || fmt.Sprint(failed) != "[/1]" || cs.reads != 3 {
		t.Fatalf("visited %v, failed %v in %d reads; want [/ /0 /2], [/1] in 3", ok, failed, cs.reads)
	}
	fs.anon = true
	ok, failed = visit()
	if fmt.Sprint(ok) != "[/]" || fmt.Sprint(failed) != "[/0 /1 /2]" {
		t.Fatalf("visited %v, failed %v; want [/] and the whole level failed", ok, failed)
	}
}

// TestVisitStops: ErrStop ends the walk without an error, and any other
// callback error ends it with that error.
func TestVisitStops(t *testing.T) {
	s := newStore(t)
	tr := buildFile(t, s)
	seen := 0
	err := s.Visit([]block.Num{tr.Root}, func(n *Node) (Follow, error) {
		seen++
		if n.Path().Equal(page.Path{1}) {
			return nil, ErrStop
		}
		return All, nil
	})
	if err != nil || seen != 3 {
		t.Fatalf("stopped visit: err %v after %d pages, want nil after 3", err, seen)
	}
	boom := errors.New("boom")
	if err := s.Visit([]block.Num{tr.Root}, func(*Node) (Follow, error) { return All, boom }); !errors.Is(err, boom) {
		t.Fatalf("visit err = %v, want boom", err)
	}
}
