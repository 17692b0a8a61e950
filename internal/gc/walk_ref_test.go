package gc

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/file"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/treetest"
	"repro/internal/version"
)

// The recursive mark and reshare that the visitor replaced, and a cycle
// built from them, kept as references.

// refCollect is Collect without the gate and the archive, on refMark
// and refReshareVersion.
func refCollect(g *Collector) Report {
	var rep Report
	live := g.Live()
	roots := append([]block.Num(nil), live...)
	for _, n := range live {
		if pg, err := g.St.ReadPage(n); err == nil && pg.BaseRef != block.NilNum {
			roots = append(roots, pg.BaseRef)
		}
	}
	for _, obj := range g.Table.Objects() {
		e, err := g.Table.Get(obj)
		if err != nil {
			continue
		}
		chain, err := occ.History(g.St, e.Entry)
		if err != nil || len(chain) == 0 {
			continue
		}
		keepFrom := max(len(chain)-g.Retain, 0)
		rep.Retired += keepFrom
		if keepFrom > 0 {
			g.Table.Retire(obj, chain[keepFrom])
		}
		retained := chain[keepFrom:]
		for _, root := range retained[1:] {
			if n, err := refReshareVersion(g, root); err == nil {
				rep.Reshared += n
			}
		}
		roots = append(roots, retained...)
	}
	rep.LiveRoots = len(roots)
	marked := make(map[block.Num]bool)
	for _, root := range roots {
		refMark(g, root, marked)
	}
	rep.Marked = len(marked)
	all, _ := g.St.Blocks.Recover(g.St.Acct)
	rep.Scanned = len(all)
	next := make(map[block.Num]bool)
	var dead []block.Num
	for _, n := range all {
		switch {
		case marked[n]:
		case g.condemned[n]:
			dead = append(dead, n)
		default:
			next[n] = true
		}
	}
	g.condemned = next
	if block.FreeMulti(g.St.Blocks, g.St.Acct, dead) == nil {
		rep.Freed = len(dead)
	}
	rep.Condemned = len(next)
	return rep
}

// refMark is the per-root breadth-first mark.
func refMark(g *Collector, root block.Num, marked map[block.Num]bool) {
	frontier := []block.Num{root}
	for len(frontier) > 0 {
		var batch []block.Num
		for _, n := range frontier {
			if n == block.NilNum || marked[n] {
				continue
			}
			marked[n] = true
			batch = append(batch, n)
		}
		if len(batch) == 0 {
			return
		}
		frontier = frontier[:0]
		for _, pg := range refReadTolerant(g, batch) {
			if pg == nil {
				continue
			}
			for _, r := range pg.Refs {
				if !r.IsNil() {
					frontier = append(frontier, r.Block)
				}
			}
		}
	}
}

// refReadTolerant reads a batch, falling back to per-page reads.
func refReadTolerant(g *Collector, ns []block.Num) []*page.Page {
	pgs, err := g.St.ReadPages(ns)
	if err == nil {
		return pgs
	}
	out := make([]*page.Page, len(ns))
	for i, n := range ns {
		if pg, err := g.St.ReadPage(n); err == nil {
			out[i] = pg
		}
	}
	return out
}

// refReshareVersion is the recursive reshare of one committed version.
func refReshareVersion(g *Collector, root block.Num) (int, error) {
	vp, err := g.St.ReadPage(root)
	if err != nil {
		return 0, err
	}
	if vp.BaseRef == block.NilNum {
		return 0, nil
	}
	return refResharePage(g, root, vp)
}

func refResharePage(g *Collector, blk block.Num, pg *page.Page) (int, error) {
	reshared := 0
	var patched []int
	for i, r := range pg.Refs {
		if r.IsNil() || !r.Flags.Accessed() {
			continue
		}
		child, err := g.St.ReadPage(r.Block)
		if err != nil || child.IsVersion {
			continue
		}
		below := r.Flags.InWriteSet()
		if !below {
			if below, err = refSubtreeWrites(g, child); err != nil {
				return reshared, err
			}
		}
		if below {
			n, err := refResharePage(g, r.Block, child)
			if err != nil {
				return reshared, err
			}
			reshared += n
			continue
		}
		if child.BaseRef == block.NilNum {
			continue
		}
		pg.Refs[i] = page.Ref{Block: child.BaseRef}
		patched = append(patched, i)
		reshared++
	}
	switch {
	case len(patched) == 0:
		return reshared, nil
	case !pg.IsVersion:
		return reshared, g.St.WritePage(blk, pg)
	}
	err := block.WithLock(g.St.Blocks, g.St.Acct, blk, func(raw []byte) ([]byte, error) {
		fresh, err := page.Decode(raw)
		if err != nil {
			return nil, err
		}
		for _, i := range patched {
			fresh.Refs[i] = pg.Refs[i]
		}
		return fresh.Encode(g.St.Blocks.BlockSize())
	})
	return reshared, err
}

func refSubtreeWrites(g *Collector, pg *page.Page) (bool, error) {
	for _, r := range pg.Refs {
		if r.IsNil() || !r.Flags.Accessed() {
			continue
		}
		if r.Flags.InWriteSet() {
			return true, nil
		}
		child, err := g.St.ReadPage(r.Block)
		if err != nil {
			return false, err
		}
		if child.IsVersion {
			return true, nil
		}
		has, err := refSubtreeWrites(g, child)
		if err != nil || has {
			return has, err
		}
	}
	return false, nil
}

// historyCollector writes seed's random history — six committed updates
// and one open one — to a fresh store and returns a collector keeping
// three committed versions, with the open version live.
func historyCollector(t *testing.T, seed int64) (*treetest.Store, *Collector, []block.Num, block.Num) {
	t.Helper()
	fs := treetest.NewStore()
	st := version.NewStore(fs, 1)
	rng := rand.New(rand.NewSource(seed))
	chain, err := treetest.History(st, rng, 6)
	if err != nil {
		t.Fatal(err)
	}
	open, err := treetest.Update(st, rng, chain[len(chain)-1], false)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := st.ReadPage(chain[0])
	if err != nil {
		t.Fatal(err)
	}
	tb := file.NewTable()
	tb.Put(vp.FileCap.Object, file.Entry{Cap: vp.FileCap, Entry: chain[len(chain)-1]})
	live := func() []block.Num { return []block.Num{open.Root} }
	return fs, New(st, tb, 3, live), chain, open.Root
}

// treeLines renders a tree as its walk, one line per page, or its error.
func treeLines(st *version.Store, root block.Num) string {
	var out []string
	err := (&version.Tree{St: st, Root: root}).Walk(func(p page.Path, ref page.Ref, pg *page.Page) error {
		out = append(out, fmt.Sprintf("%s %d %s %q", p, ref.Block, ref.Flags, pg.Data))
		return nil
	})
	if err != nil {
		return err.Error()
	}
	slices.Sort(out)
	return fmt.Sprint(out)
}

// TestCollectMatchesReference: two cycles over a random history leave
// the same trees, the same reports and the same blocks on the account as
// two cycles of the recursive mark and reshare. Blocks that cannot be
// read sit in the regions only the mark reads — the open version and the
// oldest retained one, whose private pages no reshare visits. An
// unreadable page inside a reshared version follows a rule of its own,
// tested by TestReshareKeepsCopiesAboveUnreadablePage.
func TestCollectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		fsA, a, chain, open := historyCollector(t, seed)
		fsB, b, _, _ := historyCollector(t, seed)
		bad := make(map[block.Num]bool)
		for _, r := range []block.Num{open, chain[len(chain)-3]} {
			priv, err := (&version.Tree{St: a.St, Root: r}).PrivateBlocks()
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(bad, priv)
		}
		for _, r := range chain[len(chain)-2:] {
			priv, err := (&version.Tree{St: a.St, Root: r}).PrivateBlocks()
			if err != nil {
				t.Fatal(err)
			}
			for n := range priv {
				delete(bad, n)
			}
		}
		delete(bad, chain[len(chain)-3]) // History reads the retained roots
		fsA.Spoil(rand.New(rand.NewSource(seed)), bad, 4)
		maps.Copy(fsB.Bad, fsA.Bad)
		reshared := 0
		for cycle := 1; cycle <= 2; cycle++ {
			got, err := a.Collect()
			if err != nil {
				t.Fatal(err)
			}
			want := refCollect(b)
			got.Duration = 0
			if got != want {
				t.Fatalf("seed %d cycle %d: report %+v, reference %+v", seed, cycle, got, want)
			}
			reshared += got.Reshared
			if cycle == 2 {
				t.Logf("seed %d: %d unreadable, %d reshared, cycle 2 %+v", seed, len(fsA.Bad), reshared, got)
			}
		}
		clear(fsA.Bad)
		clear(fsB.Bad)
		gotAll, _ := fsA.Recover(1)
		wantAll, _ := fsB.Recover(1)
		slices.Sort(gotAll)
		slices.Sort(wantAll)
		if !slices.Equal(gotAll, wantAll) {
			t.Fatalf("seed %d: blocks left %v, reference %v", seed, gotAll, wantAll)
		}
		for _, r := range append(chain, open) {
			if got, want := treeLines(a.St, r), treeLines(b.St, r); got != want {
				t.Fatalf("seed %d root %d: tree\n%s\nreference\n%s", seed, r, got, want)
			}
		}
	}
}

// TestReshareKeepsCopiesAboveUnreadablePage: a page of a committed
// version that cannot be read counts as a write below its parent — the
// copies above it stay — and the rest of the version is still reshared.
func TestReshareKeepsCopiesAboveUnreadablePage(t *testing.T) {
	fs := treetest.NewStore()
	sh := server.NewShared(fs, 1)
	srv := server.New(sh, nil)
	col := New(srv.Store(), sh.Table, 8, srv.LiveVersions)
	fcap, _ := srv.CreateFile(nil)
	setup, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for _, p := range []page.Path{page.RootPath, page.RootPath, {0}} {
		if err := srv.InsertPage(setup, p, 0, []byte("base"+p.String())); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Commit(setup); err != nil {
		t.Fatal(err)
	}
	base, _ := srv.CurrentVersion(fcap)
	v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for _, p := range []page.Path{{0, 0}, {1}} { // read shadows only
		if _, _, err := srv.ReadPage(v, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Commit(v); err != nil {
		t.Fatal(err)
	}
	root, _ := srv.CurrentVersion(fcap)
	st := col.St
	vp, _ := st.ReadPage(root)
	bp, _ := st.ReadPage(base)
	mid, _ := st.ReadPage(vp.Refs[0].Block)
	fs.Bad[mid.Refs[0].Block] = true // the copy of /0/0
	n, err := col.reshareVersion(root)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reshared %d references, want 1 (/1)", n)
	}
	after, _ := st.ReadPage(root)
	if after.Refs[1].Block != bp.Refs[1].Block {
		t.Fatalf("/1 still names block %d, want the base's %d", after.Refs[1].Block, bp.Refs[1].Block)
	}
	if after.Refs[0] != vp.Refs[0] {
		t.Fatalf("/0 became %v, want the copy %v kept above the unreadable page", after.Refs[0], vp.Refs[0])
	}
}

// TestCollectReadBudget: one cycle's mark reads each level of the whole
// store once — at most max depth + 1 read calls over every file, on top
// of what the History walks read — and resharing one version of depth d
// makes at most d+1 read calls, plus the read of its version page inside
// the block lock when the root's table is patched.
func TestCollectReadBudget(t *testing.T) {
	fs := treetest.NewStore()
	sh := server.NewShared(fs, 1)
	srv := server.New(sh, nil)
	col := New(srv.Store(), sh.Table, 1, srv.LiveVersions)
	var files []block.Num
	for f := 0; f < 4; f++ { // depth 2: root → 3 pages → 2 each
		fcap, _ := srv.CreateFile([]byte("root"))
		v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
		for i := 0; i < 3; i++ {
			srv.InsertPage(v, page.RootPath, i, []byte("mid"))
			for j := 0; j < 2; j++ {
				srv.InsertPage(v, page.Path{i}, j, []byte("leaf"))
			}
		}
		if err := srv.Commit(v); err != nil {
			t.Fatal(err)
		}
		root, _ := srv.CurrentVersion(fcap)
		files = append(files, root)
	}
	if _, err := col.Collect(); err != nil { // retire the births
		t.Fatal(err)
	}
	fs.Count()
	for _, obj := range sh.Table.Objects() {
		e, _ := sh.Table.Get(obj)
		if _, err := occ.History(col.St, e.Entry); err != nil {
			t.Fatal(err)
		}
	}
	history, _ := fs.Count()
	rep, err := col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if reads, _ := fs.Count(); reads-history > 3 || rep.Marked < 4*10 {
		t.Fatalf("a cycle over 4 files of depth 2: %d read calls besides History's %d, %d marked; want <= 3, >= 40",
			reads-history, history, rep.Marked)
	}

	// A version of depth 2 with read shadows of three leaves and a write.
	fcap, _ := srv.CreateFile(nil)
	setup, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 3; i++ {
		srv.InsertPage(setup, page.RootPath, i, []byte("mid"))
		for j := 0; j < 2; j++ {
			srv.InsertPage(setup, page.Path{i}, j, []byte("leaf"))
		}
	}
	if err := srv.Commit(setup); err != nil {
		t.Fatal(err)
	}
	v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for _, p := range []page.Path{{0, 0}, {0, 1}, {1, 0}} {
		srv.ReadPage(v, p)
	}
	srv.WritePage(v, page.Path{2, 1}, []byte("written"))
	if err := srv.Commit(v); err != nil {
		t.Fatal(err)
	}
	root, _ := srv.CurrentVersion(fcap)
	fs.Count()
	n, err := col.reshareVersion(root)
	if err != nil {
		t.Fatal(err)
	}
	reads, locked := fs.Count()
	if n != 2 || reads > 3 || locked > 1 {
		t.Fatalf("reshare of a depth-2 version: %d reshared in %d read calls and %d under the lock; want 2 (/0, /1) in <= 3 and <= 1",
			n, reads, locked)
	}
}
