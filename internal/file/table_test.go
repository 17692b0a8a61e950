package file

import (
	"errors"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/version"
)

func newStore(t *testing.T) *version.Store {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 4096, BlockSize: 1024})
	return version.NewStore(block.NewServer(d), 1)
}

func TestTableCRUD(t *testing.T) {
	tb := NewTable()
	f := capability.NewFactory(capability.NewPort().Public())
	c := f.Register(1)

	if _, err := tb.Get(1); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("empty table Get err = %v", err)
	}
	tb.Put(1, Entry{Cap: c, Entry: 42})
	e, err := tb.Get(1)
	if err != nil || e.Entry != 42 || e.Super {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	tb.Advance(1, 99)
	if e, _ := tb.Get(1); e.Entry != 99 {
		t.Fatalf("Advance: entry = %d", e.Entry)
	}
	tb.MarkSuper(1)
	if e, _ := tb.Get(1); !e.Super {
		t.Fatal("MarkSuper lost")
	}
	tb.Advance(2, 7) // unknown object: no-op
	tb.MarkSuper(2)  // unknown object: no-op
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if got := tb.Objects(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Objects = %v", got)
	}
	snap := tb.Entries()
	if len(snap) != 1 || snap[1].Entry != 99 {
		t.Fatalf("Entries = %v", snap)
	}
	tb.Remove(1)
	if tb.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestRebuildFindsCommittedChains(t *testing.T) {
	st := newStore(t)
	f := capability.NewFactory(capability.NewPort().Public())

	// File A: three committed versions.
	fa := f.Register(10)
	v0, err := version.CreateFile(st, fa, f.Register(11), []byte("a0"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := version.CreateVersion(st, v0.Root, f.Register(12))
	if err != nil {
		t.Fatal(err)
	}
	v1.WritePage(page.RootPath, []byte("a1"))
	// Commit v1 manually: set v0's commit ref.
	vp, _ := st.ReadPage(v0.Root)
	vp.CommitRef = v1.Root
	if err := st.WritePage(v0.Root, vp); err != nil {
		t.Fatal(err)
	}

	// File B: one committed version plus an uncommitted orphan.
	fb := f.Register(20)
	b0, err := version.CreateFile(st, fb, f.Register(21), []byte("b0"))
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := version.CreateVersion(st, b0.Root, f.Register(22))
	if err != nil {
		t.Fatal(err)
	}
	orphan.WritePage(page.RootPath, []byte("orphan"))

	tb, err := Rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rebuilt %d files, want 2", tb.Len())
	}
	ea, err := tb.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	// The entry is a committed version of A; current from it is v1.
	got, err := st.ReadPage(ea.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if got.FileCap != fa {
		t.Fatal("entry belongs to wrong file")
	}
	eb, err := tb.Get(20)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Entry != b0.Root {
		t.Fatalf("file B entry = %d, want committed %d (not the orphan)", eb.Entry, b0.Root)
	}
}

// TestRebuildSurvivesSweptBase: after the collector retires and sweeps
// a committed version's base, the survivor's base reference dangles.
// Rebuild must still recognise it as committed — an uncommitted
// version's base is the retained entry point, which the sweep never
// frees, so only committed versions outlive their bases.
func TestRebuildSurvivesSweptBase(t *testing.T) {
	st := newStore(t)
	f := capability.NewFactory(capability.NewPort().Public())

	fa := f.Register(10)
	v0, err := version.CreateFile(st, fa, f.Register(11), []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := version.CreateVersion(st, v0.Root, f.Register(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.WritePage(page.RootPath, []byte("new")); err != nil {
		t.Fatal(err)
	}
	vp, _ := st.ReadPage(v0.Root)
	vp.CommitRef = v1.Root
	if err := st.WritePage(v0.Root, vp); err != nil {
		t.Fatal(err)
	}
	// The collector retires v0 past the horizon and eventually frees it;
	// v1.BaseRef now dangles.
	if err := st.Blocks.Free(st.Acct, v0.Root); err != nil {
		t.Fatal(err)
	}

	tb, err := Rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tb.Get(10)
	if err != nil {
		t.Fatalf("file with swept base dropped from rebuild: %v", err)
	}
	if e.Entry != v1.Root {
		t.Fatalf("entry = %d, want the surviving committed version %d", e.Entry, v1.Root)
	}
}

func TestRebuildDetectsSuperFiles(t *testing.T) {
	st := newStore(t)
	f := capability.NewFactory(capability.NewPort().Public())

	super, err := version.CreateFile(st, f.Register(40), f.Register(41), []byte("super"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := super.InsertSubFile(page.RootPath, 0, f.Register(30), f.Register(31), []byte("sub")); err != nil {
		t.Fatal(err)
	}

	tb, err := Rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	es, err := tb.Get(40)
	if err != nil {
		t.Fatal(err)
	}
	if !es.Super {
		t.Fatal("super-file not detected in rebuild")
	}
	esub, err := tb.Get(30)
	if err != nil {
		t.Fatal(err)
	}
	if esub.Super {
		t.Fatal("plain sub-file marked super")
	}
}

func TestHasSubFilesDeep(t *testing.T) {
	st := newStore(t)
	f := capability.NewFactory(capability.NewPort().Public())
	super, err := version.CreateFile(st, f.Register(1), f.Register(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bury the sub-file two levels down.
	if err := super.InsertPage(page.RootPath, 0, []byte("l1")); err != nil {
		t.Fatal(err)
	}
	if err := super.InsertPage(page.Path{0}, 0, []byte("l2")); err != nil {
		t.Fatal(err)
	}
	if _, err := super.InsertSubFile(page.Path{0, 0}, 0, f.Register(3), f.Register(4), []byte("deep")); err != nil {
		t.Fatal(err)
	}
	found, err := HasSubFiles(st, super.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("deep sub-file not found")
	}

	plain, _ := version.CreateFile(st, f.Register(5), f.Register(6), nil)
	plain.InsertPage(page.RootPath, 0, []byte("x"))
	found, err = HasSubFiles(st, plain.Root)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("plain file reported sub-files")
	}
}

// TestRebuildPrefersProvenCommitted reproduces the crashed-client
// resurrection hazard: an uncommitted orphan whose base was retired and
// swept looks "committed" to the vanished-base inference, but the file
// also has provably committed versions — and those must win, no matter
// what order the recovery scan visits candidates in. Otherwise a crash
// recovery would surface abandoned uncommitted data as the file's
// current content.
func TestRebuildPrefersProvenCommitted(t *testing.T) {
	st := newStore(t)
	f := capability.NewFactory(capability.NewPort().Public())

	fa := f.Register(10)
	v0, err := version.CreateFile(st, fa, f.Register(11), []byte("g0"))
	if err != nil {
		t.Fatal(err)
	}
	// A client opens an update of v0 and crashes: the orphan lives on.
	orphan, err := version.CreateVersion(st, v0.Root, f.Register(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := orphan.WritePage(page.RootPath, []byte("abandoned")); err != nil {
		t.Fatal(err)
	}
	// Meanwhile v1 and v2 commit over v0.
	v1, err := version.CreateVersion(st, v0.Root, f.Register(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.WritePage(page.RootPath, []byte("g1")); err != nil {
		t.Fatal(err)
	}
	vp, _ := st.ReadPage(v0.Root)
	vp.CommitRef = v1.Root
	if err := st.WritePage(v0.Root, vp); err != nil {
		t.Fatal(err)
	}
	v2, err := version.CreateVersion(st, v1.Root, f.Register(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.WritePage(page.RootPath, []byte("g2")); err != nil {
		t.Fatal(err)
	}
	vp, _ = st.ReadPage(v1.Root)
	vp.CommitRef = v2.Root
	if err := st.WritePage(v1.Root, vp); err != nil {
		t.Fatal(err)
	}
	// The collector retires v0 past the horizon and sweeps it — the
	// orphan's base vanishes, so the orphan now *infers* committed,
	// while v1 (commit ref set) and v2 (v1 points back) stay provable.
	if err := st.Blocks.Free(st.Acct, v0.Root); err != nil {
		t.Fatal(err)
	}

	// Candidate order is map-iteration order; several rounds guard
	// against a lucky pass.
	for i := 0; i < 10; i++ {
		tb, err := Rebuild(st)
		if err != nil {
			t.Fatal(err)
		}
		e, err := tb.Get(10)
		if err != nil {
			t.Fatal(err)
		}
		if e.Entry == orphan.Root {
			t.Fatal("rebuild resurrected the abandoned orphan as the entry")
		}
		if e.Entry != v1.Root && e.Entry != v2.Root {
			t.Fatalf("entry = %d, want a proven committed version (%d or %d)", e.Entry, v1.Root, v2.Root)
		}
	}
}
