package archive_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/version"
)

const frontBlockSize = 1024

// newTier builds a mutable front tier and an empty archive sized to
// frame the front tier's pages.
func newTier(t *testing.T) (*version.Store, *archive.Store, *archive.Archiver) {
	t.Helper()
	front := version.NewStore(block.NewServer(disk.MustNew(disk.Geometry{
		Blocks: 4096, BlockSize: frontBlockSize,
	})), 1)
	backing := block.NewServer(disk.MustNew(disk.Geometry{
		Blocks: 4096, BlockSize: frontBlockSize + archive.FrameOverhead,
	}))
	st, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	return front, st, &archive.Archiver{Front: front, Store: st, Acct: 1}
}

// buildFile creates a three-level file tree in the front tier:
//
//	root ── 0: "child0"
//	     ── 1: "child1" ── 0: "gc0"
//	     │               └ 1: "gc1"
//	     └ 2: "child2"
func buildFile(t *testing.T, s *version.Store, id uint32, root string) *version.Tree {
	t.Helper()
	f := capability.NewFactory(capability.NewPort().Public())
	tr, err := version.CreateFile(s, f.Mint(id), f.Mint(id+1), []byte(root))
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

var filePaths = []page.Path{page.RootPath, {0}, {1}, {1, 0}, {1, 1}, {2}}

// TestDemoteRoundTrip demotes a version and reads it back, byte for
// byte, through a version tree rooted in the archive.
func TestDemoteRoundTrip(t *testing.T) {
	front, st, a := newTier(t)
	tr := buildFile(t, front, 1, "rootdata")

	e, wrote, err := a.Demote(7, tr.Root)
	if err != nil || !wrote {
		t.Fatalf("demote: wrote=%v err=%v", wrote, err)
	}
	if e.Object != 7 || e.Seq != 1 {
		t.Fatalf("entry = %+v", e)
	}

	// Snapshots are read the way the server reads them: PeekPage, which
	// never writes access flags back — the archive would refuse.
	snap := &version.Tree{St: version.NewStore(st, 1), Root: e.Root}
	for _, p := range filePaths {
		want, wantRefs, err := tr.ReadPage(p)
		if err != nil {
			t.Fatalf("front %v: %v", p, err)
		}
		pg, err := snap.PeekPage(p)
		if err != nil {
			t.Fatalf("snapshot %v: %v", p, err)
		}
		if !bytes.Equal(pg.Data, want) || len(pg.Refs) != wantRefs {
			t.Fatalf("snapshot %v: %q/%d, want %q/%d", p, pg.Data, len(pg.Refs), want, wantRefs)
		}
	}
	if err := archive.VerifySnapshot(st, 1, e); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Demoting the same version again is a pure dedup pass: no new log
	// entry, the existing one answers.
	e2, wrote2, err := a.Demote(7, tr.Root)
	if err != nil || wrote2 {
		t.Fatalf("re-demote: wrote=%v err=%v", wrote2, err)
	}
	if e2 != e {
		t.Fatalf("re-demote entry %+v, want %+v", e2, e)
	}
	as := a.Stats()
	if as.Demotes != 1 || as.Skipped != 1 {
		t.Fatalf("archiver stats = %+v", as)
	}
	if as.Deduped < uint64(len(filePaths)) {
		t.Fatalf("re-demote deduped %d pages, want all %d", as.Deduped, len(filePaths))
	}
}

// TestDemoteDedupAcrossFiles archives two files with identical content
// under different capabilities: every data page must be shared, only
// the roots (which carry the capabilities) may differ.
func TestDemoteDedupAcrossFiles(t *testing.T) {
	front, st, a := newTier(t)
	tr1 := buildFile(t, front, 1, "same root text")
	tr2 := buildFile(t, front, 10, "same root text")

	e1, _, err := a.Demote(1, tr1.Root)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats().Stored
	e2, _, err := a.Demote(2, tr2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Root == e2.Root {
		t.Fatal("distinct capabilities produced one root")
	}
	// Only the root page (and its snapshot record) can be new: every
	// page below it dedups onto the first file's blocks.
	if grew := st.Stats().Stored - before; grew > 2 {
		t.Fatalf("second file stored %d new blocks, want <= 2", grew)
	}
	r1, err := version.NewStore(st, 1).ReadPage(e1.Root)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := version.NewStore(st, 1).ReadPage(e2.Root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Refs {
		if r1.Refs[i].Block != r2.Refs[i].Block {
			t.Fatalf("child %d not shared: %d vs %d", i, r1.Refs[i].Block, r2.Refs[i].Block)
		}
	}
	if st.Stats().DedupHits == 0 {
		t.Fatal("no dedup hits recorded")
	}
}

// TestVerifySnapshotDetectsTampering exercises both integrity layers:
// a flipped payload byte fails the per-block score check, and swapping
// in a different — internally consistent — block fails the Merkle
// snapshot score even though every block reads cleanly.
func TestVerifySnapshotDetectsTampering(t *testing.T) {
	front, st, a := newTier(t)
	tr := buildFile(t, front, 1, "rootdata")
	e, _, err := a.Demote(7, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	root, err := version.NewStore(st, 1).ReadPage(e.Root)
	if err != nil {
		t.Fatal(err)
	}
	leaf := root.Refs[0].Block
	other := root.Refs[2].Block

	t.Run("flipped-byte", func(t *testing.T) {
		raw, err := st.Backing().Read(1, leaf)
		if err != nil {
			t.Fatal(err)
		}
		damaged := append([]byte(nil), raw...)
		damaged[archive.FrameOverhead] ^= 0x40
		if err := st.Backing().Write(1, leaf, damaged); err != nil {
			t.Fatal(err)
		}
		if err := archive.VerifySnapshot(st, 1, e); !errors.Is(err, block.ErrCorrupt) {
			t.Fatalf("verify after byte flip: %v, want ErrCorrupt", err)
		}
		if err := st.Backing().Write(1, leaf, raw); err != nil {
			t.Fatal(err)
		}
		if err := archive.VerifySnapshot(st, 1, e); err != nil {
			t.Fatalf("verify after repair: %v", err)
		}
	})

	t.Run("swapped-block", func(t *testing.T) {
		raw, err := st.Backing().Read(1, leaf)
		if err != nil {
			t.Fatal(err)
		}
		swapped, err := st.Backing().Read(1, other)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Backing().Write(1, leaf, swapped); err != nil {
			t.Fatal(err)
		}
		// The block itself reads cleanly — its frame is internally
		// consistent — so only the Merkle layer can catch the swap.
		if _, err := st.Read(1, leaf); err != nil {
			t.Fatalf("swapped block does not read cleanly: %v", err)
		}
		if err := archive.VerifySnapshot(st, 1, e); !errors.Is(err, block.ErrCorrupt) {
			t.Fatalf("verify after swap: %v, want ErrCorrupt", err)
		}
		if err := st.Backing().Write(1, leaf, raw); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotSurvivesReopen reopens the archive over the same backing
// store — a full restart — and requires the demoted version to remain
// listed, verifiable, and byte-identical.
func TestSnapshotSurvivesReopen(t *testing.T) {
	front, st, a := newTier(t)
	tr := buildFile(t, front, 1, "rootdata")
	e, _, err := a.Demote(7, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := archive.New(st.Backing(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snaps := st2.Snapshots(7)
	if len(snaps) != 1 || snaps[0] != e {
		t.Fatalf("snapshots after reopen: %+v, want [%+v]", snaps, e)
	}
	if err := archive.VerifySnapshot(st2, 1, e); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
	snap := &version.Tree{St: version.NewStore(st2, 1), Root: e.Root}
	for _, p := range filePaths {
		want, _, err := tr.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := snap.PeekPage(p)
		if err != nil {
			t.Fatalf("snapshot %v after reopen: %v", p, err)
		}
		if !bytes.Equal(pg.Data, want) {
			t.Fatalf("snapshot %v after reopen: %q, want %q", p, pg.Data, want)
		}
	}
}

// TestDemoteAcrossLiveProcesses runs two archiver processes (two Store
// facades over one backing medium) against the same front tier — the
// shared-archive deployment the demote path must survive. A sibling
// that demotes a root the first process already archived must converge
// on the existing snapshot (no duplicate record, no stale Seq), because
// Demote refreshes its index from the backing store first.
func TestDemoteAcrossLiveProcesses(t *testing.T) {
	front, stA, a := newTier(t)
	stB, err := archive.New(stA.Backing(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &archive.Archiver{Front: front, Store: stB, Acct: 1}

	tr1 := buildFile(t, front, 1, "v1")
	eA, wrote, err := a.Demote(7, tr1.Root)
	if err != nil || !wrote {
		t.Fatalf("A demote: wrote=%v err=%v", wrote, err)
	}

	// B opened before A's demote; its stale index would have assigned
	// Seq 1 again. The refresh inside Demote must surface A's snapshot.
	eB, wrote, err := b.Demote(7, tr1.Root)
	if err != nil || wrote {
		t.Fatalf("B re-demote: wrote=%v err=%v", wrote, err)
	}
	if eB != eA {
		t.Fatalf("B converged on %+v, want A's %+v", eB, eA)
	}
	if snaps := stB.Snapshots(7); len(snaps) != 1 {
		t.Fatalf("B sees %d snapshots, want 1", len(snaps))
	}

	// A fresh version demoted by B continues A's sequence, and A in
	// turn converges on B's record.
	tr2 := buildFile(t, front, 20, "v2")
	eB2, wrote, err := b.Demote(7, tr2.Root)
	if err != nil || !wrote {
		t.Fatalf("B demote v2: wrote=%v err=%v", wrote, err)
	}
	if eB2.Seq != 2 {
		t.Fatalf("B assigned seq %d, want 2", eB2.Seq)
	}
	eA2, wrote, err := a.Demote(7, tr2.Root)
	if err != nil || wrote {
		t.Fatalf("A re-demote v2: wrote=%v err=%v", wrote, err)
	}
	if eA2 != eB2 {
		t.Fatalf("A converged on %+v, want B's %+v", eA2, eB2)
	}
	for _, st := range []*archive.Store{stA, stB} {
		if snaps := st.Snapshots(7); len(snaps) != 2 {
			t.Fatalf("%d snapshots, want 2", len(snaps))
		}
		for _, e := range st.Snapshots(7) {
			if err := archive.VerifySnapshot(st, 1, e); err != nil {
				t.Fatalf("verify seq %d: %v", e.Seq, err)
			}
		}
	}
}
