package archive

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

// refWalkArchive is the depth-first Tree.WalkArchive the visitor
// replaced, kept as the reference.
func refWalkArchive(t *version.Tree, emit func(page.Path, *page.Page) (block.Num, error)) (block.Num, error) {
	root, err := t.St.ReadPage(t.Root)
	if err != nil {
		return block.NilNum, err
	}
	return refWalkArchiveFrom(t, page.RootPath, root, emit)
}

func refWalkArchiveFrom(t *version.Tree, p page.Path, pg *page.Page, emit func(page.Path, *page.Page) (block.Num, error)) (block.Num, error) {
	canon := pg.Clone()
	canon.CommitRef = block.NilNum
	canon.TopLock = 0
	canon.InnerLock = 0
	canon.ParentRef = block.NilNum
	canon.RootFlags = 0
	canon.BaseRef = block.NilNum
	var idxs []int
	var ns []block.Num
	for i, r := range pg.Refs {
		canon.Refs[i] = page.Ref{}
		if r.IsNil() {
			continue
		}
		idxs = append(idxs, i)
		ns = append(ns, r.Block)
	}
	if len(ns) > 0 {
		children, err := t.St.ReadPages(ns)
		if err != nil {
			return block.NilNum, err
		}
		for k, child := range children {
			i := idxs[k]
			n, err := refWalkArchiveFrom(t, p.Child(i), child, emit)
			if err != nil {
				return block.NilNum, err
			}
			canon.Refs[i] = page.Ref{Block: n}
		}
	}
	return emit(p, canon)
}

// refDemoteScore is Demote's scoring over refWalkArchive: the snapshot
// score of the version rooted at root, with its pages stored in a.Store.
func refDemoteScore(a *Archiver, root block.Num) (Score, error) {
	vscores := make(map[block.Num]Score)
	archRoot, err := refWalkArchive(&version.Tree{St: a.Front, Root: root}, func(p page.Path, canon *page.Page) (block.Num, error) {
		payload, err := canon.Encode(a.Store.BlockSize())
		if err != nil {
			return block.NilNum, err
		}
		payload = a.Store.pad(payload)
		n, _, err := a.Store.Put(a.Acct, kindOf(p, canon), payload)
		if err != nil {
			return block.NilNum, err
		}
		children := make([]Score, len(canon.Refs))
		for i, r := range canon.Refs {
			if r.IsNil() {
				children[i] = zeroScore
				continue
			}
			children[i] = vscores[r.Block]
		}
		vscores[n] = snapScore(payload, children)
		return n, nil
	})
	if err != nil {
		return Score{}, err
	}
	return vscores[archRoot], nil
}

// newArchiver is an archiver over front with an empty archive store.
func newArchiver(t *testing.T, front *version.Store) *Archiver {
	t.Helper()
	st, err := New(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024 + FrameOverhead})), 1)
	if err != nil {
		t.Fatal(err)
	}
	return &Archiver{Front: front, Store: st, Acct: 1}
}

// TestDemoteScoreMatchesReference: demoting every version of random
// histories — sub-files, holes and all — gives the snapshot score the
// depth-first walk gave, and fails where it failed.
func TestDemoteScoreMatchesReference(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 24; seed++ {
		fs := treetest.NewStore()
		front := version.NewStore(fs, 1)
		rng := rand.New(rand.NewSource(seed))
		chain, err := treetest.History(front, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make(map[block.Num]bool)
		for _, r := range chain {
			bs, err := (&version.Tree{St: front, Root: r}).Blocks()
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(blocks, bs)
		}
		for _, spoil := range []bool{false, true} {
			if spoil {
				fs.Spoil(rng, maps.Clone(blocks), 20)
			}
			for _, r := range chain {
				// Each into an empty archive: archive block numbers are
				// handed out in order and appear in the pointer pages.
				want, wantErr := refDemoteScore(newArchiver(t, front), r)
				e, _, gotErr := newArchiver(t, front).Demote(1, r)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d root %d: err %v, reference err %v", seed, r, gotErr, wantErr)
				}
				if wantErr == nil {
					if e.Score != want {
						t.Fatalf("seed %d root %d: score %x, reference %x", seed, r, e.Score, want)
					}
					compared++
				}
			}
		}
	}
	t.Logf("%d snapshot scores compared", compared)
}
