package version_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

// The recursive walkers Store.Visit replaced, kept as references.

// refWalk is the depth-first Tree.Walk: each page's children fetched
// with one multi-block read, then walked in index order.
func refWalk(t *version.Tree, fn func(p page.Path, ref page.Ref, pg *page.Page) error) error {
	root, err := t.St.ReadPage(t.Root)
	if err != nil {
		return err
	}
	return refWalkFrom(t, page.RootPath, page.Ref{Block: t.Root, Flags: root.RootFlags}, root, fn)
}

func refWalkFrom(t *version.Tree, p page.Path, ref page.Ref, pg *page.Page, fn func(page.Path, page.Ref, *page.Page) error) error {
	if err := fn(p, ref, pg); err != nil {
		return err
	}
	var idxs []int
	var ns []block.Num
	for i, r := range pg.Refs {
		if r.IsNil() {
			continue
		}
		idxs = append(idxs, i)
		ns = append(ns, r.Block)
	}
	if len(ns) == 0 {
		return nil
	}
	children, err := t.St.ReadPages(ns)
	if err != nil {
		return err
	}
	for k, child := range children {
		i := idxs[k]
		if err := refWalkFrom(t, p.Child(i), pg.Refs[i], child, fn); err != nil {
			return err
		}
	}
	return nil
}

// refBlocks is Tree.Blocks over refWalk.
func refBlocks(t *version.Tree) (map[block.Num]bool, error) {
	out := make(map[block.Num]bool)
	err := refWalk(t, func(_ page.Path, ref page.Ref, _ *page.Page) error {
		out[ref.Block] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// refPrivateBlocks is the recursive Tree.PrivateBlocks.
func refPrivateBlocks(t *version.Tree) (map[block.Num]bool, error) {
	out := map[block.Num]bool{t.Root: true}
	root, err := t.St.ReadPage(t.Root)
	if err != nil {
		return nil, err
	}
	var rec func(pg *page.Page) error
	rec = func(pg *page.Page) error {
		var ns []block.Num
		for _, r := range pg.Refs {
			if r.IsNil() || !r.Flags.Accessed() {
				continue
			}
			out[r.Block] = true
			ns = append(ns, r.Block)
		}
		if len(ns) == 0 {
			return nil
		}
		children, err := t.St.ReadPages(ns)
		if err != nil {
			return err
		}
		for _, child := range children {
			if err := rec(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(root); err != nil {
		return nil, err
	}
	return out, nil
}

// walkLines renders a walk as sorted lines (path, reference, data), so a
// level-order walk compares with a depth-first one.
func walkLines(walk func(func(page.Path, page.Ref, *page.Page) error) error) ([]string, error) {
	var out []string
	err := walk(func(p page.Path, ref page.Ref, pg *page.Page) error {
		out = append(out, fmt.Sprintf("%s %d %s %q %v", p, ref.Block, ref.Flags, pg.Data, pg.IsVersion))
		return nil
	})
	slices.Sort(out)
	return out, err
}

// TestWalkersMatchReference: over random histories with unreadable
// blocks, Walk, Blocks and PrivateBlocks give the answers of the
// recursive walkers they replaced, and fail where those failed.
func TestWalkersMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
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
		roots := append(chain, open.Root)
		all := make(map[block.Num]bool)
		for _, r := range roots {
			bs, err := (&version.Tree{St: st, Root: r}).Blocks()
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(all, bs)
		}
		// Once whole, then with about one block in thirty unreadable.
		failures := 0
		for _, spoil := range []bool{false, true} {
			if spoil {
				fs.Spoil(rng, all, 30)
			}
			for _, r := range roots {
				tr := &version.Tree{St: st, Root: r}
				what := fmt.Sprintf("seed %d root %d", seed, r)
				want, wantErr := walkLines(func(fn func(page.Path, page.Ref, *page.Page) error) error { return refWalk(tr, fn) })
				got, gotErr := walkLines(tr.Walk)
				sameAnswer(t, what+" Walk", wantErr, gotErr)
				if wantErr != nil {
					failures++
				} else if !slices.Equal(got, want) {
					t.Fatalf("%s: Walk visits\n%v\nwant\n%v", what, got, want)
				}
				wantB, wantErr := refBlocks(tr)
				gotB, gotErr := tr.Blocks()
				sameAnswer(t, what+" Blocks", wantErr, gotErr)
				if !maps.Equal(gotB, wantB) {
					t.Fatalf("%s: Blocks %v, want %v", what, treetest.Sorted(gotB), treetest.Sorted(wantB))
				}
				wantP, wantErr := refPrivateBlocks(tr)
				gotP, gotErr := tr.PrivateBlocks()
				sameAnswer(t, what+" PrivateBlocks", wantErr, gotErr)
				if !maps.Equal(gotP, wantP) {
					t.Fatalf("%s: PrivateBlocks %v, want %v", what, treetest.Sorted(gotP), treetest.Sorted(wantP))
				}
			}
		}
		t.Logf("seed %d: %d blocks, %d unreadable, %d of %d spoilt trees fail", seed, len(all), len(fs.Bad), failures, len(roots))
	}
}

// sameAnswer fails unless both walks succeeded or both failed.
func sameAnswer(t *testing.T, what string, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", what, got, want)
	}
}
