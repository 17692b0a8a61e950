package file

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

// refHasSubFiles is the recursive HasSubFiles the visitor replaced, kept
// as the reference.
func refHasSubFiles(st *version.Store, root block.Num) (bool, error) {
	vp, err := st.ReadPage(root)
	if err != nil {
		return false, err
	}
	var rec func(pg *page.Page) (bool, error)
	rec = func(pg *page.Page) (bool, error) {
		for _, r := range pg.Refs {
			if r.IsNil() {
				continue
			}
			child, err := st.ReadPage(r.Block)
			if err != nil {
				return false, err
			}
			if child.IsVersion {
				return true, nil
			}
			if found, err := rec(child); err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	return rec(vp)
}

// TestHasSubFilesMatchesReference: over every version of random
// histories — and every page of them taken as a root — the visit answers
// what the recursive search answered. Where an unreadable page made the
// reference fail, the visit fails too or finds a sub-file elsewhere.
func TestHasSubFilesMatchesReference(t *testing.T) {
	answers := map[bool]int{}
	for seed := int64(1); seed <= 24; seed++ {
		fs := treetest.NewStore()
		st := version.NewStore(fs, 1)
		rng := rand.New(rand.NewSource(seed))
		chain, err := treetest.History(st, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		all := make(map[block.Num]bool)
		for _, r := range chain {
			bs, err := (&version.Tree{St: st, Root: r}).Blocks()
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(all, bs)
		}
		for _, spoil := range []bool{false, true} {
			if spoil {
				fs.Spoil(rng, maps.Clone(all), 20)
			}
			for _, r := range treetest.Sorted(all) {
				want, wantErr := refHasSubFiles(st, r)
				got, gotErr := HasSubFiles(st, r)
				switch {
				case wantErr == nil && (gotErr != nil || got != want):
					t.Fatalf("seed %d root %d: %v, %v; reference %v", seed, r, got, gotErr, want)
				case wantErr != nil && gotErr == nil && !got:
					t.Fatalf("seed %d root %d: no sub-file and no error; the reference failed: %v", seed, r, wantErr)
				case wantErr == nil:
					answers[want]++
				}
			}
		}
	}
	t.Logf("answers compared: %v", answers)
}
