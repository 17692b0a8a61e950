package occ

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

// refSubtreeHasWrites is the recursive subtreeHasWrites the visitor
// replaced, kept as the reference.
func refSubtreeHasWrites(c *Committer, pg *page.Page) (bool, error) {
	for _, r := range pg.Refs {
		if r.IsNil() {
			continue
		}
		if r.Flags.InWriteSet() {
			return true, nil
		}
		if !r.Flags.Accessed() || r.Flags&page.FlagS == 0 {
			continue
		}
		child, err := c.St.ReadPage(r.Block)
		if err != nil {
			return false, err
		}
		has, err := refSubtreeHasWrites(c, child)
		if err != nil || has {
			return has, err
		}
	}
	return false, nil
}

// TestSubtreeHasWritesMatchesReference: for every page of random
// histories, the visit answers what the recursive test answered. Where
// an unreadable page made the reference fail, the visit fails too or
// finds a write elsewhere — a write found anywhere is the answer.
func TestSubtreeHasWritesMatchesReference(t *testing.T) {
	deep, failed := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		fs := treetest.NewStore()
		st := version.NewStore(fs, 1)
		rng := rand.New(rand.NewSource(seed))
		chain, err := treetest.History(st, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCommitter(st)
		var pages []*page.Page
		all := make(map[block.Num]bool)
		for _, r := range chain {
			err := (&version.Tree{St: st, Root: r}).Walk(func(_ page.Path, ref page.Ref, pg *page.Page) error {
				pages = append(pages, pg)
				all[ref.Block] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, spoil := range []bool{false, true} {
			if spoil {
				fs.Spoil(rng, maps.Clone(all), 20)
			}
			for i, pg := range pages {
				want, wantErr := refSubtreeHasWrites(c, pg)
				got, gotErr := c.subtreeHasWrites(pg)
				switch {
				case wantErr == nil && (gotErr != nil || got != want):
					t.Fatalf("seed %d page %d: %v, %v; reference %v", seed, i, got, gotErr, want)
				case wantErr != nil && gotErr == nil && !got:
					t.Fatalf("seed %d page %d: no write and no error; the reference failed: %v", seed, i, wantErr)
				case wantErr != nil:
					failed++
				case want && !hasWrite(pg):
					deep++
				}
			}
		}
	}
	t.Logf("%d answers found below the page's own table, %d reference failures", deep, failed)
}
