package server

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/page"
	"repro/internal/treetest"
	"repro/internal/version"
)

// refCollectWriteSet is the recursive collectWriteSet the visitor
// replaced, kept as the reference.
func refCollectWriteSet(st *version.Store, pg *page.Page, at page.Path, flags page.Flags, iv *Invalidation) {
	if flags&page.FlagW != 0 {
		iv.Exact = append(iv.Exact, at.Clone())
	}
	if flags&page.FlagM != 0 {
		iv.Prefixes = append(iv.Prefixes, at.Clone())
		return
	}
	if flags&page.FlagS == 0 {
		return
	}
	for i, r := range pg.Refs {
		if r.IsNil() || !r.Flags.Accessed() {
			continue
		}
		child, err := st.ReadPage(r.Block)
		if err != nil {
			iv.Prefixes = append(iv.Prefixes, at.Child(i))
			continue
		}
		if child.IsVersion {
			refCollectWriteSet(st, child, at.Child(i), child.RootFlags, iv)
			continue
		}
		refCollectWriteSet(st, child, at.Child(i), r.Flags, iv)
	}
}

// refWriteSets is the reference's answer for a committed chain: each
// version's write set in turn, everything when a version page cannot be
// read.
func refWriteSets(st *version.Store, chain []block.Num) Invalidation {
	var iv Invalidation
	for _, r := range chain {
		vp, err := st.ReadPage(r)
		if err != nil || !vp.IsVersion {
			return Invalidation{All: true}
		}
		refCollectWriteSet(st, vp, page.RootPath, vp.RootFlags, &iv)
	}
	return iv
}

// pathSet is a list of paths as a set.
func pathSet(ps []page.Path) map[string]bool {
	out := make(map[string]bool, len(ps))
	for _, p := range ps {
		out[p.String()] = true
	}
	return out
}

// TestCollectWriteSetMatchesReference: for every committed version of
// random histories with unreadable blocks, and for the whole chain in
// one visit, the invalidations are the reference's, as sets.
func TestCollectWriteSetMatchesReference(t *testing.T) {
	exact, prefixes, all := 0, 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		fs := treetest.NewStore()
		st := version.NewStore(fs, 1)
		rng := rand.New(rand.NewSource(seed))
		chain, err := treetest.History(st, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make(map[block.Num]bool)
		for _, r := range chain {
			bs, err := (&version.Tree{St: st, Root: r}).Blocks()
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(blocks, bs)
		}
		check := func(what string, roots []block.Num) {
			t.Helper()
			want := refWriteSets(st, roots)
			got := collectWriteSet(st, roots)
			if got.All != want.All || !maps.Equal(pathSet(got.Exact), pathSet(want.Exact)) ||
				!maps.Equal(pathSet(got.Prefixes), pathSet(want.Prefixes)) {
				t.Fatalf("seed %d %s: %+v, reference %+v", seed, what, got, want)
			}
			exact += len(want.Exact)
			prefixes += len(want.Prefixes)
			if want.All {
				all++
			}
		}
		for _, spoil := range []bool{false, true} {
			if spoil {
				fs.Spoil(rng, maps.Clone(blocks), 20)
			}
			for i := 1; i < len(chain); i++ {
				check("version", chain[i:i+1])
			}
			check("chain", chain[1:])
		}
	}
	t.Logf("compared %d exact paths, %d prefixes, %d whole-cache answers", exact, prefixes, all)
}
