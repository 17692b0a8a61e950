package version

import (
	"cmp"
	"slices"

	"repro/internal/block"
	"repro/internal/page"
)

// WalkArchive walks this version's page tree bottom-up — children
// before parents — presenting every page in canonical archival form:
// the fields that are volatile front-tier state (locks, the commit
// reference, the parent and base links, and all CRWSM flags) are
// cleared, so two versions that carry the same client data encode to
// the same bytes and collapse in a content-addressed store. emit
// receives each canonical page with its reference table already
// rewritten to the block numbers emit assigned to the children
// (holes stay holes), and returns the number the archival store
// assigned to this page. WalkArchive returns the root's number.
//
// Committed versions are immutable, so the walk needs no access
// tracking: one Visit reads the tree a level at a time. The pages are
// then emitted depth-first, children in index order before their parent
// — the order the archive's numbers, and so the pointer pages' bytes
// and the snapshot score, depend on.
func (t *Tree) WalkArchive(emit func(p page.Path, canonical *page.Page) (block.Num, error)) (block.Num, error) {
	var nodes []*Node
	var paths []page.Path
	err := t.St.Visit([]block.Num{t.Root}, func(n *Node) (Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		nodes = append(nodes, n)
		paths = append(paths, n.Path())
		return All, nil
	})
	if err != nil {
		return block.NilNum, err
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return postOrder(paths[i], paths[j]) })
	var num block.Num
	for _, i := range order {
		n := nodes[i]
		// The page is this walk's own decoded copy, and its children,
		// emitted already, have put their numbers in its table.
		canon := n.Page
		canon.CommitRef = block.NilNum
		canon.TopLock = 0
		canon.InnerLock = 0
		canon.ParentRef = block.NilNum
		canon.RootFlags = 0
		canon.BaseRef = block.NilNum
		for j, r := range canon.Refs {
			if r.IsNil() {
				canon.Refs[j] = page.Ref{}
			}
		}
		if num, err = emit(paths[i], canon); err != nil {
			return block.NilNum, err
		}
		if n.Parent != nil {
			n.Parent.Page.Refs[n.Index] = page.Ref{Block: num}
		}
	}
	return num, nil
}

// postOrder compares two paths of one tree in depth-first post-order:
// by the first index where they differ, and a page after its
// descendants.
func postOrder(a, b page.Path) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return cmp.Compare(len(b), len(a))
}
