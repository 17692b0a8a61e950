package version

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/page"
)

// ErrStop, returned by a Visit callback, ends the walk early; Visit then
// returns nil.
var ErrStop = errors.New("version: stop the visit")

// Node is one page a Visit reaches.
type Node struct {
	// Parent is the page whose reference reached this one, nil for a
	// root; Index is that reference's position in Parent's table.
	Parent *Node
	Index  int
	// Ref is the reference that reached the page. A root's is synthetic:
	// its block, and the page's RootFlags once it is read.
	Ref page.Ref
	// Page is the decoded page, nil when Err says why it could not be
	// read or decoded.
	Page *page.Page
	Err  error
}

// Path is the node's path from its root.
func (n *Node) Path() page.Path {
	if n.Parent == nil {
		return page.RootPath
	}
	return n.Parent.Path().Child(n.Index)
}

// Follow picks the references of a visited page whose pages Visit goes
// on to read. Visit calls it once per non-nil reference; holes are never
// followed.
type Follow func(r page.Ref) bool

// The two common rules: follow every reference, or only the ones this
// version accessed (C set: the pages it copied or created).
var (
	All      Follow = func(page.Ref) bool { return true }
	Accessed Follow = func(r page.Ref) bool { return r.Flags.Accessed() }
)

// Visit walks the page trees under roots breadth-first and is the one
// whole-tree walk of the service. It reads each level — the roots, then
// every followed child of the level before — with one multi-block read,
// so trees of depth d cost d+1 reads however many roots and pages they
// hold. It calls visit for every page it reaches, parents before
// children; visit returns which of the page's references to follow (nil:
// none), or an error that ends the walk and is returned, or ErrStop.
//
// A page that cannot be read or decoded reaches visit with Err set and
// no Page: a failed level read names its block (block.MultiIndex), and
// the rest of the level is read again, so one bad page hides none of its
// siblings. Visit draws no sub-file boundary itself; a caller that must
// not enter embedded sub-files stops at pages with IsVersion set. A
// caller that needs children before parents keeps the nodes and makes
// its own pass over them. Visit records no accesses: it
// serves the collector, the validators and the recovery paths, never a
// client read.
func (s *Store) Visit(roots []block.Num, visit func(n *Node) (Follow, error)) error {
	level := make([]*Node, len(roots))
	for i, r := range roots {
		level[i] = &Node{Ref: page.Ref{Block: r}}
	}
	for len(level) > 0 {
		s.readLevel(level)
		var next []*Node
		for _, n := range level {
			if n.Parent == nil && n.Page != nil {
				n.Ref.Flags = n.Page.RootFlags
			}
			follow, err := visit(n)
			if errors.Is(err, ErrStop) {
				return nil
			}
			if err != nil {
				return err
			}
			if follow == nil || n.Page == nil {
				continue
			}
			for i, r := range n.Page.Refs {
				if !r.IsNil() && follow(r) {
					next = append(next, &Node{Parent: n, Index: i, Ref: r})
				}
			}
		}
		level = next
	}
	return nil
}

// readLevel fills in the pages of one level from one multi-block read. A
// read that fails at one block gives that node the error and reads the
// rest again; a failure naming no block fails every node left.
func (s *Store) readLevel(level []*Node) {
	for len(level) > 0 {
		ns := make([]block.Num, len(level))
		for i, n := range level {
			ns[i] = n.Ref.Block
		}
		raws, err := block.ReadMulti(s.Blocks, s.Acct, ns)
		if err == nil {
			for i, n := range level {
				if n.Page, err = page.Decode(raws[i]); err != nil {
					n.Err = fmt.Errorf("version: block %d: %w", ns[i], err)
				}
			}
			return
		}
		i := block.MultiIndex(err, -1)
		if i < 0 || i >= len(level) {
			for j, n := range level {
				n.Err = fmt.Errorf("version: read block %d: %w", ns[j], err)
			}
			return
		}
		level[i].Err = fmt.Errorf("version: read block %d: %w", ns[i], err)
		level = append(level[:i:i], level[i+1:]...)
	}
}

// Any reports whether a page under roots satisfies match, searching
// them with Visit through follow. A page found anywhere answers true even
// when some other page cannot be read; an unreadable page fails the
// search only when no page matches.
func (s *Store) Any(roots []block.Num, follow Follow, match func(n *Node) bool) (bool, error) {
	found := false
	var failed error
	err := s.Visit(roots, func(n *Node) (Follow, error) {
		switch {
		case n.Err != nil:
			failed = n.Err
			return nil, nil
		case match(n):
			found = true
			return nil, ErrStop
		}
		return follow, nil
	})
	if err == nil && !found {
		err = failed
	}
	return found, err
}

// Walk calls fn for every page of this version's tree in level order,
// with its path and the reference that points at it (a synthetic
// reference carrying RootFlags for the root). Holes are skipped;
// embedded sub-files are entered. A page that cannot be read ends the
// walk with its error.
func (t *Tree) Walk(fn func(p page.Path, ref page.Ref, pg *page.Page) error) error {
	return t.St.Visit([]block.Num{t.Root}, func(n *Node) (Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		return All, fn(n.Path(), n.Ref, n.Page)
	})
}

// Blocks returns the set of blocks reachable from this version's root,
// including the root itself.
func (t *Tree) Blocks() (map[block.Num]bool, error) {
	return t.blocks(All)
}

// PrivateBlocks returns the blocks this version copied or created (C set
// on their references, or created fresh), i.e. the blocks not shared with
// the base version. The root is always private.
func (t *Tree) PrivateBlocks() (map[block.Num]bool, error) {
	return t.blocks(Accessed)
}

// blocks collects the root and every block reached through follow.
func (t *Tree) blocks(follow Follow) (map[block.Num]bool, error) {
	out := make(map[block.Num]bool)
	err := t.St.Visit([]block.Num{t.Root}, func(n *Node) (Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		out[n.Ref.Block] = true
		return follow, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
