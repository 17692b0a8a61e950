// Package version implements version page trees and the copy-on-write
// mechanism of §5.1: the differential file representation in which a new
// version initially shares its entire page tree with the version it was
// based on, duplicating pages only as they are accessed.
//
// The central invariants, straight from the paper:
//
//   - "When a page is written, a new block is allocated for it, leaving
//     the old page intact." The parent's reference is updated, which in
//     turn requires the parent to be private — so the copy "bubbles up
//     from the leaves of the page tree to the root page. The root
//     page — the version page — is the only page that is written in
//     place."
//   - "When a page is first read, the C, R, W, S and M flags it contains
//     for its child pages must be initialised to zero. This requires
//     changing that page. The Amoeba File Service must therefore not only
//     shadow pages that were written, but also pages whose descendants
//     were read."
//   - A page is copied at most once per version; afterwards it is written
//     in place.
//
// Flags for a page live in its parent's reference; the root's own flags
// are kept in the version-page header (RootFlags).
//
// # Contract
//
// The flags this layer maintains are the OCC read/write sets (package
// occ consumes them at commit): R/S record what the update read, W/M
// what it wrote, and the shadow-copy discipline guarantees the flags of
// an uncommitted version live only in that version's private pages —
// committed pages are immutable.
//
// Every page operation — a read, a write or a batch of writes, each
// shape command — is one copy-on-write pass over the union of the paths
// it touches. The pass reads that union one level at a time (the root,
// then one multi-block read per depth), checks every step, shadows in
// memory each page first accessed in this version, lets the operation
// edit its targets, sets the flags, and then writes: every new page —
// shadows and pages the operation creates — in one AllocMulti, every
// changed private page in one WriteMulti. An operation on a path of depth
// d therefore costs at most d+1 reads, one alloc and one write, and one
// that refuses has written nothing. The pass crosses sub-file boundaries
// itself: a path that reaches the version page of an embedded sub-file
// this version has not entered calls the tree's Cross hook, which takes
// the §5.3 inner lock and forks the sub-file, and the fork joins the pass
// as a page created in it. A read may be split in two: Look is the pass's
// reading half alone, and the read's flags go out later with other
// operations' in one Apply, which records reads and writes together; a
// Look that has to cross a boundary records its read at once. Whole-tree
// walks — the collector's, the validators', the recovery paths' — are
// Store.Visit, which reads a level of any number of trees with one
// multi-block read. A Tree is not safe
// for concurrent use; the server serialises operations per version,
// matching the paper's model of a version owned by a single client.
package version

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/page"
)

// Errors of the version layer.
var (
	// ErrHole reports descent through a nil reference.
	ErrHole = errors.New("version: path crosses a hole")
	// ErrNotHole reports RemoveHole/FillHole on a non-nil reference.
	ErrNotHole = errors.New("version: reference is not a hole")
	// ErrBadPath reports a path that does not name a page in the tree.
	ErrBadPath = errors.New("version: bad path")
	// ErrSubFile reports an operation that tried to cross into an
	// embedded sub-file version page with no Cross hook to mediate it
	// (§5.3), or a move between two files of a super-file.
	ErrSubFile = errors.New("version: path crosses a sub-file boundary")
)

// Store provides typed page access over a block store for one account.
// All file servers sharing a file system use the same account so they can
// operate on each other's blocks (the paper's servers jointly manage one
// file system).
type Store struct {
	Blocks block.Store
	Acct   block.Account
}

// NewStore binds a block store and account.
func NewStore(blocks block.Store, acct block.Account) *Store {
	return &Store{Blocks: blocks, Acct: acct}
}

// ReadPage reads and decodes the page in block n.
func (s *Store) ReadPage(n block.Num) (*page.Page, error) {
	if n == block.NilNum {
		return nil, fmt.Errorf("read of nil block: %w", ErrBadPath)
	}
	raw, err := s.Blocks.Read(s.Acct, n)
	if err != nil {
		return nil, fmt.Errorf("version: read block %d: %w", n, err)
	}
	p, err := page.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("version: block %d: %w", n, err)
	}
	return p, nil
}

// WritePage encodes and writes p into block n (in place; the caller must
// own the block in this version).
func (s *Store) WritePage(n block.Num, p *page.Page) error {
	raw, err := p.Encode(s.Blocks.BlockSize())
	if err != nil {
		return fmt.Errorf("version: encode for block %d: %w", n, err)
	}
	if err := s.Blocks.Write(s.Acct, n, raw); err != nil {
		return fmt.Errorf("version: write block %d: %w", n, err)
	}
	return nil
}

// AllocPage allocates a fresh block holding p.
func (s *Store) AllocPage(p *page.Page) (block.Num, error) {
	raw, err := p.Encode(s.Blocks.BlockSize())
	if err != nil {
		return block.NilNum, fmt.Errorf("version: encode: %w", err)
	}
	n, err := s.Blocks.Alloc(s.Acct, raw)
	if err != nil {
		return block.NilNum, fmt.Errorf("version: alloc: %w", err)
	}
	return n, nil
}

// ReadPages reads and decodes many pages in one multi-block operation.
func (s *Store) ReadPages(ns []block.Num) ([]*page.Page, error) {
	for _, n := range ns {
		if n == block.NilNum {
			return nil, fmt.Errorf("read of nil block: %w", ErrBadPath)
		}
	}
	raws, err := block.ReadMulti(s.Blocks, s.Acct, ns)
	if err != nil {
		return nil, fmt.Errorf("version: read %d blocks: %w", len(ns), err)
	}
	out := make([]*page.Page, len(raws))
	for i, raw := range raws {
		p, err := page.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("version: block %d: %w", ns[i], err)
		}
		out[i] = p
	}
	return out, nil
}

// WritePages encodes and writes many pages in place (the caller must
// own every listed block in this version) in one multi-block operation.
func (s *Store) WritePages(ns []block.Num, pgs []*page.Page) error {
	if len(ns) != len(pgs) {
		return fmt.Errorf("version: write %d blocks with %d pages: %w", len(ns), len(pgs), ErrBadPath)
	}
	raws := make([][]byte, len(pgs))
	for i, p := range pgs {
		raw, err := p.Encode(s.Blocks.BlockSize())
		if err != nil {
			return fmt.Errorf("version: encode for block %d: %w", ns[i], err)
		}
		raws[i] = raw
	}
	if err := block.WriteMulti(s.Blocks, s.Acct, ns, raws); err != nil {
		return fmt.Errorf("version: write %d blocks: %w", len(ns), err)
	}
	return nil
}

// Capacity returns the data capacity of a page with nrefs references.
func (s *Store) Capacity(nrefs int, isVersion bool) int {
	return page.Capacity(s.Blocks.BlockSize(), nrefs, isVersion)
}

// Tree is a handle on one version's page tree, rooted at a version page.
type Tree struct {
	St   *Store
	Root block.Num
	// Cross is the §5.3 step of a pass that reaches the version page of
	// an embedded sub-file this version has not accessed: blk is the
	// block the reference names and pg the page read there. It returns
	// the version page of the sub-file's new version inside this one,
	// built by Fork. Nil refuses such a pass with ErrSubFile.
	Cross func(blk block.Num, pg *page.Page) (*page.Page, error)
}

// CreateFile creates the very first version of a new file: a single
// version page holding data, with no base. This is the paper's cheap path
// for simple applications: "Pages of 32K bytes can be written. Often, one
// such page is large enough to contain a whole file."
func CreateFile(s *Store, fileCap, verCap capability.Capability, data []byte) (*Tree, error) {
	vp := &page.Page{
		IsVersion:  true,
		FileCap:    fileCap,
		VersionCap: verCap,
		RootFlags:  page.Flags(0).Set(page.FlagW),
		Data:       append([]byte(nil), data...),
	}
	root, err := s.AllocPage(vp)
	if err != nil {
		return nil, err
	}
	return &Tree{St: s, Root: root}, nil
}

// CreateVersion creates a new uncommitted version based on the committed
// version whose version page is in block base: it reads the base, forks
// it and allocates the fork.
func CreateVersion(s *Store, base block.Num, verCap capability.Capability) (*Tree, error) {
	bp, err := s.ReadPage(base)
	if err != nil {
		return nil, err
	}
	vp, err := Fork(base, bp, verCap)
	if err != nil {
		return nil, err
	}
	root, err := s.AllocPage(vp)
	if err != nil {
		return nil, err
	}
	return &Tree{St: s, Root: root}, nil
}

// Fork builds in memory the version page of a new version based on bp,
// the committed version page in block base. The new version shares the
// base's page tree: same reference table with all access flags cleared,
// same data. "When a new version is created, it behaves as if it were a
// copy of the current version."
func Fork(base block.Num, bp *page.Page, verCap capability.Capability) (*page.Page, error) {
	if !bp.IsVersion {
		return nil, fmt.Errorf("version: block %d is not a version page: %w", base, ErrBadPath)
	}
	return &page.Page{
		IsVersion:  true,
		FileCap:    bp.FileCap,
		VersionCap: verCap,
		ParentRef:  bp.ParentRef,
		BaseRef:    base,
		RootFlags:  page.FlagC, // the root is always copied
		Refs:       clearRefFlags(bp.Refs),
		Data:       append([]byte(nil), bp.Data...),
	}, nil
}

// clearRefFlags copies a reference table with all access flags zeroed:
// the new version shares every subtree with its base.
func clearRefFlags(refs []page.Ref) []page.Ref {
	out := make([]page.Ref, len(refs))
	for i, r := range refs {
		out[i] = page.Ref{Block: r.Block}
	}
	return out
}

// VersionPage reads the tree's root (version) page.
func (t *Tree) VersionPage() (*page.Page, error) { return t.St.ReadPage(t.Root) }

// node is one page on the union of a pass's root-to-target chains, or a
// page the pass creates.
type node struct {
	blk    block.Num // NilNum for a created page until the write
	pg     *page.Page
	parent *node
	idx    int // index of this page's reference in parent
	kids   map[int]*node
	// fresh marks a page this version did not own before the pass: a
	// shadow of a shared page, or a created one. Fresh pages go out in
	// the pass's one multi-block alloc.
	fresh bool
	// bits are the flags the operation records on this page; dirty marks
	// a private page to rewrite in place.
	bits  page.Flags
	dirty bool
}

// home is the version page n belongs to: n itself if it is one, else the
// nearest one above it.
func (n *node) home() *node {
	for n.parent != nil && !n.pg.IsVersion {
		n = n.parent
	}
	return n
}

// pass is one copy-on-write operation: the §5.1 shadowing rule applied to
// the union of the paths the operation touches, in two phases. begin
// reads and checks; the operation then edits its targets in memory; write
// sets the flags and writes everything out. Nothing reaches the block
// store before write, so an operation that refuses changes no block.
type pass struct {
	t     *Tree
	nodes []*node // parents before children
	at    []*node // at[i]: the page at the operation's i-th path
	// crossed reports that begin called the Cross hook.
	crossed bool
}

// begin reads the union of the root-to-target chains of ps level by level
// — the root, then one multi-block read per depth — and checks every
// step: ErrBadPath for an index outside a table, ErrHole for a nil
// reference. Every page first accessed in this version becomes its own
// shadow in memory: the decoded copy, its child flags cleared and its
// base recorded. A sub-file's version page first accessed here is
// replaced by the fork the Cross hook returns instead, and the reference
// to it marked copied (C); the enclosing pages record only a search.
// With oneFile set, a version page that not every path reaches refuses
// the pass with ErrSubFile before the hook runs, so every target belongs
// to one file and a refused operation has taken no lock.
func (t *Tree) begin(ps []page.Path, oneFile bool) (*pass, error) {
	rootPg, err := t.St.ReadPage(t.Root)
	if err != nil {
		return nil, err
	}
	root := &node{blk: t.Root, pg: rootPg}
	x := &pass{t: t, nodes: []*node{root}, at: make([]*node, len(ps))}
	for i := range x.at {
		x.at[i] = root
	}
	for depth := 0; ; depth++ {
		var level []*node
		var ns []block.Num
		var first []int // first[k]: a path through level[k], for errors
		for i, p := range ps {
			if depth >= len(p) {
				continue
			}
			parent, idx := x.at[i], p[depth]
			if child := parent.kids[idx]; child != nil {
				x.at[i] = child
				continue
			}
			if idx < 0 || idx >= len(parent.pg.Refs) {
				return nil, fmt.Errorf("version: %s index %d of %d at depth %d: %w",
					p, idx, len(parent.pg.Refs), depth, ErrBadPath)
			}
			ref := parent.pg.Refs[idx]
			if ref.IsNil() {
				return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrHole)
			}
			// Below a page first accessed here the base's flags are
			// meaningless (its copy starts with a cleared table), so
			// every deeper page is a first access too.
			child := &node{blk: ref.Block, parent: parent, idx: idx,
				fresh: parent.fresh || !ref.Flags.Accessed()}
			if parent.kids == nil {
				parent.kids = make(map[int]*node)
			}
			parent.kids[idx] = child
			x.at[i] = child
			level = append(level, child)
			ns = append(ns, ref.Block)
			first = append(first, i)
		}
		if len(level) == 0 {
			return x, nil
		}
		pgs, err := t.St.ReadPages(ns)
		if err != nil {
			return nil, err
		}
		for k, n := range level {
			n.pg = pgs[k]
			if oneFile && n.pg.IsVersion && slices.ContainsFunc(x.at, func(a *node) bool { return a != n }) {
				return nil, fmt.Errorf("version: paths %v do not all enter the sub-file at depth %d: %w", ps, depth, ErrSubFile)
			}
			switch {
			case !n.fresh:
			case !n.pg.IsVersion:
				n.pg.Refs = clearRefFlags(n.pg.Refs)
				n.pg.BaseRef = n.blk
			case t.Cross == nil:
				return nil, fmt.Errorf("version: %s at depth %d: %w", ps[first[k]], depth, ErrSubFile)
			default:
				if n.pg, err = t.Cross(n.blk, n.pg); err != nil {
					return nil, err
				}
				x.crossed = true
				ref := &n.parent.pg.Refs[n.idx]
				ref.Flags = ref.Flags.Set(page.FlagC)
			}
		}
		x.nodes = append(x.nodes, level...)
	}
}

// create adds pg as a page the pass creates, referenced from index idx of
// parent's table. The caller puts a reference with the right flags there;
// write fills in its block.
func (x *pass) create(parent *node, idx int, pg *page.Page) *node {
	n := &node{pg: pg, parent: parent, idx: idx, fresh: true}
	x.nodes = append(x.nodes, n)
	return n
}

// write records the accesses — S on every page above a target, each
// page's own bits — and writes the pass out: every fresh page, with its
// final contents and flags, in one multi-block alloc, then every changed
// private page, the parents patched to point at fresh pages included, in
// one multi-block write. A fresh version page gets its enclosing version
// page as parent reference, patched like a reference when that page is
// fresh too. A shadow's references to deeper fresh pages still name the
// base's pages (or nothing) until the write patches them, so every
// allocated block is a valid page at every instant; fresh pages orphaned
// by a failed write fall to the garbage collector, like an aborted
// version's pages.
func (x *pass) write() error {
	for _, n := range x.nodes {
		bits := n.bits
		if len(n.kids) > 0 {
			bits |= page.FlagS
		}
		// A page's flags live in its parent's reference; a version page's
		// — the root's or a sub-file's — in its own header.
		flags, holder := &n.pg.RootFlags, n
		if n.parent != nil && !n.pg.IsVersion {
			flags, holder = &n.parent.pg.Refs[n.idx].Flags, n.parent
		}
		if f := flags.Set(bits); f != *flags {
			*flags = f
			holder.dirty = true
		}
	}
	bs := x.t.St.Blocks.BlockSize()
	var fresh []*node
	var raws [][]byte
	for _, n := range x.nodes {
		if !n.fresh {
			continue
		}
		if n.pg.IsVersion {
			if h := n.parent.home(); !h.fresh {
				n.pg.ParentRef = h.blk
			}
		}
		raw, err := n.pg.Encode(bs)
		if err != nil {
			return fmt.Errorf("version: encode a page of the pass: %w", err)
		}
		fresh = append(fresh, n)
		raws = append(raws, raw)
	}
	if len(fresh) > 0 {
		blks, err := block.AllocMulti(x.t.St.Blocks, x.t.St.Acct, raws)
		if err != nil {
			return fmt.Errorf("version: alloc %d pages: %w", len(fresh), err)
		}
		for k, n := range fresh {
			n.blk = blks[k]
			n.dirty = false // its contents went out with the alloc
		}
		for _, n := range fresh {
			n.parent.pg.Refs[n.idx].Block = n.blk
			n.parent.dirty = true
			if n.pg.IsVersion {
				if h := n.parent.home(); h.fresh {
					n.pg.ParentRef, n.dirty = h.blk, true
				}
			}
		}
	}
	var ns []block.Num
	var pgs []*page.Page
	for _, n := range x.nodes {
		if n.dirty {
			ns = append(ns, n.blk)
			pgs = append(pgs, n.pg)
		}
	}
	if len(ns) == 0 {
		return nil
	}
	return x.t.St.WritePages(ns, pgs)
}

// edit is the pass of a one-path operation that changes the page at p:
// fn edits it in memory (and may refuse, writing nothing), the page must
// still fit its block, and bits are recorded on it.
func (t *Tree) edit(p page.Path, bits page.Flags, fn func(x *pass, tg *node) error) error {
	x, err := t.begin([]page.Path{p}, false)
	if err != nil {
		return err
	}
	tg := x.at[0]
	if err := fn(x, tg); err != nil {
		return err
	}
	if !tg.pg.Fits(t.St.Blocks.BlockSize()) {
		return fmt.Errorf("version: %s: %d bytes with %d refs: %w", p, len(tg.pg.Data), len(tg.pg.Refs), page.ErrPageFull)
	}
	tg.bits, tg.dirty = bits, true
	return x.write()
}

// ReadPage returns the client data and reference count of the page at
// path, recording the access (R on the page, S on its ancestors) at once.
func (t *Tree) ReadPage(p page.Path) (data []byte, nrefs int, err error) {
	data, nrefs, _, err = t.read(p, true)
	return data, nrefs, err
}

// Look returns the client data and reference count of the page at path
// as this version sees it, recording nothing and writing nothing: the
// begin of a read pass with no write. The caller records the read with a
// later Apply, before the version commits, or validation will not see
// it. A path that reaches the version page of a sub-file this version
// has not entered is the exception: the pass crosses it through the Cross
// hook (which takes the §5.3 inner lock) and then records the read at
// once, as ReadPage does, and recorded reports it; with no hook such a
// look is refused with ErrSubFile.
func (t *Tree) Look(p page.Path) (data []byte, nrefs int, recorded bool, err error) {
	return t.read(p, false)
}

// read is ReadPage, and Look when record is false.
func (t *Tree) read(p page.Path, record bool) (data []byte, nrefs int, recorded bool, err error) {
	x, err := t.begin([]page.Path{p}, false)
	if err != nil {
		return nil, 0, false, err
	}
	tg := x.at[0]
	if record || x.crossed {
		tg.bits = page.FlagR
		if err := x.write(); err != nil {
			return nil, 0, false, err
		}
		recorded = true
	}
	// The pass's decoded pages die with it, so the data needs no copy.
	return tg.pg.Data, len(tg.pg.Refs), recorded, nil
}

// PeekPage returns data and shape without recording any access and
// without copying: a server-internal inspection (used by tools and the
// cache layer). It must not be used for client reads — uncounted reads
// would break validation.
func (t *Tree) PeekPage(p page.Path) (*page.Page, error) {
	cur, err := t.St.ReadPage(t.Root)
	if err != nil {
		return nil, err
	}
	for depth, idx := range p {
		if idx < 0 || idx >= len(cur.Refs) {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrBadPath)
		}
		ref := cur.Refs[idx]
		if ref.IsNil() {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrHole)
		}
		cur, err = t.St.ReadPage(ref.Block)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// WritePage replaces the client data of the page at path, recording the
// access (W on the page, S on its ancestors): Apply with one write.
func (t *Tree) WritePage(p page.Path, data []byte) error {
	return t.Apply(nil, []page.Path{p}, [][]byte{data})
}

// Apply records a read of the page at each path in reads (R on the page,
// S on its ancestors, each page shadowed exactly as ReadPage shadows it)
// and replaces the client data of the page at each ps[i] with datas[i],
// exactly as the writes would one after another (a later write of a
// repeated path wins), in one pass; a path both read and written gets
// R|W. Every path is checked — data too large for its page's references
// fails with page.ErrPageFull — before anything is written, so a refused
// batch changes nothing.
func (t *Tree) Apply(reads, ps []page.Path, datas [][]byte) error {
	if len(ps) != len(datas) {
		return fmt.Errorf("version: write %d paths with %d pages: %w", len(ps), len(datas), ErrBadPath)
	}
	if len(reads)+len(ps) == 0 {
		return nil
	}
	x, err := t.begin(append(slices.Clip(reads), ps...), false)
	if err != nil {
		return err
	}
	for _, n := range x.at[:len(reads)] {
		n.bits |= page.FlagR
	}
	bs := t.St.Blocks.BlockSize()
	for i, n := range x.at[len(reads):] {
		n.pg.Data = datas[i]
		if !n.pg.Fits(bs) {
			return fmt.Errorf("version: %s: %d bytes with %d refs: %w",
				ps[i], len(datas[i]), len(n.pg.Refs), page.ErrPageFull)
		}
		n.bits, n.dirty = n.bits|page.FlagW, true
	}
	return x.write()
}

// newRef is the reference to a page created in this version: created and
// written here (C|W).
var newRef = page.Ref{Flags: page.Flags(0).Set(page.FlagW)}

// InsertPage creates a fresh child page holding data and inserts a
// reference to it at index idx of the page at path. This modifies the
// parent's references (M, which implies S). The new page is born private
// to this version (C|W: created and written here).
func (t *Tree) InsertPage(p page.Path, idx int, data []byte) error {
	return t.edit(p, page.FlagM, func(x *pass, tg *node) error {
		x.create(tg, idx, &page.Page{Data: append([]byte(nil), data...)})
		return tg.pg.InsertRef(idx, newRef)
	})
}

// RemovePage removes the reference at index idx of the page at path. The
// detached subtree is not freed here: it may be shared with other
// versions, so reclamation is the garbage collector's job (§1).
func (t *Tree) RemovePage(p page.Path, idx int) error {
	return t.edit(p, page.FlagM, func(_ *pass, tg *node) error {
		return tg.pg.RemoveRef(idx)
	})
}

// MakeHole replaces the reference at index idx of the page at path with a
// hole (nil reference), keeping the table's shape.
func (t *Tree) MakeHole(p page.Path, idx int) error {
	return t.edit(p, page.FlagM, func(_ *pass, tg *node) error {
		return tg.pg.SetRef(idx, page.Ref{})
	})
}

// FillHole creates a fresh page holding data in the hole at index idx of
// the page at path.
func (t *Tree) FillHole(p page.Path, idx int, data []byte) error {
	return t.edit(p, page.FlagM, func(x *pass, tg *node) error {
		if err := hole(tg.pg, idx); err != nil {
			return fmt.Errorf("version: %s: %w", p, err)
		}
		x.create(tg, idx, &page.Page{Data: append([]byte(nil), data...)})
		tg.pg.Refs[idx] = newRef
		return nil
	})
}

// RemoveHole deletes the hole at index idx of the page at path, shrinking
// the table. It refuses to delete a live reference.
func (t *Tree) RemoveHole(p page.Path, idx int) error {
	return t.edit(p, page.FlagM, func(_ *pass, tg *node) error {
		if err := hole(tg.pg, idx); err != nil {
			return fmt.Errorf("version: %s: %w", p, err)
		}
		return tg.pg.RemoveRef(idx)
	})
}

// hole checks that index idx of pg's table is a hole.
func hole(pg *page.Page, idx int) error {
	r, err := pg.Ref(idx)
	if err != nil {
		return err
	}
	if !r.IsNil() {
		return fmt.Errorf("index %d: %w", idx, ErrNotHole)
	}
	return nil
}

// MoveSubtree detaches the reference at srcIdx of the page at srcPath and
// re-attaches it into the hole at dstIdx of the page at dstPath, within
// the same version, in one pass over both paths. This is the §5 "move
// subtrees to another part of the tree" shape operation. Both touched
// pages are marked modified. Moving a subtree into itself is refused, and
// so is a move between two files of a super-file: both pages must belong
// to the same version page.
func (t *Tree) MoveSubtree(srcPath page.Path, srcIdx int, dstPath page.Path, dstIdx int) error {
	full := srcPath.Child(srcIdx)
	if dstPath.HasPrefix(full) {
		return fmt.Errorf("version: cannot move %s under itself (%s): %w", full, dstPath, ErrBadPath)
	}
	x, err := t.begin([]page.Path{srcPath, dstPath}, true)
	if err != nil {
		return err
	}
	src, dst := x.at[0], x.at[1]
	moved, err := src.pg.Ref(srcIdx)
	if err != nil {
		return fmt.Errorf("version: source %s: %w", srcPath, err)
	}
	if moved.IsNil() {
		return fmt.Errorf("version: source %s index %d: %w", srcPath, srcIdx, ErrHole)
	}
	src.pg.Refs[srcIdx] = page.Ref{}
	if err := hole(dst.pg, dstIdx); err != nil {
		return fmt.Errorf("version: destination %s: %w", dstPath, err)
	}
	dst.pg.Refs[dstIdx] = moved
	for _, n := range x.at {
		n.bits, n.dirty = page.FlagM, true
	}
	return x.write()
}

// SplitPage moves the tail of the data of the page at path into a fresh
// child page appended to its reference table: the §5 "split pages in two"
// shape command, used to grow a one-page file into a tree. A split both
// rewrites the data and modifies the references (W|M).
func (t *Tree) SplitPage(p page.Path, keep int) error {
	return t.edit(p, page.FlagW|page.FlagM, func(x *pass, tg *node) error {
		if keep < 0 || keep > len(tg.pg.Data) {
			return fmt.Errorf("version: split %s at %d of %d bytes: %w",
				p, keep, len(tg.pg.Data), ErrBadPath)
		}
		x.create(tg, len(tg.pg.Refs), &page.Page{Data: append([]byte(nil), tg.pg.Data[keep:]...)})
		tg.pg.Data = tg.pg.Data[:keep]
		tg.pg.Refs = append(tg.pg.Refs, newRef)
		return nil
	})
}

// InsertSubFile creates the birth version page of a new sub-file — file
// and version capabilities fileCap and verCap, client data data, parent
// reference the version page enclosing the page at path — and inserts a reference to it at index idx
// of the page at path, modifying the table (M). The new sub-file is
// private to this version until commit. It returns the sub-file's root
// block.
func (t *Tree) InsertSubFile(p page.Path, idx int, fileCap, verCap capability.Capability, data []byte) (block.Num, error) {
	var sub *node
	err := t.edit(p, page.FlagM, func(x *pass, tg *node) error {
		sub = x.create(tg, idx, &page.Page{
			IsVersion:  true,
			FileCap:    fileCap,
			VersionCap: verCap,
			RootFlags:  page.Flags(0).Set(page.FlagW),
			Data:       append([]byte(nil), data...),
		})
		return tg.pg.InsertRef(idx, newRef)
	})
	if err != nil {
		return block.NilNum, err
	}
	return sub.blk, nil
}
