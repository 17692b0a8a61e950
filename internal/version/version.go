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
// committed pages are immutable. Page I/O batches through
// block.MultiStore: a COW descend allocates its whole shadow chain with
// one AllocMulti and flushes it with one WriteMulti, and WritePages does
// the same for the union of many paths' chains; the sharded facade
// stripes both across block servers. A Tree is not safe for
// concurrent use; the server serialises operations per version,
// matching the paper's model of a version owned by a single client.
package version

import (
	"errors"
	"fmt"

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
	// embedded sub-file version page; the server's locking layer must
	// mediate those (§5.3).
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
// version whose version page is in block base. The new version page
// shares the base's page tree: same reference table with all access flags
// cleared, same data. "When a new version is created, it behaves as if it
// were a copy of the current version."
func CreateVersion(s *Store, base block.Num, verCap capability.Capability) (*Tree, error) {
	bp, err := s.ReadPage(base)
	if err != nil {
		return nil, err
	}
	if !bp.IsVersion {
		return nil, fmt.Errorf("version: block %d is not a version page: %w", base, ErrBadPath)
	}
	vp := &page.Page{
		IsVersion:  true,
		FileCap:    bp.FileCap,
		VersionCap: verCap,
		ParentRef:  bp.ParentRef,
		BaseRef:    base,
		RootFlags:  page.FlagC, // the root is always copied
		Refs:       clearRefFlags(bp.Refs),
		Data:       append([]byte(nil), bp.Data...),
	}
	root, err := s.AllocPage(vp)
	if err != nil {
		return nil, err
	}
	return &Tree{St: s, Root: root}, nil
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

// chainEntry is one step of a root-to-target descent.
type chainEntry struct {
	blk block.Num
	pg  *page.Page
}

// descend walks from the root to the page at path, copying every page on
// the way into this version (the shadowing rule) and returning the chain
// of private pages. On return chain[i] is the page at path[:i]; all pages
// in the chain are private to this version and may be written in place.
// crossSubFiles controls whether descent may pass through embedded
// version pages; the plain file operations refuse, the server's
// super-file update path (which holds locks) allows it.
//
// The copy-on-write write-out is batched: the walk only reads, noting
// which pages are first accessed in this version; the shadow copies are
// then allocated with a single multi-block alloc and flushed — final
// contents, patched parent references — with a single multi-block
// write, so a depth-D shadowing costs two block operations instead of
// 2D.
func (t *Tree) descend(p page.Path, crossSubFiles bool) ([]chainEntry, error) {
	cur, err := t.St.ReadPage(t.Root)
	if err != nil {
		return nil, err
	}
	chain := make([]chainEntry, 0, len(p)+1)
	chain = append(chain, chainEntry{t.Root, cur})
	var toCopy []int // chain indices of pages first accessed in this version
	copying := false // everything below a first access is also a first access
	for depth, idx := range p {
		if idx < 0 || idx >= len(cur.Refs) {
			return nil, fmt.Errorf("version: %s index %d of %d at depth %d: %w",
				p, idx, len(cur.Refs), depth, ErrBadPath)
		}
		ref := cur.Refs[idx]
		if ref.IsNil() {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrHole)
		}
		child, err := t.St.ReadPage(ref.Block)
		if err != nil {
			return nil, err
		}
		if child.IsVersion && !crossSubFiles {
			return nil, fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrSubFile)
		}
		// Below a page copied in this pass the base's flags are
		// meaningless (a fresh copy starts with a cleared table), so
		// every deeper page is a first access too.
		if copying || !ref.Flags.Accessed() {
			copying = true
			toCopy = append(toCopy, depth+1)
		}
		chain = append(chain, chainEntry{ref.Block, child})
		cur = child
	}
	if len(toCopy) == 0 {
		return chain, nil
	}
	// Build every shadow copy first — the page cloned with its child
	// flags cleared (flag initialisation) and its base recorded — and
	// allocate them all, full contents, in one multi-block alloc
	// (all-or-nothing). A shadow's own references still point at the
	// base's children until a deeper shadow patches it below, so every
	// allocated block is a valid page at every instant: no failure in
	// the flush can leave a reference to a block that was never
	// written. Shadows orphaned by a mid-flush failure fall to the
	// garbage collector, the same fate as an aborted version's pages.
	clones := make([]*page.Page, len(toCopy))
	raws := make([][]byte, len(toCopy))
	for k, ci := range toCopy {
		orig := chain[ci]
		cp := orig.pg.Clone()
		cp.Refs = clearRefFlags(orig.pg.Refs)
		cp.BaseRef = orig.blk
		clones[k] = cp
		raw, err := cp.Encode(t.St.Blocks.BlockSize())
		if err != nil {
			return nil, fmt.Errorf("version: encode shadow of block %d: %w", orig.blk, err)
		}
		raws[k] = raw
	}
	newBlks, err := block.AllocMulti(t.St.Blocks, t.St.Acct, raws)
	if err != nil {
		return nil, fmt.Errorf("version: alloc %d shadow pages: %w", len(toCopy), err)
	}
	// Point each (private: root, already-copied, or shadowed just
	// above) parent at its copy; only the patched parents need the
	// flush, the shadows' own contents are already durable.
	dirty := make([]bool, len(chain))
	for k, ci := range toCopy {
		chain[ci] = chainEntry{newBlks[k], clones[k]}
		parent := chain[ci-1].pg
		idx := p[ci-1]
		parent.Refs[idx] = page.Ref{Block: newBlks[k], Flags: parent.Refs[idx].Flags.Set(page.FlagC)}
		dirty[ci-1] = true
	}
	var ns []block.Num
	var pgs []*page.Page
	for i, d := range dirty {
		if d {
			ns = append(ns, chain[i].blk)
			pgs = append(pgs, chain[i].pg)
		}
	}
	if err := t.St.WritePages(ns, pgs); err != nil {
		return nil, err
	}
	return chain, nil
}

// setFlags records an access: every page on the path above the target is
// marked searched (S), and the target receives finalBits. Dirty pages are
// written back in place. chain must come from descend(p).
func (t *Tree) setFlags(p page.Path, chain []chainEntry, finalBits page.Flags) error {
	// dirty[i] marks chain[i] needing a write-back.
	dirty := make([]bool, len(chain))

	// setOn ORs bits into the flags of chain[i], which live in the
	// parent's reference (or the root's header flags).
	setOn := func(i int, bits page.Flags) {
		if i == 0 {
			rf := chain[0].pg.RootFlags.Set(bits)
			if rf != chain[0].pg.RootFlags {
				chain[0].pg.RootFlags = rf
				dirty[0] = true
			}
			return
		}
		parent := chain[i-1].pg
		idx := p[i-1]
		nf := parent.Refs[idx].Flags.Set(bits)
		if nf != parent.Refs[idx].Flags {
			parent.Refs[idx].Flags = nf
			dirty[i-1] = true
		}
	}

	for i := 0; i < len(chain)-1; i++ {
		setOn(i, page.FlagS)
	}
	setOn(len(chain)-1, finalBits)

	// One multi-block write for every dirtied page of the chain.
	var ns []block.Num
	var pgs []*page.Page
	for i, d := range dirty {
		if !d {
			continue
		}
		ns = append(ns, chain[i].blk)
		pgs = append(pgs, chain[i].pg)
	}
	if len(ns) == 0 {
		return nil
	}
	return t.St.WritePages(ns, pgs)
}

// ReadPage returns the client data and reference count of the page at
// path, recording the access (R on the page, S on its ancestors).
func (t *Tree) ReadPage(p page.Path) (data []byte, nrefs int, err error) {
	chain, err := t.descend(p, false)
	if err != nil {
		return nil, 0, err
	}
	if err := t.setFlags(p, chain, page.FlagR); err != nil {
		return nil, 0, err
	}
	last := chain[len(chain)-1].pg
	return append([]byte(nil), last.Data...), len(last.Refs), nil
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
// access (W on the page, S on its ancestors): WritePages with one entry.
func (t *Tree) WritePage(p page.Path, data []byte) error {
	return t.WritePages([]page.Path{p}, [][]byte{data})
}

// wnode is one page on the union of a WritePages batch's root-to-target
// chains.
type wnode struct {
	blk    block.Num
	pg     *page.Page
	parent *wnode
	idx    int // index of this page's reference in parent
	kids   map[int]*wnode
	// fresh marks a page first accessed in this version: it is shadowed.
	fresh bool
	// written marks a target; dirty a page to rewrite in place.
	written, dirty bool
}

// WritePages replaces the client data of the page at each ps[i] with
// datas[i], exactly as the writes would one after another (a later
// write of a repeated path wins), in one batched copy-on-write pass:
//
//   - the union of the root-to-target chains is read level by level —
//     the root, then one multi-block read per depth;
//   - every path is checked before anything is written (ErrBadPath,
//     ErrHole, ErrSubFile on an embedded version page, and
//     page.ErrPageFull for data that does not fit beside the page's
//     references), so a refused batch changes nothing;
//   - every page first accessed in this version is shadowed, with its
//     child flags cleared and its base recorded; S is set on every
//     ancestor and W on every target;
//   - all shadows go out, with their final data and flags, in one
//     multi-block alloc, and the parents patched to point at them plus
//     the changed private pages in one multi-block write.
//
// A shadow's references to deeper shadows still name the base's pages
// until the write patches them, so every allocated block is a valid
// page at every instant; shadows orphaned by a failed write fall to the
// garbage collector, like an aborted version's pages.
func (t *Tree) WritePages(ps []page.Path, datas [][]byte) error {
	if len(ps) != len(datas) {
		return fmt.Errorf("version: write %d paths with %d pages: %w", len(ps), len(datas), ErrBadPath)
	}
	if len(ps) == 0 {
		return nil
	}
	rootPg, err := t.St.ReadPage(t.Root)
	if err != nil {
		return err
	}
	root := &wnode{blk: t.Root, pg: rootPg}
	nodes := []*wnode{root}       // the union, parents before children
	at := make([]*wnode, len(ps)) // at[i]: the deepest page of ps[i] reached
	for i := range at {
		at[i] = root
	}
	for depth := 0; ; depth++ {
		var level []*wnode
		var ns []block.Num
		var first []int // first[k]: a path through level[k], for errors
		for i, p := range ps {
			if depth >= len(p) {
				continue
			}
			parent, idx := at[i], p[depth]
			if child := parent.kids[idx]; child != nil {
				at[i] = child
				continue
			}
			if idx < 0 || idx >= len(parent.pg.Refs) {
				return fmt.Errorf("version: %s index %d of %d at depth %d: %w",
					p, idx, len(parent.pg.Refs), depth, ErrBadPath)
			}
			ref := parent.pg.Refs[idx]
			if ref.IsNil() {
				return fmt.Errorf("version: %s at depth %d: %w", p, depth, ErrHole)
			}
			// Below a page first accessed here the base's flags are
			// meaningless (its copy starts with a cleared table), so
			// every deeper page is a first access too.
			child := &wnode{blk: ref.Block, parent: parent, idx: idx,
				fresh: parent.fresh || !ref.Flags.Accessed()}
			if parent.kids == nil {
				parent.kids = make(map[int]*wnode)
			}
			parent.kids[idx] = child
			at[i] = child
			level = append(level, child)
			ns = append(ns, ref.Block)
			first = append(first, i)
		}
		if len(level) == 0 {
			break
		}
		pgs, err := t.St.ReadPages(ns)
		if err != nil {
			return err
		}
		for k, n := range level {
			if pgs[k].IsVersion {
				return fmt.Errorf("version: %s at depth %d: %w", ps[first[k]], depth, ErrSubFile)
			}
			n.pg = pgs[k]
			if n.fresh {
				n.pg.Refs = clearRefFlags(n.pg.Refs)
				n.pg.BaseRef = n.blk
			}
		}
		nodes = append(nodes, level...)
	}

	bs := t.St.Blocks.BlockSize()
	for i, n := range at {
		n.pg.Data = datas[i]
		if !n.pg.Fits(bs) {
			return fmt.Errorf("version: %s: %d bytes with %d refs: %w",
				ps[i], len(datas[i]), len(n.pg.Refs), page.ErrPageFull)
		}
		n.written = true
		n.dirty = true
	}
	for _, n := range nodes {
		var bits page.Flags
		if len(n.kids) > 0 {
			bits |= page.FlagS
		}
		if n.written {
			bits |= page.FlagW
		}
		// A page's flags live in its parent's reference, the root's in
		// its own header.
		flags, holder := &n.pg.RootFlags, n
		if n.parent != nil {
			flags, holder = &n.parent.pg.Refs[n.idx].Flags, n.parent
		}
		if f := flags.Set(bits); f != *flags {
			*flags = f
			holder.dirty = true
		}
	}
	var shadows []*wnode
	var raws [][]byte
	for _, n := range nodes {
		if !n.fresh {
			continue
		}
		raw, err := n.pg.Encode(bs)
		if err != nil {
			return fmt.Errorf("version: encode shadow of block %d: %w", n.blk, err)
		}
		shadows = append(shadows, n)
		raws = append(raws, raw)
	}
	if len(shadows) > 0 {
		blks, err := block.AllocMulti(t.St.Blocks, t.St.Acct, raws)
		if err != nil {
			return fmt.Errorf("version: alloc %d shadow pages: %w", len(shadows), err)
		}
		for k, n := range shadows {
			n.blk = blks[k]
			n.dirty = false // its contents went out with the alloc
		}
		for _, n := range shadows {
			n.parent.pg.Refs[n.idx].Block = n.blk
			n.parent.dirty = true
		}
	}
	var ns []block.Num
	var pgs []*page.Page
	for _, n := range nodes {
		if n.dirty {
			ns = append(ns, n.blk)
			pgs = append(pgs, n.pg)
		}
	}
	if len(ns) == 0 {
		return nil
	}
	return t.St.WritePages(ns, pgs)
}

// InsertPage creates a fresh child page holding data and inserts a
// reference to it at index idx of the page at path. This modifies the
// parent's references (M, which implies S). The new page is born private
// to this version (C|W: created and written here).
func (t *Tree) InsertPage(p page.Path, idx int, data []byte) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	child := &page.Page{Data: append([]byte(nil), data...)}
	childBlk, err := t.St.AllocPage(child)
	if err != nil {
		return err
	}
	ref := page.Ref{Block: childBlk, Flags: page.Flags(0).Set(page.FlagW)}
	if err := target.pg.InsertRef(idx, ref); err != nil {
		return err
	}
	if !target.pg.Fits(t.St.Blocks.BlockSize()) {
		return fmt.Errorf("version: %s: reference table full: %w", p, page.ErrPageFull)
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// RemovePage removes the reference at index idx of the page at path. The
// detached subtree is not freed here: it may be shared with other
// versions, so reclamation is the garbage collector's job (§1).
func (t *Tree) RemovePage(p page.Path, idx int) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	if err := target.pg.RemoveRef(idx); err != nil {
		return err
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// MakeHole replaces the reference at index idx of the page at path with a
// hole (nil reference), keeping the table's shape.
func (t *Tree) MakeHole(p page.Path, idx int) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	if idx < 0 || idx >= len(target.pg.Refs) {
		return fmt.Errorf("version: %s index %d: %w", p, idx, page.ErrBadIndex)
	}
	target.pg.Refs[idx] = page.Ref{}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// FillHole creates a fresh page holding data in the hole at index idx of
// the page at path.
func (t *Tree) FillHole(p page.Path, idx int, data []byte) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	if idx < 0 || idx >= len(target.pg.Refs) {
		return fmt.Errorf("version: %s index %d: %w", p, idx, page.ErrBadIndex)
	}
	if !target.pg.Refs[idx].IsNil() {
		return fmt.Errorf("version: %s index %d: %w", p, idx, ErrNotHole)
	}
	child := &page.Page{Data: append([]byte(nil), data...)}
	childBlk, err := t.St.AllocPage(child)
	if err != nil {
		return err
	}
	target.pg.Refs[idx] = page.Ref{Block: childBlk, Flags: page.Flags(0).Set(page.FlagW)}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// RemoveHole deletes the hole at index idx of the page at path, shrinking
// the table. It refuses to delete a live reference.
func (t *Tree) RemoveHole(p page.Path, idx int) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	r, err := target.pg.Ref(idx)
	if err != nil {
		return err
	}
	if !r.IsNil() {
		return fmt.Errorf("version: %s index %d: %w", p, idx, ErrNotHole)
	}
	if err := target.pg.RemoveRef(idx); err != nil {
		return err
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// MoveSubtree detaches the reference at srcIdx of the page at srcPath and
// re-attaches it into the hole at dstIdx of the page at dstPath, within
// the same version. This is the §5 "move subtrees to another part of the
// tree" shape operation. Both touched pages are marked modified. Moving a
// subtree into itself is refused.
func (t *Tree) MoveSubtree(srcPath page.Path, srcIdx int, dstPath page.Path, dstIdx int) error {
	full := srcPath.Child(srcIdx)
	if dstPath.HasPrefix(full) {
		return fmt.Errorf("version: cannot move %s under itself (%s): %w", full, dstPath, ErrBadPath)
	}
	// Copy both parents into the version first so the detach/attach is
	// on private pages.
	srcChain, err := t.descend(srcPath, false)
	if err != nil {
		return err
	}
	src := srcChain[len(srcChain)-1]
	moved, err := src.pg.Ref(srcIdx)
	if err != nil {
		return err
	}
	if moved.IsNil() {
		return fmt.Errorf("version: source %s index %d: %w", srcPath, srcIdx, ErrHole)
	}
	// Detach.
	src.pg.Refs[srcIdx] = page.Ref{}
	if err := t.St.WritePage(src.blk, src.pg); err != nil {
		return err
	}
	if err := t.setFlags(srcPath, srcChain, page.FlagM); err != nil {
		return err
	}
	// Attach: re-descend (the source write may have restructured the
	// path to the destination's copy).
	dstChain, err := t.descend(dstPath, false)
	if err != nil {
		return err
	}
	dst := dstChain[len(dstChain)-1]
	if dstIdx < 0 || dstIdx >= len(dst.pg.Refs) {
		return fmt.Errorf("version: destination %s index %d: %w", dstPath, dstIdx, page.ErrBadIndex)
	}
	if !dst.pg.Refs[dstIdx].IsNil() {
		return fmt.Errorf("version: destination %s index %d: %w", dstPath, dstIdx, ErrNotHole)
	}
	dst.pg.Refs[dstIdx] = moved
	if err := t.St.WritePage(dst.blk, dst.pg); err != nil {
		return err
	}
	return t.setFlags(dstPath, dstChain, page.FlagM)
}

// SplitPage moves the tail of the data of the page at path into a fresh
// child page appended to its reference table: the §5 "split pages in two"
// shape command, used to grow a one-page file into a tree.
func (t *Tree) SplitPage(p page.Path, keep int) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	if keep < 0 || keep > len(target.pg.Data) {
		return fmt.Errorf("version: split %s at %d of %d bytes: %w",
			p, keep, len(target.pg.Data), ErrBadPath)
	}
	tail := append([]byte(nil), target.pg.Data[keep:]...)
	child := &page.Page{Data: tail}
	childBlk, err := t.St.AllocPage(child)
	if err != nil {
		return err
	}
	target.pg.Data = target.pg.Data[:keep]
	target.pg.Refs = append(target.pg.Refs, page.Ref{
		Block: childBlk, Flags: page.Flags(0).Set(page.FlagW),
	})
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	// A split both rewrites the data and modifies the references.
	return t.setFlags(p, chain, page.FlagW|page.FlagM)
}

// LinkSubVersion replaces the reference at index idx of the page at path
// with newRoot, the root of a sub-file version created for this update,
// and marks the boundary copied (C). The enclosing pages record only a
// search: the sub-file's own access tracking lives inside its version.
// The server's super-file update path (§5.3) calls this after
// inner-locking the sub-file.
func (t *Tree) LinkSubVersion(p page.Path, idx int, newRoot block.Num) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	old, err := target.pg.Ref(idx)
	if err != nil {
		return err
	}
	if err := target.pg.SetRef(idx, page.Ref{Block: newRoot, Flags: old.Flags.Set(page.FlagC)}); err != nil {
		return err
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagS)
}

// InsertSubFile inserts a reference to a freshly created sub-file version
// page at index idx of the page at path, modifying the table (M). The
// new sub-file is private to this version until commit.
func (t *Tree) InsertSubFile(p page.Path, idx int, subRoot block.Num) error {
	chain, err := t.descend(p, false)
	if err != nil {
		return err
	}
	target := chain[len(chain)-1]
	ref := page.Ref{Block: subRoot, Flags: page.Flags(0).Set(page.FlagW)}
	if err := target.pg.InsertRef(idx, ref); err != nil {
		return err
	}
	if !target.pg.Fits(t.St.Blocks.BlockSize()) {
		return fmt.Errorf("version: %s: reference table full: %w", p, page.ErrPageFull)
	}
	if err := t.St.WritePage(target.blk, target.pg); err != nil {
		return err
	}
	return t.setFlags(p, chain, page.FlagM)
}

// Walk calls fn for every page reachable in this version's tree in
// depth-first order, with its path and the reference that points at it
// (a synthetic reference carrying RootFlags for the root). Holes are
// skipped. Walk does not record accesses; it is a server-side tool used
// by the garbage collector and the family-tree printer.
func (t *Tree) Walk(fn func(p page.Path, ref page.Ref, pg *page.Page) error) error {
	root, err := t.St.ReadPage(t.Root)
	if err != nil {
		return err
	}
	return t.walk(page.RootPath, page.Ref{Block: t.Root, Flags: root.RootFlags}, root, fn)
}

func (t *Tree) walk(p page.Path, ref page.Ref, pg *page.Page, fn func(page.Path, page.Ref, *page.Page) error) error {
	if err := fn(p, ref, pg); err != nil {
		return err
	}
	// Read all children of this page in one multi-block operation: the
	// walk is depth-first but fetches breadth-batched.
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
		if err := t.walk(p.Child(i), pg.Refs[i], child, fn); err != nil {
			return err
		}
	}
	return nil
}

// Blocks returns the set of blocks reachable from this version's root,
// including the root itself.
func (t *Tree) Blocks() (map[block.Num]bool, error) {
	out := make(map[block.Num]bool)
	err := t.Walk(func(_ page.Path, ref page.Ref, _ *page.Page) error {
		out[ref.Block] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrivateBlocks returns the blocks this version copied or created (C set
// on their references, or created fresh), i.e. the blocks not shared with
// the base version. The root is always private.
func (t *Tree) PrivateBlocks() (map[block.Num]bool, error) {
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
