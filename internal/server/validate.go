package server

import (
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/page"
	"repro/internal/version"
)

// Invalidation names cache entries to discard after a §5.4 cache
// validation: pages whose data was rewritten (exact paths) and subtrees
// whose reference structure changed (prefixes — everything below them may
// have moved).
type Invalidation struct {
	// Exact lists paths whose page data changed (W).
	Exact []page.Path
	// Prefixes lists paths whose reference tables changed (M): every
	// cached page at or below such a path must go.
	Prefixes []page.Path
	// All, when true, means the whole cache entry is stale (the cached
	// version is no longer reachable, e.g. collected).
	All bool
}

// Empty reports a fully valid cache: the §5.4 "null operation" for files
// that are not shared.
func (iv Invalidation) Empty() bool {
	return !iv.All && len(iv.Exact) == 0 && len(iv.Prefixes) == 0
}

// ValidateCache performs the §5.4 cache check: given the version root a
// client's cache entries came from, it returns the current version root
// and the path names of pages to discard. The test walks the committed
// chain from the cached version to the current one and accumulates the
// write sets recorded in the versions' own flags, so no page data is
// transmitted or even read — only the pages the updates actually touched
// are visited, making the cost proportional to the amount of change, not
// to file size.
func (s *Server) ValidateCache(fcap capability.Capability, cachedRoot block.Num) (block.Num, Invalidation, error) {
	if err := s.checkAlive(); err != nil {
		return block.NilNum, Invalidation{}, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightRead); err != nil {
		return block.NilNum, Invalidation{}, err
	}
	cur, _, err := s.currentOf(fcap.Object)
	if err != nil {
		return block.NilNum, Invalidation{}, err
	}
	if cachedRoot == cur {
		// The cache holds the most recent version: all pages valid.
		return cur, Invalidation{}, nil
	}

	// The committed chain strictly after the cached version, up to the
	// current one.
	vp, err := s.st.ReadPage(cachedRoot)
	if err != nil || !vp.IsVersion {
		return cur, Invalidation{All: true}, nil
	}
	var chain []block.Num
	for next := vp.CommitRef; next != block.NilNum; {
		chain = append(chain, next)
		if next == cur {
			break
		}
		nvp, err := s.st.ReadPage(next)
		if err != nil || !nvp.IsVersion {
			return cur, Invalidation{All: true}, nil
		}
		next = nvp.CommitRef
	}
	return cur, collectWriteSet(s.st, chain), nil
}

// collectWriteSet gathers the write sets of committed versions from their
// access flags, in one visit of all their trees: W on a page invalidates
// that path; M invalidates the subtree. Only accessed (copied) references
// are followed — unaccessed subtrees were untouched by the update — and
// only below a page the update searched (S). A sub-file's version page
// carries its own page's flags in its header. An unreadable page
// invalidates its subtree; an unreadable version page, everything.
func collectWriteSet(st *version.Store, roots []block.Num) Invalidation {
	var iv Invalidation
	st.Visit(roots, func(n *version.Node) (version.Follow, error) {
		at := n.Path()
		switch {
		case n.Parent == nil && (n.Err != nil || !n.Page.IsVersion):
			iv = Invalidation{All: true}
			return nil, version.ErrStop
		case n.Err != nil:
			iv.Prefixes = append(iv.Prefixes, at)
			return nil, nil
		}
		flags := n.Ref.Flags
		if n.Page.IsVersion {
			flags = n.Page.RootFlags
		}
		if flags&page.FlagW != 0 {
			iv.Exact = append(iv.Exact, at)
		}
		if flags&page.FlagM != 0 {
			// Structure below changed wholesale; no need for finer grain.
			iv.Prefixes = append(iv.Prefixes, at)
			return nil, nil
		}
		if flags&page.FlagS == 0 {
			return nil, nil // never descended: children untouched
		}
		return version.Accessed, nil
	})
	return iv
}
