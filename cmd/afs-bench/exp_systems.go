package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline/lockfs"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/stable"
	"repro/internal/version"
)

// runE6 measures the §5.3 locking layer: the cost of super-file updates,
// the exclusion they provide, and the soft-lock ablation (how much work
// a large optimistic update wastes against many small writers, with and
// without respecting the top-lock hint).
func runE6() error {
	// (a) Update cost: small file vs super-file (locks + sub-commits).
	fmt.Println("\n(a) Update+commit latency:")
	header("kind", "rounds", "µs/update")
	const rounds = 1000
	{
		srv, err := newService()
		if err != nil {
			return err
		}
		fcap, err := flatFile(srv, 4, make([]byte, 128))
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
			srv.WritePage(v, page.Path{0}, []byte("s"))
			if err := srv.Commit(v); err != nil {
				return err
			}
		}
		row("small file", rounds, float64(time.Since(start).Microseconds())/rounds)
	}
	{
		srv, err := newService()
		if err != nil {
			return err
		}
		superCap, err := srv.CreateFile([]byte("super"))
		if err != nil {
			return err
		}
		v, _ := srv.CreateVersion(superCap, server.CreateVersionOpts{})
		if _, err := srv.CreateSubFile(v, page.RootPath, 0, []byte("sub")); err != nil {
			return err
		}
		if err := srv.Commit(v); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			v, err := srv.CreateVersion(superCap, server.CreateVersionOpts{})
			if err != nil {
				return err
			}
			if err := srv.WritePage(v, page.Path{0}, []byte("x")); err != nil {
				return err
			}
			if err := srv.Commit(v); err != nil {
				return err
			}
		}
		row("super file", rounds, float64(time.Since(start).Microseconds())/rounds)
	}

	// (b) Soft-lock ablation: one large updater (writes every page)
	// against a stream of small writers on the same small file. Without
	// the hint the big update keeps losing validations (wasted work);
	// respecting the hint makes the small writers yield.
	fmt.Println("\n(b) Large update vs 4 small writers on one file (soft-lock ablation):")
	header("discipline", "big-redo count", "big latency ms", "small commits")
	for _, soft := range []bool{false, true} {
		srv, err := newService()
		if err != nil {
			return err
		}
		srv.LockManager().Poll = 100 * time.Microsecond
		srv.LockManager().Patience = time.Second
		const pages = 24
		fcap, err := flatFile(srv, pages, make([]byte, 64))
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var smallCommits, bigRedo int64
		var wg sync.WaitGroup
		// Small writers: single-page updates that ignore hints unless
		// soft discipline is on (then they respect the top hint).
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					opts := server.CreateVersionOpts{RespectTopHint: soft}
					v, err := srv.CreateVersion(fcap, opts)
					if err != nil {
						continue
					}
					if err := srv.WritePage(v, page.Path{(w*7 + i) % pages}, []byte("s")); err != nil {
						srv.Abort(v)
						continue
					}
					if srv.Commit(v) == nil {
						smallCommits++
					}
					time.Sleep(150 * time.Microsecond)
				}
			}(w)
		}
		// The big updater rewrites every page; with soft locking its
		// own top lock (held via super discipline) keeps the small
		// writers out. Without it, the §6 starvation risk is real —
		// "starvation may occur, especially when a large update must
		// be carried out on a heavily shared file" — so the redo count
		// is capped.
		const redoCap = 60
		starved := false
		bigStart := time.Now()
		for {
			if bigRedo >= redoCap {
				starved = true
				break
			}
			opts := server.CreateVersionOpts{}
			if soft {
				opts.RespectTopHint = true
			}
			v, err := srv.CreateVersion(fcap, opts)
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			failed := false
			for p := 0; p < pages; p++ {
				// Read-modify-write: the read makes the page part of
				// the update's read set, so any small writer that
				// commits meanwhile forces a redo.
				if _, _, err := srv.ReadPage(v, page.Path{p}); err != nil {
					failed = true
					break
				}
				if err := srv.WritePage(v, page.Path{p}, []byte("BIG")); err != nil {
					failed = true
					break
				}
				time.Sleep(50 * time.Microsecond) // the update is slow: that is the point
			}
			if failed {
				srv.Abort(v)
				bigRedo++
				continue
			}
			err = srv.Commit(v)
			if err == nil {
				break
			}
			if !errors.Is(err, occ.ErrConflict) {
				return err
			}
			bigRedo++
		}
		bigLatency := time.Since(bigStart)
		close(stop)
		wg.Wait()
		name := "optimistic only"
		if soft {
			name = "soft top-lock"
		}
		lat := fmt.Sprintf("%.0f", float64(bigLatency.Milliseconds()))
		redo := fmt.Sprintf("%d", bigRedo)
		if starved {
			redo = fmt.Sprintf(">=%d (starved)", redoCap)
			lat = "gave up"
		}
		row(name, redo, lat, smallCommits)
	}
	fmt.Println("\nWithout the hint the large read-modify-write update starves against")
	fmt.Println("the small-writer stream — the §6 starvation risk. The soft top lock")
	fmt.Println("(§5.3) bounds its redo work by postponing the small writers, at the")
	fmt.Println("price of their concurrency: 'Locking should be the exception rather")
	fmt.Println("than the rule.'")
	return nil
}

// runE7 measures the §5.4 cache: traffic with and without the client
// cache for unshared and shared files.
func runE7() error {
	fmt.Println("\nClient re-reading a 16-page file (update+read-all+abort cycles):")
	header("mode", "cycles", "bytes fetched", "bytes saved", "null valid.")
	const cycles = 200
	for _, cached := range []bool{false, true} {
		cluster, err := core.NewCluster(core.Config{Servers: 1, Backend: core.Backend{Blocks: 1 << 18, BlockSize: 4096}})
		if err != nil {
			return err
		}
		cl := cluster.Client()
		fcap, err := cl.CreateFile(nil)
		if err != nil {
			return err
		}
		v, err := cl.Update(fcap, client.UpdateOpts{})
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			if err := v.Insert(page.RootPath, i, make([]byte, 1024)); err != nil {
				return err
			}
		}
		if err := v.Commit(); err != nil {
			return err
		}
		for c := 0; c < cycles; c++ {
			if !cached {
				cl.Cache.Drop(fcap.Object)
			}
			v, err := cl.Update(fcap, client.UpdateOpts{})
			if err != nil {
				return err
			}
			for i := 0; i < 16; i++ {
				if _, _, err := v.Read(page.Path{i}); err != nil {
					return err
				}
			}
			v.Abort()
		}
		st := cl.Stats()
		cs := cl.Cache.Stats()
		name := "no cache"
		if cached {
			name = "cache"
		}
		row(name, cycles, st.BytesFetched, st.BytesSaved, cs.NullValidations)
	}

	fmt.Println("\nShared file: a second client rewrites k of 16 pages between reads;")
	fmt.Println("validation discards exactly the rewritten pages:")
	header("pages dirtied", "discarded/cycle", "bytes refetched/cycle")
	for _, dirty := range []int{0, 1, 4, 16} {
		cluster, err := core.NewCluster(core.Config{Servers: 1, Backend: core.Backend{Blocks: 1 << 18, BlockSize: 4096}})
		if err != nil {
			return err
		}
		reader := cluster.Client()
		writer := cluster.Client()
		fcap, err := reader.CreateFile(nil)
		if err != nil {
			return err
		}
		v, _ := reader.Update(fcap, client.UpdateOpts{})
		for i := 0; i < 16; i++ {
			v.Insert(page.RootPath, i, make([]byte, 1024))
		}
		if err := v.Commit(); err != nil {
			return err
		}
		// Warm the reader's cache.
		warm, _ := reader.Update(fcap, client.UpdateOpts{})
		for i := 0; i < 16; i++ {
			warm.Read(page.Path{i})
		}
		warm.Abort()

		const rounds = 50
		var discarded, refetched uint64
		for r := 0; r < rounds; r++ {
			wv, err := writer.Update(fcap, client.UpdateOpts{})
			if err != nil {
				return err
			}
			for k := 0; k < dirty; k++ {
				if err := wv.Write(page.Path{k}, make([]byte, 1024)); err != nil {
					return err
				}
			}
			if err := wv.Commit(); err != nil {
				return err
			}
			d0 := reader.Cache.Stats().Discards
			f0 := reader.Stats().BytesFetched
			rv, err := reader.Update(fcap, client.UpdateOpts{})
			if err != nil {
				return err
			}
			for i := 0; i < 16; i++ {
				if _, _, err := rv.Read(page.Path{i}); err != nil {
					return err
				}
			}
			rv.Abort()
			discarded += reader.Cache.Stats().Discards - d0
			refetched += reader.Stats().BytesFetched - f0
		}
		row(dirty, float64(discarded)/rounds, float64(refetched)/rounds)
	}
	fmt.Println("\nCost scales with what actually changed — and the server never sent")
	fmt.Println("an unsolicited message (there is no such message in the protocol).")
	return nil
}

// runE8 measures the §4 paired block servers: write amplification,
// collision handling, and the two recovery paths (intentions replay vs
// full copy).
func runE8() error {
	geo := disk.Geometry{Blocks: 1 << 16, BlockSize: 4096}
	payload := make([]byte, 4096)
	const rounds = 5000

	fmt.Println("\n(a) Latency (µs/op):")
	header("store", "write", "read")
	{
		s := block.NewServer(disk.MustNew(geo))
		n, _ := s.Alloc(1, payload)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			s.Write(1, n, payload)
		}
		w := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < rounds; i++ {
			s.Read(1, n)
		}
		r := time.Since(t0)
		row("single", float64(w.Microseconds())/rounds, float64(r.Microseconds())/rounds)
	}
	{
		p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
		n, _ := p.Alloc(1, payload)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			p.Write(1, n, payload)
		}
		w := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < rounds; i++ {
			p.Read(1, n)
		}
		r := time.Since(t0)
		row("pair", float64(w.Microseconds())/rounds, float64(r.Microseconds())/rounds)
	}

	fmt.Println("\n(b) Crash of one half, mutations during the outage, then rejoin:")
	header("outage writes", "recovery", "replayed", "rejoin µs")
	for _, writes := range []int{10, 100, 1000} {
		p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
		a, b := p.Halves()
		n, err := p.Alloc(1, payload)
		if err != nil {
			return err
		}
		b.Crash()
		for i := 0; i < writes; i++ {
			if err := a.Write(1, n, payload); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := b.Rejoin(); err != nil {
			return err
		}
		row(writes, "intentions", a.Stats().Replayed, float64(time.Since(t0).Microseconds()))
	}
	// Full-copy path: both halves crash, intentions lost.
	{
		p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
		a, b := p.Halves()
		for i := 0; i < 500; i++ {
			if _, err := p.Alloc(1, payload); err != nil {
				return err
			}
		}
		b.Crash()
		if err := a.Write(1, 1, payload); err != nil {
			return err
		}
		a.Crash()
		if err := a.Rejoin(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := b.Rejoin(); err != nil {
			return err
		}
		row(500, "full copy", 0, float64(time.Since(t0).Microseconds()))
	}
	fmt.Println("\nReads cost the same as a single server; writes pay one companion")
	fmt.Println("round. Recovery replays only the outage's intentions unless the")
	fmt.Println("list was lost, in which case the §4 'compare notes' full copy runs.")
	return nil
}

// runE9 compares crash recovery: the optimistic service resumes with
// zero repair (clients redo through a sibling), while the locking
// baseline must replay its intentions journal and clear its lock table,
// with work proportional to what was in flight.
func runE9() error {
	fmt.Println("\n(a) Optimistic service: server crash with an update in flight:")
	header("metric", "value")
	{
		cluster, err := core.NewCluster(core.Config{Servers: 2, Backend: core.Backend{Blocks: 1 << 18, BlockSize: 4096}})
		if err != nil {
			return err
		}
		cl := cluster.Client()
		fcap, err := cl.CreateFile([]byte("base"))
		if err != nil {
			return err
		}
		v, err := cl.Update(fcap, client.UpdateOpts{})
		if err != nil {
			return err
		}
		if err := v.Write(page.RootPath, []byte("in-flight")); err != nil {
			return err
		}
		t0 := time.Now()
		cluster.CrashServer(0)
		// Zero repair: the next operation is immediately served.
		redo, err := cl.Update(fcap, client.UpdateOpts{})
		if err != nil {
			return err
		}
		if err := redo.Write(page.RootPath, []byte("redone")); err != nil {
			return err
		}
		if err := redo.Commit(); err != nil {
			return err
		}
		row("rollbacks", 0)
		row("locks cleared", 0)
		row("intentions redone", 0)
		row("crash->redo committed µs", float64(time.Since(t0).Microseconds()))
	}

	fmt.Println("\n(b) Locking baseline: recovery work grows with in-flight state:")
	header("journal recs", "locks", "redone", "cleared", "recover µs")
	for _, n := range []int{8, 64, 512} {
		d := disk.MustNew(disk.Geometry{Blocks: 1 << 16, BlockSize: 4096})
		st := lockfs.New(block.NewServer(d), 1)
		f, err := st.CreateFile(64)
		if err != nil {
			return err
		}
		if err := st.FreezeMidCommit(f, n); err != nil {
			return err
		}
		t0 := time.Now()
		rep := st.Recover()
		row(n, 1, rep.IntentionsRedone, rep.LocksCleared,
			float64(time.Since(t0).Microseconds()))
	}
	fmt.Println("\nThe optimistic file system is consistent at every instant: after a")
	fmt.Println("crash there is nothing to roll back, no locks to clear and no")
	fmt.Println("intentions to carry out (§3.1) — the client merely redoes its update.")
	return nil
}

// runFig2 prints a system tree: nested files, the 'tree of trees'.
func runFig2() error {
	srv, err := newService()
	if err != nil {
		return err
	}
	cCap, err := srv.CreateFile([]byte("file C (super)"))
	if err != nil {
		return err
	}
	v, err := srv.CreateVersion(cCap, server.CreateVersionOpts{})
	if err != nil {
		return err
	}
	if _, err := srv.CreateSubFile(v, page.RootPath, 0, []byte("file A")); err != nil {
		return err
	}
	bCap, err := srv.CreateSubFile(v, page.RootPath, 1, []byte("file B"))
	if err != nil {
		return err
	}
	if err := srv.Commit(v); err != nil {
		return err
	}
	// Give file B a child page of its own.
	bv, err := srv.CreateVersion(bCap, server.CreateVersionOpts{})
	if err != nil {
		return err
	}
	if err := srv.InsertPage(bv, page.RootPath, 0, []byte("page in B")); err != nil {
		return err
	}
	if err := srv.Commit(bv); err != nil {
		return err
	}

	fmt.Println("\nfile C is a super-file; files A and B are sub-files of C (Fig. 2):")
	root, err := srv.CurrentVersion(cCap)
	if err != nil {
		return err
	}
	return printTree(srv.Store(), root, "", true)
}

// printTree renders a page tree, marking version pages (sub-file roots)
// and following sub-file commit chains to their current versions.
func printTree(st *version.Store, blk block.Num, indent string, isRoot bool) error {
	cur, err := occ.Current(st, blk)
	if err == nil {
		blk = cur
	}
	pg, err := st.ReadPage(blk)
	if err != nil {
		return err
	}
	kind := "page"
	if pg.IsVersion {
		kind = "version page (file root)"
	}
	fmt.Printf("%s%s blk=%d data=%q\n", indent, kind, blk, trim(pg.Data))
	for i, r := range pg.Refs {
		if r.IsNil() {
			fmt.Printf("%s  [%d] hole\n", indent, i)
			continue
		}
		if err := printTree(st, r.Block, indent+"  ", false); err != nil {
			return err
		}
	}
	return nil
}

// runFig4 prints the family tree of a file: the committed chain with its
// base and commit references, plus uncommitted versions hanging off it.
func runFig4() error {
	srv, err := newService()
	if err != nil {
		return err
	}
	fcap, err := srv.CreateFile([]byte("v0"))
	if err != nil {
		return err
	}
	for i := 1; i <= 3; i++ {
		v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
		if err := srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
		if err := srv.Commit(v); err != nil {
			return err
		}
	}
	// Two uncommitted versions based on the current one.
	u1, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err != nil {
		return err
	}
	if err := srv.WritePage(u1, page.RootPath, []byte("draft-a")); err != nil {
		return err
	}
	u2, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err != nil {
		return err
	}
	if err := srv.WritePage(u2, page.RootPath, []byte("draft-b")); err != nil {
		return err
	}

	hist, err := srv.History(fcap)
	if err != nil {
		return err
	}
	fmt.Println("\ncommitted chain (oldest -> current), doubly linked (Fig. 4):")
	for i, root := range hist {
		vp, err := srv.Store().ReadPage(root)
		if err != nil {
			return err
		}
		tag := ""
		if i == len(hist)-1 {
			tag = "   <- current (commit ref nil)"
		}
		fmt.Printf("  blk %-4d base<-%-4d commit->%-4d data=%q%s\n",
			root, vp.BaseRef, vp.CommitRef, trim(vp.Data), tag)
	}
	fmt.Println("uncommitted versions attached by their base references:")
	for _, u := range []block.Num{mustRoot(srv, u1), mustRoot(srv, u2)} {
		vp, err := srv.Store().ReadPage(u)
		if err != nil {
			return err
		}
		fmt.Printf("  blk %-4d base<-%-4d (no commit ref) data=%q\n",
			u, vp.BaseRef, trim(vp.Data))
	}
	return nil
}

// mustRoot resolves a version capability to its root block.
func mustRoot(srv *server.Server, vcap capability.Capability) block.Num {
	root, err := srv.VersionRoot(vcap)
	if err != nil {
		panic(err)
	}
	return root
}

// trim shortens data for display.
func trim(b []byte) string {
	s := string(b)
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}
