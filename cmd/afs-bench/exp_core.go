package main

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/version"
	"repro/internal/workload"
)

// newService builds a fresh single-server service for an experiment.
func newService() (*server.Server, error) {
	return workload.NewService(1<<20, 4096)
}

// newSegStore opens a durable store (group commit) in a fresh temp
// directory; cleanup closes it and removes the directory.
func newSegStore() (*segstore.Store, func(), error) {
	dir, err := os.MkdirTemp("", "afs-bench-seg-")
	if err != nil {
		return nil, nil, err
	}
	st, err := segstore.Open(dir, segstore.Options{BlockSize: 4096, Capacity: 1 << 20})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// flatFile creates a file with n child pages.
func flatFile(srv *server.Server, n int, payload []byte) (capability.Capability, error) {
	fcap, err := srv.CreateFile(nil)
	if err != nil {
		return capability.Nil, err
	}
	v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err != nil {
		return capability.Nil, err
	}
	for i := 0; i < n; i++ {
		if err := srv.InsertPage(v, page.RootPath, i, payload); err != nil {
			return capability.Nil, err
		}
	}
	return fcap, srv.Commit(v)
}

// runE1 exercises the Fig. 3 page layout: the 13 legal flag states and
// the encoded sizes of representative pages.
func runE1() error {
	fmt.Println("\nThe 13 legal CRWSM flag combinations (4-bit codes):")
	header("code", "flags", "read-set", "write-set")
	for code, f := range page.LegalStates() {
		row(code, f.String(), f.InReadSet(), f.InWriteSet())
	}

	fmt.Println("\nEncoded page sizes (4096-byte blocks):")
	header("page kind", "header B", "refs", "data B", "total B")
	fact := capability.NewFactory(capability.NewPort().Public())
	vp := &page.Page{
		IsVersion: true, FileCap: fact.Mint(1), VersionCap: fact.Mint(2),
		RootFlags: page.FlagC, Data: make([]byte, 1024),
	}
	for i := 0; i < 16; i++ {
		vp.Refs = append(vp.Refs, page.Ref{Block: block.Num(i + 1)})
	}
	plain := &page.Page{Data: make([]byte, 2048), Refs: make([]page.Ref, 8)}
	for _, p := range []*page.Page{vp, plain} {
		kind := "plain"
		if p.IsVersion {
			kind = "version"
		}
		row(kind, p.Overhead(), len(p.Refs), len(p.Data), p.EncodedSize())
	}
	fmt.Printf("\nmax data in a one-page file (32K message bound): %d bytes\n",
		page.Capacity(32*1024, 0, true))
	return nil
}

// runE2 measures the differential (copy-on-write) representation: blocks
// written per update and blocks shared between consecutive versions, as
// a function of file size.
func runE2() error {
	fmt.Println("\nOne-page update of an n-page file: private vs shared blocks")
	header("file pages", "blocks/version", "private", "shared", "update µs")
	for _, n := range []int{8, 64, 512} {
		srv, err := newService()
		if err != nil {
			return err
		}
		fcap, err := flatFile(srv, n, make([]byte, 256))
		if err != nil {
			return err
		}
		start := time.Now()
		v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
		if err != nil {
			return err
		}
		if err := srv.WritePage(v, page.Path{n / 2}, make([]byte, 256)); err != nil {
			return err
		}
		if err := srv.Commit(v); err != nil {
			return err
		}
		elapsed := time.Since(start)

		root, err := srv.CurrentVersion(fcap)
		if err != nil {
			return err
		}
		tr := &version.Tree{St: srv.Store(), Root: root}
		all, err := tr.Blocks()
		if err != nil {
			return err
		}
		priv, err := tr.PrivateBlocks()
		if err != nil {
			return err
		}
		row(n, len(all), len(priv), len(all)-len(priv), float64(elapsed.Microseconds()))
	}
	fmt.Println("\nThe private set stays flat while the file grows: a new version")
	fmt.Println("shares its whole tree except the root and the written path (§5.1).")
	return nil
}

// runE3 measures sequential commits: latency and the absence of any
// validation work, including the one-page temporary file fast path.
func runE3() error {
	const rounds = 2000
	fmt.Println("\nSequential update+commit on one file (no concurrency):")
	header("file pages", "commits", "µs/commit", "validations", "fast-path %")
	for _, n := range []int{1, 16, 128} {
		srv, err := newService()
		if err != nil {
			return err
		}
		fcap, err := flatFile(srv, n, make([]byte, 128))
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
			if err != nil {
				return err
			}
			if err := srv.WritePage(v, page.Path{i % n}, []byte("x")); err != nil {
				return err
			}
			if err := srv.Commit(v); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		st := srv.OCCStats()
		fast := 100 * float64(st.FastCommits.Load()) / float64(st.Commits.Load())
		row(n, rounds, float64(elapsed.Microseconds())/rounds,
			st.Validations.Load(), fast)
	}

	fmt.Println("\nOne-page temporary files (the Bauer-principle path):")
	srv, err := newService()
	if err != nil {
		return err
	}
	start := time.Now()
	const temps = 2000
	for i := 0; i < temps; i++ {
		if _, err := srv.CreateFile(make([]byte, 1024)); err != nil {
			return err
		}
	}
	fmt.Printf("created %d one-page files in %v (%.1f µs each); validations: %d\n",
		temps, time.Since(start).Round(time.Millisecond),
		float64(time.Since(start).Microseconds())/temps,
		srv.OCCStats().Validations.Load())
	return nil
}

// runE4 is the central comparison: throughput and abort rate of the
// optimistic service against the locking and timestamp baselines as
// contention and update size grow. The paper's qualitative claims (§3.1):
// optimistic maximises concurrency when conflicts are rare; locking is
// preferable when updates are large and conflict probability high.
func runE4() error {
	type variant struct {
		name string
		mk   func() (workload.System, func(), error)
	}
	nop := func() {}
	variants := []variant{
		{"occ", func() (workload.System, func(), error) {
			sys, _, err := workload.NewOCCService(1<<20, 4096)
			return sys, nop, err
		}},
		// The same optimistic service over the durable segment-log
		// store: every block write is group-committed to the real
		// filesystem, so this row is the durable-path cost of the
		// central experiment.
		{"occ-seg", func() (workload.System, func(), error) {
			st, cleanup, err := newSegStore()
			if err != nil {
				return nil, nil, err
			}
			return workload.NewOCC(workload.NewServiceOn(st)), cleanup, nil
		}},
		{"locking", func() (workload.System, func(), error) {
			sys, err := workload.NewLockStore(1<<20, 4096)
			return sys, nop, err
		}},
		{"timestamp", func() (workload.System, func(), error) {
			sys, err := workload.NewTSStore(1<<20, 4096)
			return sys, nop, err
		}},
	}

	base := workload.Config{
		Files:        4,
		PagesPerFile: 64,
		PageSize:     256,
		Clients:      6,
		TxnsPerCli:   50,
		ReadsPerTxn:  2,
		WritesPerTxn: 1,
		HotPages:     2,
		MaxRetries:   300,
		ThinkTime:    50 * time.Microsecond,
		Seed:         1,
	}

	fmt.Println("\n(a) Small updates (2 reads + 1 write), contention sweep:")
	header("hot-frac", "system", "thpt txn/s", "abort %", "mean txn µs", "failed")
	var leadsA []string
	for _, hot := range []float64{0, 0.3, 0.7} {
		var rows []workload.Result
		for _, v := range variants {
			sys, cleanup, err := v.mk()
			if err != nil {
				return err
			}
			cfg := base
			cfg.HotFrac = hot
			res, err := workload.Run(sys, cfg)
			cleanup()
			if err != nil {
				return err
			}
			row(hot, v.name, res.Throughput, 100*res.AbortRate,
				float64(res.MeanTxn.Microseconds()), res.Failed)
			res.System = v.name
			rows = append(rows, res)
		}
		leadsA = append(leadsA, fmt.Sprintf("%s at hot-frac %g", leader(rows).System, hot))
	}

	fmt.Println("\n(b) Large, slow updates (4 reads + 8 writes, 500 µs of client work")
	fmt.Println("    per operation) all on ONE heavily shared file — the §3.1 regime")
	fmt.Println("    where locking 'is more suitable': redone work dominates.")
	header("system", "thpt txn/s", "abort %", "mean txn ms", "failed")
	var rowsB []workload.Result
	for _, v := range variants {
		sys, cleanup, err := v.mk()
		if err != nil {
			return err
		}
		cfg := base
		cfg.Files = 1
		cfg.PagesPerFile = 16
		cfg.ReadsPerTxn = 4
		cfg.WritesPerTxn = 8
		cfg.HotFrac = 0
		cfg.TxnsPerCli = 20
		cfg.ThinkTime = 500 * time.Microsecond
		res, err := workload.Run(sys, cfg)
		cleanup()
		if err != nil {
			return err
		}
		row(v.name, res.Throughput, 100*res.AbortRate,
			float64(res.MeanTxn.Microseconds())/1000, res.Failed)
		res.System = v.name
		rowsB = append(rowsB, res)
	}
	// The reading is taken from the rows above, not written in advance.
	fmt.Printf("\nReading the tables, as measured: in (a) the throughput lead went to\n%s.\n", strings.Join(leadsA, ", "))
	fmt.Println("The paper expects the optimistic service to lead there: it exploits")
	fmt.Println("page-level disjointness that file-level locks cannot see (§6).")
	opt, lck, ts, lead := rowsB[0], rowsB[2], rowsB[3], leader(rowsB) // variants order
	fmt.Printf("In (b) %s led (%.1f txn/s); locking ran %.1f txn/s against occ's %.1f,\n",
		lead.System, lead.Throughput, lck.Throughput, opt.Throughput)
	verdict := "is not reproduced"
	if lck.Throughput > opt.Throughput {
		verdict = "is reproduced"
	}
	fmt.Printf("so §3.1's claim that locking suits large, slow updates on one shared file\n%s at these parameters. The timestamp arm aborted %.0f %% of its attempts.\n",
		verdict, 100*ts.AbortRate)
	return nil
}

// leader returns the row with the highest throughput.
func leader(rows []workload.Result) workload.Result {
	return slices.MaxFunc(rows, func(a, b workload.Result) int { return cmp.Compare(a.Throughput, b.Throughput) })
}

// runE5 sweeps the serialisability test cost against update sizes and
// file size: pages compared ∝ accessed sets, not file width.
func runE5() error {
	fmt.Println("\nValidation of two disjoint concurrent updates of a fanout² tree:")
	header("leaves", "b writes", "c writes", "pages compared", "serialise µs")
	for _, tc := range []struct{ fanout, bw, cw int }{
		{16, 1, 1}, {16, 1, 64}, {16, 64, 64},
		{32, 1, 1}, {32, 1, 64},
	} {
		d := disk.MustNew(disk.Geometry{Blocks: 1 << 20, BlockSize: 4096})
		st := version.NewStore(block.NewServer(d), 1)
		com := occ.NewCommitter(st)
		fact := capability.NewFactory(capability.NewPort().Public())
		base, err := version.CreateFile(st, fact.Mint(1), fact.Mint(2), nil)
		if err != nil {
			return err
		}
		for i := 0; i < tc.fanout; i++ {
			if err := base.InsertPage(page.RootPath, i, nil); err != nil {
				return err
			}
			for j := 0; j < tc.fanout; j++ {
				if err := base.InsertPage(page.Path{i}, j, []byte("leaf")); err != nil {
					return err
				}
			}
		}
		total := tc.fanout * tc.fanout
		leaf := func(k int) page.Path { return page.Path{k / tc.fanout, k % tc.fanout} }
		vc, err := version.CreateVersion(st, base.Root, fact.Mint(3))
		if err != nil {
			return err
		}
		for i := 0; i < tc.cw; i++ {
			if err := vc.WritePage(leaf(total-1-i), []byte("c")); err != nil {
				return err
			}
		}
		if err := com.Commit(vc, capability.NilPort); err != nil {
			return err
		}
		const reps = 50
		var elapsed time.Duration
		for r := 0; r < reps; r++ {
			vb, err := version.CreateVersion(st, base.Root, fact.Mint(uint32(10+r)))
			if err != nil {
				return err
			}
			for j := 0; j < tc.bw; j++ {
				if err := vb.WritePage(leaf(j), []byte("b")); err != nil {
					return err
				}
			}
			start := time.Now()
			ok, err := com.Serialise(vb, vc.Root)
			elapsed += time.Since(start)
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("disjoint updates conflicted")
			}
		}
		row(total, tc.bw, tc.cw, com.Stat.PagesCompared.Load()/reps,
			float64(elapsed.Microseconds())/reps)
	}
	fmt.Println("\nPages compared tracks the root table plus the touched region; the")
	fmt.Println("1024-leaf file costs the same as the 256-leaf file for one-page")
	fmt.Println("updates because unaccessed subtrees are never descended (§5.2).")
	return nil
}
