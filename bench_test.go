// Benchmarks E1–E9: one per experiment of cmd/afs-bench, each keyed to
// a figure or quantitative claim of the paper. cmd/afs-bench runs the
// corresponding parameter sweeps and prints the full tables.
// BenchmarkE13Mirror prices the mirroring layer and has no afs-bench
// table; the benchmark rig in benchmark/ runs mirrored pairs end to end.
package main

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/stable"
	"repro/internal/version"
	"repro/internal/workload"
)

// newBenchServer builds a standalone file service for benchmarks.
func newBenchServer(b *testing.B, blocks, bsize int) *server.Server {
	b.Helper()
	srv, err := workload.NewService(blocks, bsize)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// flatFile creates a file with n child pages and returns its capability.
func flatFile(b *testing.B, srv *server.Server, n int, payload []byte) capability.Capability {
	b.Helper()
	fcap, err := srv.CreateFile(nil)
	if err != nil {
		b.Fatal(err)
	}
	v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := srv.InsertPage(v, page.RootPath, i, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Commit(v); err != nil {
		b.Fatal(err)
	}
	return fcap
}

// BenchmarkE1PageCodec measures the Fig. 3 page layout codec: one
// encode+decode round trip of a version page with a full reference
// table (the disk format every operation pays for).
func BenchmarkE1PageCodec(b *testing.B) {
	f := capability.NewFactory(capability.NewPort().Public())
	p := &page.Page{
		IsVersion:  true,
		FileCap:    f.Register(1),
		VersionCap: f.Register(2),
		RootFlags:  page.FlagC,
		Data:       make([]byte, 1024),
	}
	for i := 0; i < 64; i++ {
		p.Refs = append(p.Refs, page.Ref{Block: block.Num(i + 1), Flags: page.Flags(0).Set(page.FlagR)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := p.Encode(4096)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := page.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2CopyOnWrite measures the §5.1 differential representation
// (Fig. 4): opening a version of an n-page file, writing one page and
// committing. Cost must track the touched path, not file size.
func BenchmarkE2CopyOnWrite(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			srv := newBenchServer(b, 1<<20, 4096)
			fcap := flatFile(b, srv, n, make([]byte, 256))
			payload := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.WritePage(v, page.Path{i % n}, payload); err != nil {
					b.Fatal(err)
				}
				if err := srv.Commit(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3SequentialCommit measures the §5.2 claim that "as long as
// updates are done one after the other, commit always succeeds and
// requires virtually no processing at all": the fast-path commit, and
// the Bauer-principle one-page temporary file.
func BenchmarkE3SequentialCommit(b *testing.B) {
	b.Run("update-commit", func(b *testing.B) {
		srv := newBenchServer(b, 1<<20, 4096)
		fcap := flatFile(b, srv, 4, make([]byte, 128))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
			if err := srv.WritePage(v, page.Path{0}, []byte("x")); err != nil {
				b.Fatal(err)
			}
			if err := srv.Commit(v); err != nil {
				b.Fatal(err)
			}
		}
		if srv.OCCStats().Validations.Load() != 0 {
			b.Fatal("sequential commits validated")
		}
	})
	b.Run("one-page-temp-file", func(b *testing.B) {
		srv := newBenchServer(b, 1<<20, 4096)
		payload := make([]byte, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.CreateFile(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4ConcurrentCommit measures commit under concurrency on a
// shared file (Fig. 6): parallel writers on disjoint pages merge; the
// abort rate is reported as a metric.
func BenchmarkE4ConcurrentCommit(b *testing.B) {
	srv := newBenchServer(b, 1<<20, 4096)
	const pages = 64
	fcap := flatFile(b, srv, pages, make([]byte, 128))
	var retries int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			for {
				v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.WritePage(v, page.Path{i % pages}, []byte("w")); err != nil {
					b.Fatal(err)
				}
				err = srv.Commit(v)
				if err == nil {
					break
				}
				if !errors.Is(err, occ.ErrConflict) {
					b.Fatal(err)
				}
				retries++
			}
		}
	})
	b.ReportMetric(float64(srv.OCCStats().Validations.Load())/float64(b.N), "validations/op")
}

// BenchmarkE4Baselines runs one read-2-write-1 transaction per iteration
// through each system, with retry on concurrency-control rejection — the
// single-row version of afs-bench -exp e4's sweep.
func BenchmarkE4Baselines(b *testing.B) {
	mk := map[string]func() (workload.System, error){
		"occ": func() (workload.System, error) {
			sys, _, err := workload.NewOCCService(1<<20, 4096)
			return sys, err
		},
		"locking": func() (workload.System, error) {
			return workload.NewLockStore(1<<20, 4096)
		},
		"timestamp": func() (workload.System, error) {
			return workload.NewTSStore(1<<20, 4096)
		},
	}
	for _, name := range []string{"occ", "locking", "timestamp"} {
		b.Run(name, func(b *testing.B) {
			sys, err := mk[name]()
			if err != nil {
				b.Fatal(err)
			}
			f, err := sys.CreateFile(64)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for {
					txn, err := sys.Begin(f)
					if err != nil {
						b.Fatal(err)
					}
					_, e1 := txn.Read((i + 1) % 64)
					_, e2 := txn.Read((i + 7) % 64)
					e3 := txn.Write(i%64, payload)
					var err2 error
					if e1 == nil && e2 == nil && e3 == nil {
						err2 = txn.Commit()
					} else {
						txn.Abort()
						err2 = errors.Join(e1, e2, e3)
					}
					if err2 == nil {
						break
					}
					if !sys.Retryable(err2) {
						b.Fatal(err2)
					}
				}
			}
		})
	}
}

// BenchmarkE5SerialiseCost measures the §5.2 claim that the
// serialisability test's cost is "proportional to the size of the
// intersection" of the accessed sets — "quite fast when at least one of
// the concurrent updates is small" — and does not grow with file size:
// unaccessed subtrees are never descended. Files are two-level trees
// (fanout × fanout leaves); updates write leaves under different
// interior pages.
func BenchmarkE5SerialiseCost(b *testing.B) {
	for _, tc := range []struct {
		name         string
		fanout       int
		bSize, cSize int
	}{
		{"small-vs-small/leaves=256", 16, 1, 1},
		{"small-vs-large/leaves=256", 16, 1, 64},
		{"large-vs-large/leaves=256", 16, 64, 64},
		{"small-vs-small/leaves=1024", 32, 1, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d := disk.MustNew(disk.Geometry{Blocks: 1 << 20, BlockSize: 4096})
			st := version.NewStore(block.NewServer(d), 1)
			com := occ.NewCommitter(st)
			fact := capability.NewFactory(capability.NewPort().Public())
			base, err := version.CreateFile(st, fact.Register(1), fact.Register(2), nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tc.fanout; i++ {
				if err := base.InsertPage(page.RootPath, i, nil); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < tc.fanout; j++ {
					if err := base.InsertPage(page.Path{i}, j, []byte("leaf")); err != nil {
						b.Fatal(err)
					}
				}
			}
			// leafPath addresses leaf k in row-major order.
			leafPath := func(k int) page.Path {
				return page.Path{k / tc.fanout, k % tc.fanout}
			}
			total := tc.fanout * tc.fanout
			// c writes cSize leaves at the high end and commits.
			vc, _ := version.CreateVersion(st, base.Root, fact.Register(3))
			for i := 0; i < tc.cSize; i++ {
				vc.WritePage(leafPath(total-1-i), []byte("c"))
			}
			if err := com.Commit(vc, capability.NilPort); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// b writes bSize leaves at the low end (disjoint).
				vb, _ := version.CreateVersion(st, base.Root, fact.Register(uint32(10+i)))
				for j := 0; j < tc.bSize; j++ {
					vb.WritePage(leafPath(j), []byte("b"))
				}
				b.StartTimer()
				ok, err := com.Serialise(vb, vc.Root)
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			b.ReportMetric(float64(com.Stat.PagesCompared.Load())/float64(b.N), "pages-compared/op")
		})
	}
}

// BenchmarkE6SuperFile measures the §5.3 locking discipline: a
// super-file update (top lock + inner lock + sub-file commit) against a
// plain small-file update.
func BenchmarkE6SuperFile(b *testing.B) {
	b.Run("small-file-update", func(b *testing.B) {
		srv := newBenchServer(b, 1<<20, 4096)
		fcap := flatFile(b, srv, 4, make([]byte, 128))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
			srv.WritePage(v, page.Path{0}, []byte("s"))
			if err := srv.Commit(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("super-file-update", func(b *testing.B) {
		srv := newBenchServer(b, 1<<20, 4096)
		superCap, err := srv.CreateFile([]byte("super"))
		if err != nil {
			b.Fatal(err)
		}
		v, _ := srv.CreateVersion(superCap, server.CreateVersionOpts{})
		if _, err := srv.CreateSubFile(v, page.RootPath, 0, []byte("sub")); err != nil {
			b.Fatal(err)
		}
		if err := srv.Commit(v); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := srv.CreateVersion(superCap, server.CreateVersionOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.WritePage(v, page.Path{0}, []byte("x")); err != nil {
				b.Fatal(err)
			}
			if err := srv.Commit(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7CacheValidation measures the §5.4 cache: an update+read
// cycle against an unshared file with and without the client cache. The
// cached variant moves no page data and its validation is a null
// operation.
func BenchmarkE7CacheValidation(b *testing.B) {
	run := func(b *testing.B, useCache bool) {
		cl, fcap := newBenchClient(b)
		// Warm.
		v, err := cl.Update(fcap, clientOpts())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := v.Read(page.RootPath); err != nil {
			b.Fatal(err)
		}
		v.Abort()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !useCache {
				cl.Cache.Drop(fcap.Object)
			}
			v, err := cl.Update(fcap, clientOpts())
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := v.Read(page.RootPath); err != nil {
				b.Fatal(err)
			}
			v.Abort()
		}
		st := cl.Stats()
		b.ReportMetric(float64(st.BytesFetched)/float64(b.N), "bytes-fetched/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("cached", func(b *testing.B) { run(b, true) })
}

// BenchmarkE8StableStorage measures the §4 paired block servers: the
// write path costs one extra companion write; reads stay local.
func BenchmarkE8StableStorage(b *testing.B) {
	geo := disk.Geometry{Blocks: 1 << 16, BlockSize: 4096}
	payload := make([]byte, 4096)
	b.Run("single/write", func(b *testing.B) {
		s := block.NewServer(disk.MustNew(geo))
		n, _ := s.Alloc(1, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(1, n, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pair/write", func(b *testing.B) {
		p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
		n, _ := p.Alloc(1, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Write(1, n, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pair/read", func(b *testing.B) {
		p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
		n, _ := p.Alloc(1, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Read(1, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13Mirror measures the generalised mirroring layer over the
// durable backend plus its failure paths: the mirrored-write penalty on
// segstore pairs, the corrupt-read fallback-and-repair, and the
// intentions-replay rejoin.
func BenchmarkE13Mirror(b *testing.B) {
	geo := disk.Geometry{Blocks: 1 << 12, BlockSize: 4096}
	payload := make([]byte, 4096)
	newSeg := func(b *testing.B) *segstore.Store {
		st, err := segstore.Open(b.TempDir(), segstore.Options{BlockSize: 4096, Capacity: 1 << 12})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	}
	b.Run("seg-pair/write", func(b *testing.B) {
		p := stable.NewFailoverPair(newSeg(b), newSeg(b))
		n, err := p.Alloc(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Write(1, n, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mem-pair/corrupt-fallback-read", func(b *testing.B) {
		da := disk.MustNew(geo)
		p := stable.NewFailoverPair(block.NewServer(da), block.NewServer(disk.MustNew(geo)))
		n, err := p.Alloc(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := da.InjectCorruption(int(n)); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Read(1, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mem-pair/rejoin-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := stable.NewFailoverPair(block.NewServer(disk.MustNew(geo)), block.NewServer(disk.MustNew(geo)))
			a, half := p.Halves()
			n, err := p.Alloc(1, payload)
			if err != nil {
				b.Fatal(err)
			}
			half.Crash()
			for w := 0; w < 32; w++ {
				if err := a.Write(1, n, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := half.Rejoin(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9CrashRecovery measures what it takes to resume service
// after a server crash: the optimistic design needs nothing but failover
// (no rollback, no lock clearing, no intentions lists); the locking
// baseline must redo its journal.
func BenchmarkE9CrashRecovery(b *testing.B) {
	b.Run("occ/failover", func(b *testing.B) {
		// Time from crash to the first successful operation on a
		// sibling server: pure failover, zero repair.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cl, fcap, crash := newCrashableCluster(b)
			v, err := cl.Update(fcap, clientOpts())
			if err != nil {
				b.Fatal(err)
			}
			v.Write(page.RootPath, []byte("in-flight"))
			b.StartTimer()
			crash()
			redo, err := cl.Update(fcap, clientOpts())
			if err != nil {
				b.Fatal(err)
			}
			if err := redo.Write(page.RootPath, []byte("redone")); err != nil {
				b.Fatal(err)
			}
			if err := redo.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("locking/recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := newCrashedLockStore(b, 64)
			b.StartTimer()
			rep := st.Recover()
			if rep.IntentionsRedone == 0 {
				b.Fatal("nothing recovered")
			}
		}
	})
}
