package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/page"
)

// TestRewriteCommitFsyncs counts the fsyncs of one commit that rewrites
// a 64-page file on the rig's shape (two shards, each a mirrored pair of
// segment logs), with two lanes per log so the count does not depend on
// the host's CPUs. The commit's shadow pages — and the new version's
// root, which creation no longer allocates — are allocated through the
// pairs: each companion mirrors the serving half's whole AllocMulti in
// one durable group per lane, not one claim record per page. With 1 KiB
// blocks the commit makes 14 fsyncs (18 while creation allocated the
// root). At the benchmark's block size, 4 KiB blocks holding 4000-byte
// pages, it makes 40 (44 before): a page per block, so the 64 shadows
// take many more wire frames per half.
func TestRewriteCommitFsyncs(t *testing.T) {
	for _, c := range []struct {
		blockSize, pageBytes int
		most                 uint64
	}{
		{1024, 9, 14},
		{4096, 4000, 40},
	} {
		if got := rewriteCommitFsyncs(t, c.blockSize, c.pageBytes); got > c.most {
			t.Fatalf("%d-byte blocks: one 64-page rewrite commit made %d fsyncs over every segment log, want <= %d", c.blockSize, got, c.most)
		} else {
			t.Logf("%d-byte blocks: one 64-page rewrite commit: %d fsyncs over every segment log", c.blockSize, got)
		}
	}
}

// rewriteCommitFsyncs builds a 64-page file on the rig's shape with the
// given block size, then counts the fsyncs of one update that rewrites
// every page with pageBytes of data and commits.
func rewriteCommitFsyncs(t *testing.T, blockSize, pageBytes int) uint64 {
	t.Helper()
	cfg := rigConfig(t.TempDir())
	cfg.Backend.LogShards = 2
	cfg.Backend.BlockSize = blockSize
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()
	const pages = 64
	fc, err := cl.CreateFile([]byte("budget"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.Update(fc, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := v.Insert(page.RootPath, p, []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	c.FlushTables(30 * time.Second)

	syncs := func() (n uint64) {
		for _, st := range c.storage {
			for _, seg := range st.Segs {
				n += seg.Stats().Syncs
			}
		}
		return n
	}
	before := syncs()
	v, err = cl.Update(fc, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		data := []byte(fmt.Sprintf("rewrite %d", p))
		data = append(data, bytes.Repeat([]byte{'.'}, max(0, pageBytes-len(data)))...)
		if err := v.Write(page.Path{p}, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	return syncs() - before
}

// TestReadOnlyUpdateFsyncs counts the fsyncs of the read path on the same
// rig shape as TestRewriteCommitFsyncs. A read records its path in the
// server's read set and writes nothing, and creating a version allocates
// nothing, so an update that reads eight pages and aborts pays only for
// the top-lock hint's write and its clear: 4 fsyncs (6 while creation
// allocated the root; 38 when every read was shadowed at once). An
// update that reads one page and rewrites it waits on four durable
// rounds: the hint, the flush's alloc of the root and the shadow, the
// flush's write of the root, and the commit reference, which clears the
// hint in the same write. That is 10 fsyncs, two per round on one
// shard's pair and two more for the alloc, whose two pages the sharded
// facade places on both shards (12 in six rounds while creation
// allocated the root and the commit cleared the hint on its own; 14 when
// the read was shadowed on its own).
func TestReadOnlyUpdateFsyncs(t *testing.T) {
	cfg := rigConfig(t.TempDir())
	cfg.Backend.LogShards = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()
	const pages = 32
	fc, err := cl.CreateFile([]byte("budget"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.Update(fc, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := v.Insert(page.RootPath, p, []byte(fmt.Sprint("page ", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	c.FlushTables(30 * time.Second)
	syncs := func() (n uint64) {
		for _, st := range c.storage {
			for _, seg := range st.Segs {
				n += seg.Stats().Syncs
			}
		}
		return n
	}

	before := syncs()
	v, err = cl.Update(fc, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p += 4 {
		if data, _, err := v.Read(page.Path{p}); err != nil || string(data) != fmt.Sprint("page ", p) {
			t.Fatalf("read /%d: %q, %v", p, data, err)
		}
	}
	if err := v.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got > 4 {
		t.Fatalf("update, 8 reads, abort: %d fsyncs over every segment log, want <= 4", got)
	} else {
		t.Logf("update, 8 reads, abort: %d fsyncs over every segment log", got)
	}

	before = syncs()
	v, err = cl.Update(fc, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(page.Path{5}); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.Path{5}, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got > 10 {
		t.Fatalf("update, read 1, rewrite it, commit: %d fsyncs over every segment log, want <= 10", got)
	} else {
		t.Logf("update, read 1, rewrite it, commit: %d fsyncs over every segment log", got)
	}
}
