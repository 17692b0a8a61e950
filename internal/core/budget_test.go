package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/page"
)

// TestRewriteCommitFsyncs counts the fsyncs of one commit that rewrites
// a 64-page file on the rig's shape (two shards, each a mirrored pair of
// segment logs), with two lanes per log so the count does not depend on
// the host's CPUs. The commit's shadow pages are allocated through the
// pairs: each companion mirrors the serving half's whole AllocMulti in
// one durable group per lane, not one claim record per page.
func TestRewriteCommitFsyncs(t *testing.T) {
	cfg := rigConfig(t.TempDir())
	cfg.Backend.LogShards = 2
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
		if err := v.Write(page.Path{p}, []byte(fmt.Sprintf("rewrite %d", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got > 24 {
		t.Fatalf("one %d-page rewrite commit made %d fsyncs over every segment log, want <= 24", pages, got)
	} else {
		t.Logf("one %d-page rewrite commit: %d fsyncs over every segment log", pages, got)
	}
}

// TestReadOnlyUpdateFsyncs counts the fsyncs of the read path on the same
// rig shape as TestRewriteCommitFsyncs. A read records its path in the
// server's read set and writes nothing, so an update that reads eight
// pages and aborts pays only for creating the version (its root and the
// top-lock hint) and for clearing the hint: 6 fsyncs, where shadowing
// every read at once cost 38. An update that reads one page and rewrites
// it pays for one copy-on-write pass at its commit, where the read's
// flags go out with the write: 12 fsyncs, 14 when the read was shadowed
// on its own.
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
	if got := syncs() - before; got > 6 {
		t.Fatalf("update, 8 reads, abort: %d fsyncs over every segment log, want <= 6", got)
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
	if got := syncs() - before; got > 12 {
		t.Fatalf("update, read 1, rewrite it, commit: %d fsyncs over every segment log, want <= 12", got)
	} else {
		t.Logf("update, read 1, rewrite it, commit: %d fsyncs over every segment log", got)
	}
}
