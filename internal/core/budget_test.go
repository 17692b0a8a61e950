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
