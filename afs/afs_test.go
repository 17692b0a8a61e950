package afs_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/afs"
)

func startCluster(t *testing.T, o afs.Options) *afs.Cluster {
	t.Helper()
	if o.DiskBlocks == 0 {
		o.DiskBlocks = 1 << 14
	}
	if o.BlockSize == 0 {
		o.BlockSize = 1024
	}
	c, err := afs.Start(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	f, err := c.CreateFile([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Update(f)
	if err != nil {
		t.Fatal(err)
	}
	data, children, err := v.Read(afs.Root)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || children != 0 {
		t.Fatalf("read %q/%d", data, children)
	}
	if err := v.Write(afs.Root, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("ReadFile = %q", got)
	}
}

func TestConflictSurfacesAsErrConflict(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	f, _ := c.CreateFile(nil)
	v0, _ := c.Update(f)
	v0.Insert(afs.Root, 0, []byte("a"))
	v0.Insert(afs.Root, 1, []byte("b"))
	if err := v0.Commit(); err != nil {
		t.Fatal(err)
	}

	v1, _ := c.Update(f)
	v2, _ := c.Update(f)
	if _, _, err := v1.Read(afs.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := v1.Write(afs.Path{1}, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Write(afs.Path{0}, []byte("overwrite")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := v1.Commit(); !errors.Is(err, afs.ErrConflict) {
		t.Fatalf("err = %v, want afs.ErrConflict", err)
	}
}

func TestWriteFileReadFileConvenience(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("one"))
	if err := c.WriteFile(f, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
}

func TestHistoryTimeTravel(t *testing.T) {
	cluster := startCluster(t, afs.Options{RetainVersions: 10})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("rev0"))
	for i := 1; i <= 3; i++ {
		if err := c.WriteFile(f, []byte(fmt.Sprintf("rev%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := c.History(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history %d", len(hist))
	}
	data, _, err := c.ReadAt(f, hist[1], afs.Root)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "rev1" {
		t.Fatalf("time travel read %q", data)
	}
}

func TestFailoverAndReplacement(t *testing.T) {
	cluster := startCluster(t, afs.Options{Servers: 2})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("ha"))
	cluster.CrashServer(0)
	if cluster.LiveServers() != 1 {
		t.Fatalf("live = %d", cluster.LiveServers())
	}
	if err := c.WriteFile(f, []byte("survived")); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddServer(); err != nil {
		t.Fatal(err)
	}
	if cluster.LiveServers() != 2 {
		t.Fatalf("live after replacement = %d", cluster.LiveServers())
	}
}

func TestStableStorageOption(t *testing.T) {
	cluster := startCluster(t, afs.Options{StableStorage: true})
	c := cluster.NewClient()
	f, err := c.CreateFile([]byte("mirrored"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cluster.Internal().Pair().Halves()
	a.Crash()
	got, err := c.ReadFile(f)
	if err != nil {
		t.Fatalf("read with half storage down: %v", err)
	}
	if string(got) != "mirrored" {
		t.Fatalf("got %q", got)
	}
}

func TestSubFilesAndSuperFileUpdate(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	super, _ := c.CreateFile([]byte("dir"))
	v, _ := c.Update(super)
	sub, err := v.CreateSubFile(afs.Root, 0, []byte("member"))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	// Sub-file is independently accessible.
	if err := c.WriteFile(sub, []byte("member-2")); err != nil {
		t.Fatal(err)
	}
	// And the super-file sees it.
	sv, _ := c.Update(super)
	data, _, err := sv.Read(afs.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "member-2" {
		t.Fatalf("through super: %q", data)
	}
	sv.Abort()
}

func TestGCKeepsRetention(t *testing.T) {
	cluster := startCluster(t, afs.Options{RetainVersions: 2})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("g"))
	for i := 0; i < 6; i++ {
		if err := c.WriteFile(f, []byte(fmt.Sprintf("g%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Collect(); err != nil {
		t.Fatal(err)
	}
	hist, err := c.History(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) > 2 {
		t.Fatalf("history %d after GC with retention 2", len(hist))
	}
	got, _ := c.ReadFile(f)
	if string(got) != "g5" {
		t.Fatalf("current %q", got)
	}
}

func TestBackgroundGC(t *testing.T) {
	cluster := startCluster(t, afs.Options{RetainVersions: 1})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("x"))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { cluster.RunGC(time.Millisecond, stop); close(done) }()
	for i := 0; i < 10; i++ {
		if err := c.WriteFile(f, []byte(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Microsecond)
	}
	close(stop)
	<-done
	got, err := c.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x9" {
		t.Fatalf("got %q", got)
	}
}

func TestRebuildFileTable(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	f, _ := c.CreateFile([]byte("will survive"))
	if err := cluster.RebuildFileTable(); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "will survive" {
		t.Fatalf("got %q", got)
	}
}

func TestParsePath(t *testing.T) {
	p, err := afs.ParsePath("/1/2")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(afs.Path{1, 2}) {
		t.Fatalf("parsed %v", p)
	}
}

func TestUpdateSoftAndRelaxedVariants(t *testing.T) {
	cluster := startCluster(t, afs.Options{})
	c := cluster.NewClient()
	super, _ := c.CreateFile([]byte("s"))
	v, _ := c.Update(super)
	if _, err := v.CreateSubFile(afs.Root, 0, []byte("sub")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}

	// A super-file update holds the top lock...
	v1, err := c.Update(super)
	if err != nil {
		t.Fatal(err)
	}
	// ...which UpdateRelaxed may bypass (§5.3 relaxation): the
	// optimistic layer arbitrates instead.
	v2, err := c.UpdateRelaxed(super)
	if err != nil {
		t.Fatalf("relaxed update blocked: %v", err)
	}
	if err := v2.Write(afs.Root, []byte("relaxed")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := v1.Abort(); err != nil {
		t.Fatal(err)
	}

	// UpdateSoft waits for hints; with nothing held it proceeds.
	v3, err := c.UpdateSoft(super)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v3.Read(afs.Root)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "relaxed" {
		t.Fatalf("read %q", got)
	}
	v3.Abort()
}

func TestDurableDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: write a file on the durable backend, then "crash" —
	// no Close, no shutdown; the cluster is simply abandoned.
	first := startCluster(t, afs.Options{Dir: dir})
	c := first.NewClient()
	f, err := c.CreateFile([]byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(f, []byte("survives the crash")); err != nil {
		t.Fatal(err)
	}

	// Crash (drops the store's file handles and directory lock with no
	// flush — what kill -9 would do).
	first.Abandon()

	// Second life: a fresh cluster on the same directory recovers the
	// file system with nothing but the §4 scan.
	second := startCluster(t, afs.Options{Dir: dir})
	defer second.Close()
	caps, err := second.RecoverFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 1 {
		t.Fatalf("recovered %d files, want 1", len(caps))
	}
	c2 := second.NewClient()
	data, err := c2.ReadFile(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "survives the crash" {
		t.Fatalf("read %q after restart", data)
	}
	// The pre-crash capability is the recovered one: its owner
	// capability is stored in the file's version pages.
	if caps[0] != f {
		t.Fatalf("recovered capability %v, want the pre-crash %v", caps[0], f)
	}
	if data, err := c2.ReadFile(f); err != nil || string(data) != "survives the crash" {
		t.Fatalf("pre-crash capability after restart: %q, %v", data, err)
	}
	// And the file takes new updates through it.
	if err := c2.WriteFile(f, []byte("second life")); err != nil {
		t.Fatal(err)
	}
}
