package server

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/version"
)

func newService(t *testing.T) (*Shared, *Server) {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})
	sh := NewShared(block.NewServer(d), 1)
	s := New(sh, nil)
	s.locks.Poll = 50 * time.Microsecond
	s.locks.Patience = 200 * time.Millisecond
	return sh, s
}

func TestCreateReadWriteCommitCycle(t *testing.T) {
	_, s := newService(t)
	fcap, err := s.CreateFile([]byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	vcap, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, nrefs, err := s.ReadPage(vcap, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v0" || nrefs != 0 {
		t.Fatalf("read %q nrefs=%d", data, nrefs)
	}
	if err := s.WritePage(vcap, page.RootPath, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(vcap); err != nil {
		t.Fatal(err)
	}

	// A fresh version sees the committed state.
	v2, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err = s.ReadPage(v2, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v1" {
		t.Fatalf("second version reads %q", data)
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile(nil)

	forged := fcap
	forged.Check ^= 1
	if _, err := s.CreateVersion(forged, CreateVersionOpts{}); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("forged file cap accepted: %v", err)
	}

	// A read-only version capability cannot write or commit.
	vcap, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := s.Shared().Fact.Restrict(vcap, capability.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadPage(ro, page.RootPath); err != nil {
		t.Fatalf("read with read cap: %v", err)
	}
	if err := s.WritePage(ro, page.RootPath, []byte("x")); !errors.Is(err, capability.ErrRights) {
		t.Fatalf("write with read cap: %v", err)
	}
	if err := s.Commit(ro); !errors.Is(err, capability.ErrRights) {
		t.Fatalf("commit with read cap: %v", err)
	}
}

func TestConflictAbortsVersion(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile(nil)
	setup, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	s.InsertPage(setup, page.RootPath, 0, []byte("a"))
	s.InsertPage(setup, page.RootPath, 1, []byte("b"))
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	v1, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	v2, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	// v1 reads page 0 then writes page 1; v2 writes page 0.
	if _, _, err := s.ReadPage(v1, page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v1, page.Path{1}, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v2, page.Path{0}, []byte("clobber")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v1); !errors.Is(err, occ.ErrConflict) {
		t.Fatalf("commit err = %v, want conflict", err)
	}
	// The aborted version is closed.
	if err := s.WritePage(v1, page.Path{1}, []byte("again")); !errors.Is(err, ErrVersionClosed) {
		t.Fatalf("write to aborted version: %v", err)
	}
	// The client redoes the update on a fresh version and succeeds.
	v3, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if _, _, err := s.ReadPage(v3, page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v3, page.Path{1}, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v3); err != nil {
		t.Fatalf("redo failed: %v", err)
	}
}

func TestDoubleCommitRefused(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile(nil)
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); !errors.Is(err, ErrVersionClosed) {
		t.Fatalf("second commit: %v", err)
	}
}

func TestAbortReleasesAndDiscards(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile([]byte("keep"))
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if err := s.WritePage(v, page.RootPath, []byte("discard")); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(v); err != nil {
		t.Fatal(err)
	}
	v2, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	data, _, _ := s.ReadPage(v2, page.RootPath)
	if string(data) != "keep" {
		t.Fatalf("aborted write visible: %q", data)
	}
}

func TestHistoryAndTimeTravel(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile([]byte("gen0"))
	for i := 1; i <= 3; i++ {
		v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
		if err := s.WritePage(v, page.RootPath, []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := s.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history has %d versions, want 4", len(hist))
	}
	// Committed versions represent past states of the file (§5).
	for i, root := range hist {
		data, _, err := s.ReadCommitted(root, page.RootPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fmt.Sprintf("gen%d", i) {
			t.Fatalf("version %d = %q", i, data)
		}
	}
}

func TestSmallFileConcurrentUpdatesAllowed(t *testing.T) {
	// §5.3: "a small file can be subject to more than one update at the
	// same time, using the optimistic method of concurrency control."
	_, s := newService(t)
	fcap, _ := s.CreateFile(nil)
	setup, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	s.InsertPage(setup, page.RootPath, 0, []byte("x"))
	s.InsertPage(setup, page.RootPath, 1, []byte("y"))
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	v1, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.CreateVersion(fcap, CreateVersionOpts{}) // concurrent: no waiting
	if err != nil {
		t.Fatal(err)
	}
	s.WritePage(v1, page.Path{0}, []byte("one"))
	s.WritePage(v2, page.Path{1}, []byte("two"))
	if err := s.Commit(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v2); err != nil {
		t.Fatal(err)
	}
	v3, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	d0, _, _ := s.ReadPage(v3, page.Path{0})
	d1, _, _ := s.ReadPage(v3, page.Path{1})
	if string(d0) != "one" || string(d1) != "two" {
		t.Fatalf("merged: %q %q", d0, d1)
	}
}

// buildSuper creates a super-file with one sub-file and returns both
// capabilities. Layout: super root has page 0 (plain) and the sub-file at
// index 1; the sub-file root holds subData.
func buildSuper(t *testing.T, s *Server, subData string) (superCap, subCap capability.Capability) {
	t.Helper()
	superCap, err := s.CreateFile([]byte("super-root"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertPage(v, page.RootPath, 0, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	subCap, err = s.CreateSubFile(v, page.RootPath, 1, []byte(subData))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	return superCap, subCap
}

func TestSubFileCreationMarksSuper(t *testing.T) {
	sh, s := newService(t)
	superCap, subCap := buildSuper(t, s, "sub-data")
	e, err := sh.Table.Get(superCap.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Super {
		t.Fatal("file not marked super after sub-file creation")
	}
	// The sub-file is a real file: it has its own entry and chain.
	if _, err := sh.Table.Get(subCap.Object); err != nil {
		t.Fatal(err)
	}
}

func TestSuperFileUpdateCrossesBoundary(t *testing.T) {
	_, s := newService(t)
	superCap, subCap := buildSuper(t, s, "old-sub")

	// Update the super-file, writing into the sub-file through the
	// nested path /1 (the sub-file's root page).
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := s.ReadPage(v, page.Path{1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old-sub" {
		t.Fatalf("read through boundary: %q", data)
	}
	if err := s.WritePage(v, page.Path{1}, []byte("new-sub")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}

	// The sub-file's own chain advanced: a small-file update of the
	// sub-file sees the new data.
	sv, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err = s.ReadPage(sv, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new-sub" {
		t.Fatalf("sub-file chain reads %q, want new-sub", data)
	}
	// And its history shows two committed versions.
	hist, err := s.History(subCap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("sub-file history %d, want 2", len(hist))
	}
}

func TestSuperFileUpdateExclusive(t *testing.T) {
	_, s := newService(t)
	superCap, _ := buildSuper(t, s, "sub")

	v1, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A second super-file update must wait on the top lock; with a
	// short patience it times out while v1 is open.
	s.locks.Patience = 10 * time.Millisecond
	if _, err := s.CreateVersion(superCap, CreateVersionOpts{}); err == nil {
		t.Fatal("concurrent super-file update allowed")
	}
	s.locks.Patience = 200 * time.Millisecond
	if err := s.Commit(v1); err != nil {
		t.Fatal(err)
	}
	// After commit the locks are clear and a new update proceeds.
	if _, err := s.CreateVersion(superCap, CreateVersionOpts{}); err != nil {
		t.Fatalf("update after commit: %v", err)
	}
}

func TestRelaxedSuperLockAllowsConcurrency(t *testing.T) {
	_, s := newService(t)
	superCap, _ := buildSuper(t, s, "sub")
	v1, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// §5.3 relaxation: version creation allowed despite the top lock;
	// the OCC underneath arbitrates.
	v2, err := s.CreateVersion(superCap, CreateVersionOpts{RelaxSuperLock: true})
	if err != nil {
		t.Fatalf("relaxed creation failed: %v", err)
	}
	if err := s.WritePage(v1, page.Path{0}, []byte("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v2, page.RootPath, []byte("p2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v2); err != nil {
		t.Fatalf("relaxed disjoint update aborted: %v", err)
	}
}

func TestSubFileSmallUpdateBlockedDuringSuperUpdate(t *testing.T) {
	_, s := newService(t)
	superCap, subCap := buildSuper(t, s, "sub")

	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Touch the sub-file so the update inner-locks it.
	if err := s.WritePage(v, page.Path{1}, []byte("locked-write")); err != nil {
		t.Fatal(err)
	}
	// A small-file update of the sub-file tests the inner lock and must
	// wait; with short patience it times out.
	s.locks.Patience = 10 * time.Millisecond
	_, err = s.CreateVersion(subCap, CreateVersionOpts{})
	if err == nil {
		t.Fatal("sub-file update allowed during super-file update")
	}
	s.locks.Patience = 200 * time.Millisecond
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	// After the super commit the inner lock is clear.
	sv, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatalf("sub-file update after super commit: %v", err)
	}
	data, _, _ := s.ReadPage(sv, page.RootPath)
	if string(data) != "locked-write" {
		t.Fatalf("sub-file reads %q", data)
	}
}

func TestSoftLockRespectsTopHint(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile([]byte("x"))
	v1, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A soft-locking client postpones its update while the hint is set.
	s.locks.Patience = 10 * time.Millisecond
	if _, err := s.CreateVersion(fcap, CreateVersionOpts{RespectTopHint: true}); err == nil {
		t.Fatal("soft-lock client proceeded against top hint")
	}
	s.locks.Patience = 200 * time.Millisecond
	if err := s.Commit(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateVersion(fcap, CreateVersionOpts{RespectTopHint: true}); err != nil {
		t.Fatalf("soft-lock client after commit: %v", err)
	}
}

func TestServerCrashLosesVersionsButNotFiles(t *testing.T) {
	sh, s := newService(t)
	fcap, _ := s.CreateFile([]byte("durable"))
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if err := s.WritePage(v, page.RootPath, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	if _, _, err := s.ReadPage(v, page.RootPath); err == nil {
		t.Fatal("crashed server answered")
	}

	// Another server of the same service carries on: the file is intact
	// and the in-flight update is simply gone.
	s2 := New(sh, nil)
	v2, err := s2.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := s2.ReadPage(v2, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("failover read %q", data)
	}
}

func TestCrashedServersTopHintRecovered(t *testing.T) {
	sh, s := newService(t)
	fcap, _ := s.CreateFile([]byte("x"))
	if _, err := s.CreateVersion(fcap, CreateVersionOpts{}); err != nil {
		t.Fatal(err)
	}
	// The server dies holding the top hint on the current version.
	s.Crash()

	// A soft-locking client on another server probes the holder, finds
	// it dead (probe always false here), recovers the lock and
	// proceeds.
	s2 := New(sh, func(capability.Port) bool { return false })
	s2.locks.Poll = 50 * time.Microsecond
	if _, err := s2.CreateVersion(fcap, CreateVersionOpts{RespectTopHint: true}); err != nil {
		t.Fatalf("recovery of crashed holder's hint failed: %v", err)
	}
}

func TestFileTableRebuildAfterTotalCrash(t *testing.T) {
	sh, s := newService(t)
	fcap, _ := s.CreateFile([]byte("gen0"))
	for i := 1; i <= 2; i++ {
		v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
		s.WritePage(v, page.RootPath, []byte(fmt.Sprintf("gen%d", i)))
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	// Leave an uncommitted orphan too.
	orphan, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	s.WritePage(orphan, page.RootPath, []byte("orphan"))

	// Total service crash: rebuild the table from storage alone.
	rebuilt, err := file.Rebuild(version.NewStore(sh.Store, sh.Acct))
	if err != nil {
		t.Fatal(err)
	}
	e, err := rebuilt.Get(fcap.Object)
	if err != nil {
		t.Fatalf("file lost in rebuild: %v", err)
	}
	cur, err := occ.Current(version.NewStore(sh.Store, sh.Acct), e.Entry)
	if err != nil {
		t.Fatal(err)
	}
	tr := &version.Tree{St: version.NewStore(sh.Store, sh.Acct), Root: cur}
	pg, err := tr.PeekPage(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Data) != "gen2" {
		t.Fatalf("rebuilt current reads %q, want gen2", pg.Data)
	}
}

func TestUnknownVersionAfterCrashTellsClientToRedo(t *testing.T) {
	sh, s := newService(t)
	fcap, _ := s.CreateFile(nil)
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	s.Crash()
	s2 := New(sh, nil)
	// The version was managed by the crashed server; the sibling does
	// not know it.
	if err := s2.Commit(v); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v, want ErrUnknownVersion", err)
	}
}

func TestDeepNestedSubFiles(t *testing.T) {
	_, s := newService(t)
	outer, err := s.CreateFile([]byte("outer"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(outer, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = s.CreateSubFile(v, page.RootPath, 0, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	// Create a sub-sub-file inside the mid file through the outer
	// version (path /0 is mid's root).
	if _, err = s.CreateSubFile(v, page.Path{0}, 0, []byte("inner")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}

	// Read through two boundaries.
	v2, err := s.CreateVersion(outer, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := s.ReadPage(v2, page.Path{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "inner" {
		t.Fatalf("nested read %q", data)
	}
	// Write through two boundaries and commit.
	if err := s.WritePage(v2, page.Path{0, 0}, []byte("INNER")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v2); err != nil {
		t.Fatal(err)
	}
	v3, _ := s.CreateVersion(outer, CreateVersionOpts{})
	data, _, _ = s.ReadPage(v3, page.Path{0, 0})
	if string(data) != "INNER" {
		t.Fatalf("nested write lost: %q", data)
	}
}

func TestOnePageFileFastPath(t *testing.T) {
	// The Bauer-principle path: a compiler writing a temporary file
	// uses one version with one page write and a trivial commit.
	_, s := newService(t)
	fcap, err := s.CreateFile([]byte("object code"))
	if err != nil {
		t.Fatal(err)
	}
	before := s.OCCStats().Validations.Load()
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if err := s.WritePage(v, page.RootPath, []byte("object code v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if s.OCCStats().Validations.Load() != before {
		t.Fatal("one-page-file commit ran a validation")
	}
}

// TestBufferedWriteFollowsRenumbering: a write is buffered, then an
// insert shifts the written page to a new index before anything reached
// the block service. The data must land on the page the write named.
func TestBufferedWriteFollowsRenumbering(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile(nil)
	setup, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	for i, d := range []string{"a", "b"} {
		if err := s.InsertPage(setup, page.RootPath, i, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	if err := s.WritePage(v, page.Path{1}, []byte("B")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadPage(v, page.Path{1}); err != nil || string(data) != "B" {
		t.Fatalf("read of the buffered page: %q, %v", data, err)
	}
	if err := s.WritePage(v, page.Path{1}, []byte("B2")); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertPage(v, page.RootPath, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.CurrentVersion(fcap)
	for i, want := range []string{"new", "a", "B2"} {
		data, _, err := s.ReadCommitted(cur, page.Path{i})
		if err != nil || string(data) != want {
			t.Fatalf("page /%d = %q, %v; want %q", i, data, err, want)
		}
	}
}

// TestBadBufferedWriteFailsCommit: a write to a path that does not exist
// is acknowledged, then refused when the buffer is applied at Commit —
// with StatusBadArgument on the wire — and the version is aborted with
// its locks released.
func TestBadBufferedWriteFailsCommit(t *testing.T) {
	_, s := newService(t)
	fcap, _ := s.CreateFile([]byte("keep"))
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v, page.RootPath, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v, page.Path{4}, []byte("nowhere")); err != nil {
		t.Fatalf("buffered write refused early: %v", err)
	}
	resp := s.Handler()(&rpc.Message{Command: CmdCommit, Caps: []capability.Capability{v}})
	if resp.Status != rpc.StatusBadArgument {
		t.Fatalf("commit status = %v (%s), want bad argument", resp.Status, resp.Data)
	}
	if err := s.WritePage(v, page.RootPath, []byte("again")); !errors.Is(err, ErrVersionClosed) {
		t.Fatalf("write after the failed commit: %v, want ErrVersionClosed", err)
	}
	// The top-lock hint is gone: a soft-locking update does not wait.
	s.locks.Patience = 10 * time.Millisecond
	v2, err := s.CreateVersion(fcap, CreateVersionOpts{RespectTopHint: true})
	if err != nil {
		t.Fatalf("update after the aborted one waited for its lock: %v", err)
	}
	if data, _, _ := s.ReadPage(v2, page.RootPath); string(data) != "keep" {
		t.Fatalf("aborted version's write visible: %q", data)
	}
}

// TestWriteIntoSubFileCreatedInSameVersion: CreateSubFile, then a write
// into the new sub-file in the same plain-file update. The buffered
// batch meets the sub-file boundary and is applied through the §5.3
// crossing path.
func TestWriteIntoSubFileCreatedInSameVersion(t *testing.T) {
	_, s := newService(t)
	outer, _ := s.CreateFile([]byte("outer"))
	v, _ := s.CreateVersion(outer, CreateVersionOpts{})
	sub, err := s.CreateSubFile(v, page.RootPath, 0, []byte("born"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v, page.Path{0}, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(v, page.RootPath, []byte("outer2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	sv, err := s.CreateVersion(sub, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadPage(sv, page.RootPath); err != nil || string(data) != "rewritten" {
		t.Fatalf("sub-file reads %q, %v", data, err)
	}
	cur, _ := s.CurrentVersion(outer)
	if data, _, err := s.ReadCommitted(cur, page.RootPath); err != nil || string(data) != "outer2" {
		t.Fatalf("outer file reads %q, %v", data, err)
	}
}

// countStore counts the vectored calls reaching the in-memory block
// server, and the reads of each block. It re-binds the scalar adapter to
// itself, so scalar calls count too.
type countStore struct {
	*block.Server
	block.Scalar
	reads, allocs, writes int
	readOf                map[block.Num]int
}

func newCountService(t *testing.T) (*countStore, *Server) {
	t.Helper()
	cs := &countStore{Server: block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024}))}
	cs.Scalar = block.Scalar{Multi: cs}
	s := New(NewShared(cs, 1), nil)
	s.locks.Poll = 50 * time.Microsecond
	s.locks.Patience = 200 * time.Millisecond
	return cs, s
}

func (c *countStore) reset() {
	c.reads, c.allocs, c.writes, c.readOf = 0, 0, 0, make(map[block.Num]int)
}

func (c *countStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	c.reads++
	if c.readOf != nil {
		for _, n := range ns {
			c.readOf[n]++
		}
	}
	return c.Server.ReadMulti(a, ns)
}

func (c *countStore) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	c.allocs++
	return c.Server.AllocMulti(a, data)
}

func (c *countStore) WriteMulti(a block.Account, ns []block.Num, data [][]byte) error {
	c.writes++
	return c.Server.WriteMulti(a, ns, data)
}

// TestPageOperationCallBudget pins what one page operation costs the
// block service: a single copy-on-write pass reads the path's chain once
// — the root, then one multi-block read per depth — and writes with at
// most one alloc and one write. A read writes nothing: it looks the page
// up and leaves its flags to the next flush.
func TestPageOperationCallBudget(t *testing.T) {
	cs, s := newCountService(t)
	fcap, err := s.CreateFile([]byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []page.Path{page.RootPath, {0}, {0, 0}} {
		if err := s.InsertPage(v, p, 0, []byte("page"+p.String())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	budget := func(what string, reads, allocs, writes int) {
		t.Helper()
		if cs.reads > reads || cs.allocs != allocs || cs.writes != writes {
			t.Fatalf("%s: %d reads, %d allocs, %d writes; want <= %d, %d, %d",
				what, cs.reads, cs.allocs, cs.writes, reads, allocs, writes)
		}
	}

	v, err = s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cs.reset()
	if _, _, err := s.ReadPage(v, page.Path{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	budget("depth-3 read in a fresh version", 4, 0, 0)
	cs.reset()
	if _, _, err := s.ReadPage(v, page.Path{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	budget("re-read of the same page", 4, 0, 0)

	v, err = s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cs.reset()
	if err := s.InsertPage(v, page.Path{0, 0}, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	budget("depth-2 insert in a fresh version", 3, 1, 1)
}

// TestFirstCrossingCallBudget: the first read through a sub-file
// boundary in a fresh super-file version is one copy-on-write pass that
// forks the sub-file on the way. The sub-file's version page is read
// twice — by the pass, then under the block lock that sets its inner
// lock — and the outer root once; the pass allocates the fork and the
// shadows in one AllocMulti, and besides the lock's one WriteMulti there
// is one more, the pass's. (The hand-made crossing it replaced cost 10
// reads, 2 allocs and 4 writes, reading the sub-file's version page four
// times.)
func TestFirstCrossingCallBudget(t *testing.T) {
	cs, s := newCountService(t)
	superCap, subCap := buildDeepSuper(t, s, "sub")
	sub, err := s.CurrentVersion(subCap)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.VersionRoot(v)
	if err != nil {
		t.Fatal(err)
	}
	cs.reset()
	if data, _, err := s.ReadPage(v, page.Path{0, 1}); err != nil || string(data) != "sub" {
		t.Fatalf("read through the boundary: %q, %v", data, err)
	}
	if cs.reads > 4 || cs.readOf[sub] > 2 || cs.readOf[root] != 1 || cs.allocs != 1 || cs.writes != 2 {
		t.Fatalf("first crossing: %d reads (sub-file version page %d, outer root %d), %d allocs, %d writes; want <= 4 (<= 2, 1), 1, 2",
			cs.reads, cs.readOf[sub], cs.readOf[root], cs.allocs, cs.writes)
	}
}

// buildTwinSuper creates a super-file with two sub-files, at /0 and /1,
// of four pages each, and commits it.
func buildTwinSuper(t *testing.T, s *Server) capability.Capability {
	t.Helper()
	superCap, err := s.CreateFile([]byte("super-root"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.CreateSubFile(v, page.RootPath, i, []byte(fmt.Sprint("sub ", i))); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := s.InsertPage(v, page.Path{i}, j, []byte("old")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	return superCap
}

// twinPaths are the eight pages of buildTwinSuper's two sub-files.
var twinPaths = []page.Path{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {1, 3}}

// TestSuperFileWritesCallBudget: a super-file update writes through, one
// crossing pass per write. Eight writes over two sub-files cost three
// reads, one alloc and one write each, and each sub-file's first one a
// lock read and write more: 26 reads, 8 allocs, 10 writes. (With the
// hand-made crossing: 42 reads, 10 allocs, 14 writes.) The commit then
// sets each sub-file's commit reference and clears its inner lock in one
// write, inside CommitSubFiles, and reads the new root no more after it:
// 11 reads, no alloc, 4 writes (with a separate clear per sub-file and a
// second clear of the root, 14 reads and 6 writes).
func TestSuperFileWritesCallBudget(t *testing.T) {
	cs, s := newCountService(t)
	superCap := buildTwinSuper(t, s)
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cs.reset()
	for _, p := range twinPaths {
		if err := s.WritePage(v, p, []byte("new"+p.String())); err != nil {
			t.Fatal(err)
		}
	}
	if cs.reads != 26 || cs.allocs != 8 || cs.writes != 10 {
		t.Fatalf("8 writes over 2 sub-files: %d reads, %d allocs, %d writes; want 26, 8, 10", cs.reads, cs.allocs, cs.writes)
	}
	cs.reset()
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if cs.reads != 11 || cs.allocs != 0 || cs.writes != 4 {
		t.Fatalf("commit: %d reads, %d allocs, %d writes; want 11, 0, 4", cs.reads, cs.allocs, cs.writes)
	}
	cur, _ := s.CurrentVersion(superCap)
	for _, p := range twinPaths {
		if data, _, err := s.ReadCommitted(cur, p); err != nil || string(data) != "new"+p.String() {
			t.Fatalf("page %s = %q, %v", p, data, err)
		}
	}
}

// TestBufferedBatchCrossesAtFlush: a plain-file update whose buffered
// batch enters sub-files — here two not yet accessed, under a Super mark
// this server has not seen — flushes in one pass: one AllocMulti and one
// pass WriteMulti, plus one lock read and write per sub-file.
func TestBufferedBatchCrossesAtFlush(t *testing.T) {
	cs, s := newCountService(t)
	superCap := buildTwinSuper(t, s)
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	rec := s.versions[v.Object]
	s.mu.Unlock()
	rec.super = false // the mark has not replicated to this server
	for _, p := range twinPaths {
		if err := s.WritePage(v, p, []byte("new"+p.String())); err != nil {
			t.Fatal(err)
		}
	}
	cs.reset()
	rec.mu.Lock()
	err = s.flush(rec, trace.Context{})
	rec.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if cs.reads > 3+2 || cs.allocs != 1 || cs.writes != 1+2 {
		t.Fatalf("a batch of 8 over 2 sub-files: %d reads, %d allocs, %d writes; want <= 5, 1, 3", cs.reads, cs.allocs, cs.writes)
	}
	if len(rec.crossing) != 2 {
		t.Fatalf("crossing records %v, want both sub-files", rec.crossing)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.CurrentVersion(superCap)
	for _, p := range twinPaths {
		if data, _, err := s.ReadCommitted(cur, p); err != nil || string(data) != "new"+p.String() {
			t.Fatalf("page %s = %q, %v", p, data, err)
		}
	}
}

// TestCrossingForksTheSubFilesCurrentVersion forces the interleaving in
// which the sub-file changes while a super-file update waits to cross
// into it: a small update of the sub-file holds its top hint, the
// crossing waits on it (the probe of the holder's liveness stops it
// there), the small update commits, and only then does the crossing go
// on. It must lock and fork the version the small update committed, not
// the one the super-file's tree names, so that the super-file commit
// lands in the sub-file's chain after the small update.
func TestCrossingForksTheSubFilesCurrentVersion(t *testing.T) {
	sh := NewShared(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})), 1)
	waiting, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s := New(sh, func(capability.Port) bool {
		once.Do(func() {
			close(waiting)
			<-release
		})
		return true
	})
	s.locks.Poll = 50 * time.Microsecond
	superCap, subCap := buildSuper(t, s, "sub")
	small, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(small, page.RootPath, []byte("small")); err != nil {
		t.Fatal(err)
	}
	sv, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	crossed := make(chan error, 1)
	go func() { crossed <- s.WritePage(sv, page.Path{1}, []byte("super")) }()
	<-waiting
	if err := s.Commit(small); err != nil {
		t.Fatal(err)
	}
	smallRoot, err := s.CurrentVersion(subCap)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-crossed; err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sv); err != nil {
		t.Fatalf("super-file commit: %v", err)
	}
	nv, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadPage(nv, page.RootPath); err != nil || string(data) != "super" {
		t.Fatalf("sub-file reads %q, %v; want super", data, err)
	}
	hist, err := s.History(subCap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 || hist[1] != smallRoot {
		t.Fatalf("sub-file history %v, want birth, the small update's %d, the super-file's", hist, smallRoot)
	}
}

// TestRefusedCrossingHoldsLockUntilCommit: a pass that takes a
// sub-file's inner lock and is then refused further down writes no fork,
// so the commit finds nothing to commit in that sub-file; it must still
// clear the lock. Retrying the refused pass forks under the version
// object the first crossing minted rather than minting another.
func TestRefusedCrossingHoldsLockUntilCommit(t *testing.T) {
	sh, s := newService(t)
	superCap, subCap := buildSuper(t, s, "sub") // the sub-file at /1 has no pages
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := registered(sh)
	for i := 0; i < 3; i++ {
		if err := s.WritePage(v, page.Path{1, 0}, []byte("nowhere")); !errors.Is(err, version.ErrBadPath) {
			t.Fatalf("write %d below the sub-file's last page: %v, want ErrBadPath", i, err)
		}
	}
	if n := registered(sh) - before; n != 1 {
		t.Fatalf("3 refused crossings registered %d version objects, want 1", n)
	}
	sub, err := s.CurrentVersion(subCap)
	if err != nil {
		t.Fatal(err)
	}
	if _, inner, _ := s.locks.Locks(sub); inner.IsNil() {
		t.Fatal("the refused pass took no inner lock")
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if top, inner, err := s.locks.Locks(sub); err != nil || !top.IsNil() || !inner.IsNil() {
		t.Fatalf("sub-file locks after the commit: %v/%v, %v; want none", top, inner, err)
	}
}

// TestRefusedMoveTakesNoLock: a move into or out of a sub-file the update
// has not entered is refused before the pass crosses the boundary — no
// inner lock, no version object, no crossing recorded — so it holds up
// no small update of the sub-file.
func TestRefusedMoveTakesNoLock(t *testing.T) {
	sh, s := newService(t)
	superCap, subCap := buildSuper(t, s, "sub") // /0 plain, /1 the sub-file
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MakeHole(v, page.RootPath, 0); err != nil {
		t.Fatal(err)
	}
	before := registered(sh)
	if err := s.MoveSubtree(v, page.Path{1}, 0, page.RootPath, 0); !errors.Is(err, version.ErrSubFile) {
		t.Fatalf("move out of the sub-file: err = %v, want ErrSubFile", err)
	}
	if err := s.MoveSubtree(v, page.RootPath, 0, page.Path{1}, 0); !errors.Is(err, version.ErrSubFile) {
		t.Fatalf("move into the sub-file: err = %v, want ErrSubFile", err)
	}
	sub, err := s.CurrentVersion(subCap)
	if err != nil {
		t.Fatal(err)
	}
	if top, inner, err := s.locks.Locks(sub); err != nil || !top.IsNil() || !inner.IsNil() {
		t.Fatalf("sub-file locks after the refused moves: %v/%v, %v; want none", top, inner, err)
	}
	s.mu.Lock()
	rec := s.versions[v.Object]
	s.mu.Unlock()
	if n := registered(sh) - before; n != 0 || len(rec.crossing) != 0 {
		t.Fatalf("refused moves registered %d objects and recorded crossings %v", n, rec.crossing)
	}
	small, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(small, page.RootPath, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(small); err != nil {
		t.Fatalf("small update of the sub-file after the refused moves: %v", err)
	}
}

// registered counts the objects of server ID 0's band with a registered
// secret.
func registered(sh *Shared) int {
	n := 0
	for obj := uint32(0); obj < 1<<objBandShift; obj++ {
		if _, ok := sh.Fact.Secret(obj); ok {
			n++
		}
	}
	return n
}

// TestCreateSubFileForgetsRefusedObjects: a CreateSubFile the version
// refuses leaves no object behind — neither the sub-file's nor its birth
// version's secret stays registered.
func TestCreateSubFileForgetsRefusedObjects(t *testing.T) {
	sh, s := newService(t)
	fcap, err := s.CreateFile([]byte("outer"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := registered(sh)
	for i := 0; i < 10; i++ {
		if _, err := s.CreateSubFile(v, page.Path{5}, 0, []byte("lost")); !errors.Is(err, version.ErrBadPath) {
			t.Fatalf("create %d on a bad path: %v, want ErrBadPath", i, err)
		}
	}
	if after := registered(sh); after != before {
		t.Fatalf("10 refused CreateSubFile calls left %d more registered secrets", after-before)
	}
}

// TestCrossedSubFileReadsOuterChainOnce: once an update has crossed into
// a sub-file, a read through that boundary walks the outer file's chain
// once — the pass on the outer tree stops at the boundary and the read
// reruns inside the sub-file from there, not from the outer root.
func TestCrossedSubFileReadsOuterChainOnce(t *testing.T) {
	cs, s := newCountService(t)
	superCap, _ := buildDeepSuper(t, s, "sub")
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadPage(v, page.Path{0, 1}); err != nil { // the first crossing forks
		t.Fatal(err)
	}
	root, err := s.VersionRoot(v)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := s.st.ReadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	mid := vp.Refs[0].Block
	cs.reset()
	data, _, err := s.ReadPage(v, page.Path{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "sub" {
		t.Fatalf("read %q through the boundary", data)
	}
	for _, n := range []block.Num{root, mid} {
		if got := cs.readOf[n]; got != 1 {
			t.Fatalf("outer chain block %d read %d times, want once", n, got)
		}
	}
	if cs.allocs != 0 || cs.writes != 0 {
		t.Fatalf("re-read across a crossed boundary made %d allocs and %d writes", cs.allocs, cs.writes)
	}
}

// buildDeepSuper creates a super-file whose sub-file sits one level down,
// at /0/1 (/0/0 is a plain page), and commits it.
func buildDeepSuper(t *testing.T, s *Server, subData string) (superCap, subCap capability.Capability) {
	t.Helper()
	superCap, err := s.CreateFile([]byte("super-root"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertPage(v, page.RootPath, 0, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertPage(v, page.Path{0}, 0, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	subCap, err = s.CreateSubFile(v, page.Path{0}, 1, []byte(subData))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	return superCap, subCap
}

// TestSecondUpdateForksDeepSubFile: a sub-file below the super-file's
// root is crossed afresh by every update. The reference to it that a
// committed update marked accessed lives in a page the next update still
// shares with its base; following it as if this update had made it would
// write into the committed sub-version in place. An aborted write must
// leave every committed version as it was.
func TestSecondUpdateForksDeepSubFile(t *testing.T) {
	_, s := newService(t)
	superCap, subCap := buildDeepSuper(t, s, "sub0")
	for i, data := range []string{"sub1", "scratch"} {
		v, err := s.CreateVersion(superCap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(v, page.Path{0, 1}, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = s.Commit(v)
		} else {
			err = s.Abort(v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cur, err := s.CurrentVersion(superCap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadCommitted(cur, page.Path{0, 1}); err != nil || string(data) != "sub1" {
		t.Fatalf("super-file's current version reads %q, %v; want sub1", data, err)
	}
	sv, err := s.CreateVersion(subCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadPage(sv, page.RootPath); err != nil || string(data) != "sub1" {
		t.Fatalf("sub-file reads %q, %v; want sub1", data, err)
	}
}

// TestMoveInsideSubFileButNotAcross: a move whose two paths cross the
// same sub-file boundary happens inside the sub-file; a move from one
// file of a super-file into another is refused, in either direction.
func TestMoveInsideSubFileButNotAcross(t *testing.T) {
	_, s := newService(t)
	superCap, _ := buildSuper(t, s, "sub") // /0 plain, /1 the sub-file
	v, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []string{"a", "b"} {
		if err := s.InsertPage(v, page.Path{1}, i, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MakeHole(v, page.Path{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveSubtree(v, page.Path{1}, 0, page.Path{1}, 1); err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadPage(v, page.Path{1, 1}); err != nil || string(data) != "a" {
		t.Fatalf("moved page reads %q, %v", data, err)
	}
	if err := s.MakeHole(v, page.RootPath, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveSubtree(v, page.Path{1}, 1, page.RootPath, 0); !errors.Is(err, version.ErrSubFile) {
		t.Fatalf("move out of the sub-file: err = %v, want ErrSubFile", err)
	}
	if err := s.InsertPage(v, page.RootPath, 2, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveSubtree(v, page.RootPath, 2, page.Path{1}, 0); !errors.Is(err, version.ErrSubFile) {
		t.Fatalf("move into the sub-file: err = %v, want ErrSubFile", err)
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
}

// TestFenceWaitsOnlyForEarlierEntries: a pass waits for the operations
// that entered before it, and an operation entering while a pass waits
// goes ahead at once — a version creation stuck on a §5.3 lock delays
// the collector's pin sample, not the server's other creations.
func TestFenceWaitsOnlyForEarlierEntries(t *testing.T) {
	var f fence
	leaveEarly := f.enter()
	passed := make(chan struct{})
	go func() {
		f.pass()
		close(passed)
	}()
	for waiting := false; !waiting; runtime.Gosched() {
		f.mu.Lock()
		waiting = f.group == nil // the pass took the group in flight
		f.mu.Unlock()
	}
	f.enter()() // enters and leaves without waiting for the pass
	select {
	case <-passed:
		t.Fatal("the pass returned before the earlier operation left")
	default:
	}
	leaveEarly()
	<-passed
}

// TestValidateCacheReadBudget: validating a cache one committed version
// behind, whose write set lies at depth d on three branches, reads the
// version's tree one level per call — d+1 calls — on top of the two
// version pages that place the cached version on the chain (the current
// version through the table, the cached one).
func TestValidateCacheReadBudget(t *testing.T) {
	cs, s := newCountService(t)
	fcap, err := s.CreateFile([]byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.CreateVersion(fcap, CreateVersionOpts{})
	for i := 0; i < 3; i++ { // depth 2: root → 3 pages → 2 each
		s.InsertPage(v, page.RootPath, i, []byte("mid"))
		for j := 0; j < 2; j++ {
			s.InsertPage(v, page.Path{i}, j, []byte("leaf"))
		}
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	cached, _ := s.CurrentVersion(fcap)
	v, _ = s.CreateVersion(fcap, CreateVersionOpts{})
	written := []page.Path{{0, 0}, {1, 1}, {2, 0}}
	for _, p := range written {
		s.WritePage(v, p, []byte("new"))
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.CurrentVersion(fcap)
	cs.reset()
	got, iv, err := s.ValidateCache(fcap, cached)
	if err != nil || got != cur {
		t.Fatalf("ValidateCache = %d, %v; want %d", got, err, cur)
	}
	if cs.reads > 2+3 {
		t.Fatalf("write set at depth 2: %d read calls, want <= 5 (2 to find the chain, 3 for the walk)", cs.reads)
	}
	if iv.All || len(iv.Prefixes) != 0 || !maps.Equal(pathSet(iv.Exact), pathSet(written)) {
		t.Fatalf("invalidation %+v, want exactly %v", iv, written)
	}
	cs.reset()
	collectWriteSet(s.st, []block.Num{cur})
	if cs.reads > 3 {
		t.Fatalf("the write-set walk: %d read calls, want <= 3", cs.reads)
	}
}

// TestObjectNumbersComeBack: a reaped version record gives its object
// number back — the band wraps and creation goes on with the numbers of
// closed versions, whose old capabilities no longer verify — and a band
// with no free number refuses a creation instead of spinning.
func TestObjectNumbersComeBack(t *testing.T) {
	sh, s := newService(t)
	fcap, err := s.CreateFile([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	const band = 1 << objBandShift
	// Every number of the band taken but two, the counter near its end.
	free := map[uint32]bool{7: true, band - 1: true}
	for n := uint32(0); n < band; n++ {
		if _, ok := sh.Fact.Secret(n); !ok && !free[n] {
			sh.Fact.Adopt(n, 1)
		}
	}
	sh.nextObj = band - 3
	reap := func() {
		s.mu.Lock()
		for _, rec := range s.versions {
			if !rec.closedAt.IsZero() {
				rec.closedAt = time.Now().Add(-2 * closedGrace)
			}
		}
		s.mu.Unlock()
		s.LiveVersions()
	}
	var first capability.Capability
	reused := 0
	for i := 0; i < 6; i++ {
		v, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatalf("creation %d: %v", i, err)
		}
		if !free[v.Object] {
			t.Fatalf("creation %d took object %d, not one of the free %v", i, v.Object, free)
		}
		if i == 0 {
			first = v
		} else if v.Object == first.Object {
			reused++
			if err := sh.Fact.Verify(first, 0); !errors.Is(err, capability.ErrBadCheck) {
				t.Fatalf("the reaped version's capability on its reused number: Verify = %v, want ErrBadCheck", err)
			}
		}
		if err := s.WritePage(v, page.RootPath, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			err = s.Commit(v)
		} else {
			err = s.Abort(v)
		}
		if err != nil {
			t.Fatal(err)
		}
		reap()
	}
	if reused == 0 {
		t.Fatal("the first version's number never came back")
	}
	open1, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateVersion(fcap, CreateVersionOpts{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.CreateVersion(fcap, CreateVersionOpts{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrObjectsExhausted) {
			t.Fatalf("creation in a full band: %v, want ErrObjectsExhausted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("creation in a full band did not return")
	}
	if err := s.Abort(open1); err != nil {
		t.Fatal(err)
	}
}

// TestCreateFileForgetsBirthVersion: a birth version is committed at
// once and no record holds it, so CreateFile forgets its object's
// secret — N files leave N registered secrets, not 2N — while every
// file capability still verifies.
func TestCreateFileForgetsBirthVersion(t *testing.T) {
	sh, s := newService(t)
	const files = 100
	caps := make([]capability.Capability, files)
	for i := range caps {
		fc, err := s.CreateFile([]byte(fmt.Sprint("file ", i)))
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = fc
	}
	for i, fc := range caps {
		if err := sh.Fact.Verify(fc, capability.RightRead); err != nil {
			t.Fatalf("file %d: capability does not verify: %v", i, err)
		}
		e, err := sh.Table.Get(fc.Object)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := s.st.ReadPage(e.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if vp.VersionCap.Object == fc.Object {
			t.Fatalf("file %d: birth version shares the file's object %d", i, fc.Object)
		}
		if _, ok := sh.Fact.Secret(vp.VersionCap.Object); ok {
			t.Fatalf("file %d: birth version object %d still has a registered secret", i, vp.VersionCap.Object)
		}
	}
}
