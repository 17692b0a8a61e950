package gc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/version"
)

// fixture builds a full service (server + table) so GC runs against real
// commit chains.
type fixture struct {
	srv *server.Server
	bs  *block.Server
	col *Collector
}

func newFixture(t *testing.T, retain int) *fixture {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})
	bs := block.NewServer(d)
	sh := server.NewShared(bs, 1)
	srv := server.New(sh, nil)
	col := New(srv.Store(), sh.Table, retain, srv.LiveVersions)
	return &fixture{srv: srv, bs: bs, col: col}
}

// collectTwice runs two cycles so two-cycle condemnation actually frees,
// returning the aggregated report.
func (f *fixture) collectTwice(t *testing.T) Report {
	t.Helper()
	r1, err := f.col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	r2.Freed += r1.Freed
	r2.Reshared += r1.Reshared
	r2.Retired += r1.Retired
	r2.Demoted += r1.Demoted
	r2.DemoteErrors += r1.DemoteErrors
	if r2.DemoteErr == nil {
		r2.DemoteErr = r1.DemoteErr
	}
	return r2
}

// withArchive attaches an archive tier to the fixture's collector:
// retirement becomes demote-instead-of-delete.
func (f *fixture) withArchive(t *testing.T) (*archive.Store, *archive.Archiver) {
	t.Helper()
	backing := block.NewServer(disk.MustNew(disk.Geometry{
		Blocks: 1 << 14, BlockSize: 1024 + archive.FrameOverhead,
	}))
	st, err := archive.New(backing, 1)
	if err != nil {
		t.Fatal(err)
	}
	arch := &archive.Archiver{Front: f.col.St, Store: st, Acct: 1}
	f.col.Demote = func(object uint32, root block.Num) error {
		_, _, err := arch.Demote(object, root)
		return err
	}
	return st, arch
}

func TestAbortedVersionReclaimed(t *testing.T) {
	f := newFixture(t, 4)
	fcap, _ := f.srv.CreateFile([]byte("keep"))
	inUse := f.bs.InUse()

	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err := f.srv.WritePage(v, page.RootPath, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Abort(v); err != nil {
		t.Fatal(err)
	}
	if f.bs.InUse() <= inUse {
		t.Fatal("abort should leave orphan blocks for the collector")
	}
	f.collectTwice(t)
	if got := f.bs.InUse(); got != inUse {
		t.Fatalf("after GC %d blocks in use, want %d", got, inUse)
	}
	// The file still reads fine.
	v2, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	data, _, err := f.srv.ReadPage(v2, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "keep" {
		t.Fatalf("file damaged by GC: %q", data)
	}
}

func TestRetentionDropsOldVersions(t *testing.T) {
	f := newFixture(t, 2)
	fcap, _ := f.srv.CreateFile([]byte("g0"))
	for i := 1; i <= 5; i++ {
		v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("g%d", i)))
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	histBefore, _ := f.srv.History(fcap)
	if len(histBefore) != 6 {
		t.Fatalf("history %d", len(histBefore))
	}
	rep := f.collectTwice(t)
	if rep.Freed == 0 {
		t.Fatal("retention freed nothing")
	}
	histAfter, err := f.srv.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if len(histAfter) != 2 {
		t.Fatalf("history after GC = %d, want 2", len(histAfter))
	}
	// Current state unharmed.
	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	data, _, err := f.srv.ReadPage(v, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "g5" {
		t.Fatalf("current = %q", data)
	}
}

func TestUncommittedVersionsPinned(t *testing.T) {
	f := newFixture(t, 1)
	fcap, _ := f.srv.CreateFile([]byte("base"))
	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err := f.srv.WritePage(v, page.RootPath, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	// Wire the live-version pin to the open version's root.
	root, err := f.srv.VersionRoot(v)
	if err != nil {
		t.Fatal(err)
	}
	f.col.Live = func() []block.Num { return []block.Num{root} }

	f.collectTwice(t)
	// The open version must still be usable and committable.
	data, _, err := f.srv.ReadPage(v, page.RootPath)
	if err != nil {
		t.Fatalf("GC ate an open version: %v", err)
	}
	if string(data) != "in-flight" {
		t.Fatalf("open version reads %q", data)
	}
	if err := f.srv.Commit(v); err != nil {
		t.Fatal(err)
	}
}

func TestReshareReclaimsReadShadows(t *testing.T) {
	f := newFixture(t, 8)
	fcap, _ := f.srv.CreateFile(nil)
	setup, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 4; i++ {
		f.srv.InsertPage(setup, page.RootPath, i, []byte(fmt.Sprintf("leaf%d", i)))
	}
	if err := f.srv.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// An update that READS three pages and writes one: the three read
	// copies are pure shadowing and reshareable after commit.
	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 3; i++ {
		if _, _, err := f.srv.ReadPage(v, page.Path{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.srv.WritePage(v, page.Path{3}, []byte("written")); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Commit(v); err != nil {
		t.Fatal(err)
	}
	used := f.bs.InUse()
	rep := f.collectTwice(t)
	if rep.Reshared < 3 {
		t.Fatalf("reshared %d pages, want >= 3", rep.Reshared)
	}
	f.collectTwice(t) // free the orphaned copies
	if f.bs.InUse() >= used {
		t.Fatalf("reshare freed nothing: %d -> %d", used, f.bs.InUse())
	}
	// Content intact after resharing.
	v2, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("leaf%d", i)
		if i == 3 {
			want = "written"
		}
		data, _, err := f.srv.ReadPage(v2, page.Path{i})
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("page %d = %q, want %q", i, data, want)
		}
	}
}

func TestTwoCycleGracePeriod(t *testing.T) {
	f := newFixture(t, 4)
	fcap, _ := f.srv.CreateFile([]byte("x"))
	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	f.srv.WritePage(v, page.RootPath, []byte("y"))
	f.srv.Abort(v)

	used := f.bs.InUse()
	rep1, err := f.col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// First cycle condemns but must not free.
	if rep1.Freed != 0 {
		t.Fatalf("first cycle freed %d blocks", rep1.Freed)
	}
	if rep1.Condemned == 0 {
		t.Fatal("first cycle condemned nothing")
	}
	if f.bs.InUse() != used {
		t.Fatal("blocks freed before grace period")
	}
	rep2, err := f.col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Freed == 0 {
		t.Fatal("second cycle freed nothing")
	}
}

func TestCollectPreservesSuperFiles(t *testing.T) {
	f := newFixture(t, 2)
	superCap, _ := f.srv.CreateFile([]byte("super"))
	v, _ := f.srv.CreateVersion(superCap, server.CreateVersionOpts{})
	subCap, err := f.srv.CreateSubFile(v, page.RootPath, 0, []byte("sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Commit(v); err != nil {
		t.Fatal(err)
	}
	// Update the sub-file twice so it has its own chain.
	for i := 0; i < 2; i++ {
		sv, err := f.srv.CreateVersion(subCap, server.CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		f.srv.WritePage(sv, page.RootPath, []byte(fmt.Sprintf("sub%d", i)))
		if err := f.srv.Commit(sv); err != nil {
			t.Fatal(err)
		}
	}
	f.collectTwice(t)
	f.collectTwice(t)

	// Both files intact.
	sv, err := f.srv.CreateVersion(subCap, server.CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := f.srv.ReadPage(sv, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "sub1" {
		t.Fatalf("sub after GC = %q", data)
	}
	// Close the small update: its top-lock hint would (correctly) make
	// the super-file update below wait for it.
	if err := f.srv.Abort(sv); err != nil {
		t.Fatal(err)
	}
	v2, err := f.srv.CreateVersion(superCap, server.CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.srv.ReadPage(v2, page.Path{0}); err != nil {
		t.Fatalf("super read through boundary after GC: %v", err)
	}
}

func TestRunBackground(t *testing.T) {
	f := newFixture(t, 1)
	fcap, _ := f.srv.CreateFile([]byte("live"))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				f.col.Collect()
			}
		}
	}()
	// Work while the collector runs in parallel.
	for i := 0; i < 20; i++ {
		v, err := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	<-done
	v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
	data, _, err := f.srv.ReadPage(v, page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "gen19" {
		t.Fatalf("current after concurrent GC = %q", data)
	}
}

// TestDemoteInsteadOfDelete commits five times over a retention of two:
// the four retired versions must land in the archive as snapshots 1..4
// — byte-identical and verifiable — before the sweep frees their
// front-tier blocks.
func TestDemoteInsteadOfDelete(t *testing.T) {
	f := newFixture(t, 2)
	st, _ := f.withArchive(t)
	fcap, _ := f.srv.CreateFile([]byte("g0"))
	for i := 1; i <= 5; i++ {
		v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("g%d", i)))
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.collectTwice(t)
	if rep.Demoted != 4 || rep.Retired < 4 {
		t.Fatalf("demoted %d retired %d, want 4 demoted", rep.Demoted, rep.Retired)
	}
	if rep.Freed == 0 {
		t.Fatal("demotion must not keep the sweep from freeing")
	}
	hist, err := f.srv.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("front history = %d, want 2", len(hist))
	}
	snaps := st.Snapshots(fcap.Object)
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 4", len(snaps))
	}
	for i, e := range snaps {
		if e.Seq != uint64(i+1) {
			t.Fatalf("snapshot %d has seq %d", i, e.Seq)
		}
		if err := archive.VerifySnapshot(st, 1, e); err != nil {
			t.Fatalf("verify snapshot %d: %v", e.Seq, err)
		}
		tr := &version.Tree{St: version.NewStore(st, 1), Root: e.Root}
		pg, err := tr.PeekPage(page.RootPath)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("g%d", i); string(pg.Data) != want {
			t.Fatalf("snapshot %d = %q, want %q", e.Seq, pg.Data, want)
		}
	}
}

// TestDemoteIdempotentAcrossSweepers simulates the multi-server race
// the demote design defuses: a sibling server archives the retired
// roots first; this server's own demote pass must be a pure dedup no-op
// — no error, no duplicate snapshots — instead of the old double-free
// hazard.
func TestDemoteIdempotentAcrossSweepers(t *testing.T) {
	f := newFixture(t, 1)
	st, arch := f.withArchive(t)
	fcap, _ := f.srv.CreateFile([]byte("g0"))
	for i := 1; i <= 3; i++ {
		v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("g%d", i)))
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	// The sibling demotes the whole retired prefix first.
	e, err := f.col.Table.Get(fcap.Object)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := occ.History(f.col.St, e.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range chain[:len(chain)-1] {
		if _, _, err := arch.Demote(fcap.Object, root); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.collectTwice(t)
	if rep.Demoted != 3 {
		t.Fatalf("demoted %d, want 3 (idempotent re-demotes)", rep.Demoted)
	}
	if got := st.Snapshots(fcap.Object); len(got) != 3 {
		t.Fatalf("snapshots = %d, want 3 (no duplicates)", len(got))
	}
	if s := arch.Stats(); s.Skipped != 3 || s.Demotes != 3 {
		t.Fatalf("archiver stats = %+v, want 3 demotes, 3 skips", s)
	}
}

// TestDemoteFailureRetains keeps versions in the front tier when the
// archive refuses them: nothing committed is freed unarchived.
func TestDemoteFailureRetains(t *testing.T) {
	f := newFixture(t, 1)
	st, arch := f.withArchive(t)
	broken := true
	f.col.Demote = func(object uint32, root block.Num) error {
		if broken {
			return fmt.Errorf("archive offline")
		}
		_, _, err := arch.Demote(object, root)
		return err
	}
	fcap, _ := f.srv.CreateFile([]byte("g0"))
	for i := 1; i <= 3; i++ {
		v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("g%d", i)))
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.collectTwice(t)
	if rep.Demoted != 0 || rep.Retired != 0 {
		t.Fatalf("broken archive: demoted %d retired %d, want 0/0", rep.Demoted, rep.Retired)
	}
	// The failure must be visible in the report, not silently swallowed.
	if rep.DemoteErrors == 0 || rep.DemoteErr == nil {
		t.Fatalf("broken archive: DemoteErrors=%d DemoteErr=%v, want the failure surfaced", rep.DemoteErrors, rep.DemoteErr)
	}
	if hist, _ := f.srv.History(fcap); len(hist) != 4 {
		t.Fatalf("history shrank to %d with the archive down", len(hist))
	}
	broken = false
	rep = f.collectTwice(t)
	if rep.Demoted != 3 {
		t.Fatalf("recovered archive: demoted %d, want 3", rep.Demoted)
	}
	if rep.DemoteErrors != 0 || rep.DemoteErr != nil {
		t.Fatalf("recovered archive still reports DemoteErrors=%d DemoteErr=%v", rep.DemoteErrors, rep.DemoteErr)
	}
	if hist, _ := f.srv.History(fcap); len(hist) != 1 {
		t.Fatalf("history = %d after recovery, want 1", len(hist))
	}
	if got := st.Snapshots(fcap.Object); len(got) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(got))
	}
}

// TestLiveVersionBasePinned: a client opens an update on a sibling
// server and stalls while newer commits land; retention retires the
// orphan's base, but the collector must pin it — the base is what lets
// a later crash-recovery Rebuild tell the abandoned orphan from a
// committed survivor (and what the orphan would redo its updates from).
func TestLiveVersionBasePinned(t *testing.T) {
	f := newFixture(t, 1)
	sib := server.New(f.srv.Shared(), nil)
	f.col.Live = func() []block.Num {
		return append(f.srv.LiveVersions(), sib.LiveVersions()...)
	}

	fcap, _ := f.srv.CreateFile([]byte("g0"))
	if _, err := sib.CreateVersion(fcap, server.CreateVersionOpts{}); err != nil {
		t.Fatal(err)
	}
	live := sib.LiveVersions()
	if len(live) != 1 {
		t.Fatalf("live versions = %d, want 1", len(live))
	}
	orphanRoot := live[0]
	opg, err := f.col.St.ReadPage(orphanRoot)
	if err != nil {
		t.Fatal(err)
	}
	base := opg.BaseRef
	if base == block.NilNum {
		t.Fatal("orphan has no base")
	}

	for i := 1; i <= 3; i++ {
		v, _ := f.srv.CreateVersion(fcap, server.CreateVersionOpts{})
		f.srv.WritePage(v, page.RootPath, []byte(fmt.Sprintf("g%d", i)))
		if err := f.srv.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.collectTwice(t)
	if rep.Freed == 0 {
		t.Fatal("retention freed nothing")
	}
	// The orphan's base survived retirement and two sweep cycles.
	bp, err := f.col.St.ReadPage(base)
	if err != nil {
		t.Fatalf("live orphan's base swept: %v", err)
	}
	if bp.CommitRef == block.NilNum {
		t.Fatal("base lost its commit reference")
	}
	// Crash recovery now classifies the orphan correctly: its base is
	// present and points at the committed successor, not at it.
	tb, err := file.Rebuild(f.col.St)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tb.Get(fcap.Object)
	if err != nil {
		t.Fatal(err)
	}
	if e.Entry == orphanRoot {
		t.Fatal("rebuild resurrected the live orphan as the entry")
	}
	chain, err := occ.History(f.col.St, e.Entry)
	if err != nil || len(chain) == 0 {
		t.Fatalf("history from rebuilt entry: %v", err)
	}
	cur, err := f.col.St.ReadPage(chain[len(chain)-1])
	if err != nil {
		t.Fatal(err)
	}
	if string(cur.Data) != "g3" {
		t.Fatalf("rebuilt current content = %q, want g3", cur.Data)
	}
}

// hookStore is fault-injection middleware over the in-memory server in
// the vector-only style: it embeds the real store, re-binds the scalar
// adapter to itself and overrides just the vectored read, so scalar
// reads reach the hook as well instead of bypassing it through the
// embedded server's own adapter.
type hookStore struct {
	*block.Server
	block.Scalar
	afterRead func(ns []block.Num) // runs after each successful read
}

func (h *hookStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	out, err := h.Server.ReadMulti(a, ns)
	if err == nil && h.afterRead != nil {
		h.afterRead(ns)
	}
	return out, err
}

// TestReshareKeepsConcurrentCommitRef is the regression for the lost
// acknowledged commit: reshare reads a committed version page, a
// successor commits (setting that page's commit reference), and the
// reshare write-back must not erase the reference with its stale copy.
func TestReshareKeepsConcurrentCommitRef(t *testing.T) {
	hs := &hookStore{Server: block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 12, BlockSize: 1024}))}
	hs.Scalar = block.Scalar{Multi: hs}
	sh := server.NewShared(hs, 1)
	srv := server.New(sh, nil)
	col := New(srv.Store(), sh.Table, 8, srv.LiveVersions)

	fcap, _ := srv.CreateFile(nil)
	setup, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 4; i++ {
		srv.InsertPage(setup, page.RootPath, i, []byte(fmt.Sprintf("leaf%d", i)))
	}
	if err := srv.Commit(setup); err != nil {
		t.Fatal(err)
	}
	// The version to reshare: three read shadows and one written page.
	v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i := 0; i < 3; i++ {
		if _, _, err := srv.ReadPage(v, page.Path{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.WritePage(v, page.Path{3}, []byte("written")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Commit(v); err != nil {
		t.Fatal(err)
	}
	chain, err := srv.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	pred := chain[len(chain)-1]

	// The successor is prepared up front and committed from inside the
	// hook, right after reshare's read of the predecessor's version page
	// returns — between the read and the write-back.
	succ, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err := srv.WritePage(succ, page.Path{0}, []byte("successor")); err != nil {
		t.Fatal(err)
	}
	hs.afterRead = func(ns []block.Num) {
		if len(ns) == 1 && ns[0] == pred {
			hs.afterRead = nil
			if err := srv.Commit(succ); err != nil {
				t.Errorf("successor commit: %v", err)
			}
		}
	}
	n, err := col.reshareVersion(pred)
	if err != nil {
		t.Fatal(err)
	}
	if hs.afterRead != nil {
		t.Fatal("the hook never fired: the race was not staged")
	}
	if n < 3 {
		t.Fatalf("reshared %d pages, want >= 3 (no write-back, nothing proven)", n)
	}

	pp, err := col.St.ReadPage(pred)
	if err != nil {
		t.Fatal(err)
	}
	if pp.CommitRef == block.NilNum {
		t.Fatal("reshare write-back erased the predecessor's commit reference: the acknowledged successor commit is lost")
	}
	// Crash recovery sees one chain ending in the successor.
	tb, err := file.Rebuild(col.St)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tb.Get(fcap.Object)
	if err != nil {
		t.Fatal(err)
	}
	head, err := occ.Current(col.St, e.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if head != pp.CommitRef {
		t.Fatalf("rebuilt table leads to %d, not the committed successor %d", head, pp.CommitRef)
	}
	after, err := occ.History(col.St, e.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(chain)+1 || after[len(after)-2] != pred {
		t.Fatalf("chain after recovery = %v, want %v followed by the successor", after, chain)
	}
	// Both the reshare and the successor's write took effect.
	cur, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	for i, want := range []string{"successor", "leaf1", "leaf2", "written"} {
		data, _, err := srv.ReadPage(cur, page.Path{i})
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("page %d = %q, want %q", i, data, want)
		}
	}
}

// TestRecoveryScanPagesOverTCP: a block server holding more blocks than
// one reply frame can list (rpc.MaxData/4 numbers) still hands every one
// of them to a remote Recover, and the collector's account scan — a
// whole Recover each cycle — keeps working over that remote store.
func TestRecoveryScanPagesOverTCP(t *testing.T) {
	mem := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024}))
	tcp, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	port := capability.NewPort().Public()
	tcp.Register(port, block.Serve(mem))
	res := rpc.NewResolver()
	res.Set(port, tcp.Addr())
	cli := rpc.NewTCPClient(res)
	defer cli.Close()
	remote, err := block.Dial(cli, port)
	if err != nil {
		t.Fatal(err)
	}

	const garbage = rpc.MaxData/4 + 1000
	datas := make([][]byte, garbage)
	for i := range datas {
		datas[i] = []byte{byte(i)}
	}
	if _, err := block.AllocMulti(remote, 1, datas); err != nil {
		t.Fatal(err)
	}
	all, err := remote.Recover(1)
	if err != nil {
		t.Fatalf("recovery scan: %v", err)
	}
	if len(all) != garbage {
		t.Fatalf("recovery scan listed %d blocks, want %d", len(all), garbage)
	}

	sh := server.NewShared(remote, 1)
	srv := server.New(sh, nil)
	fcap, err := srv.CreateFile([]byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{srv: srv, col: New(srv.Store(), sh.Table, 2, srv.LiveVersions)}
	if rep := f.collectTwice(t); rep.Freed != garbage {
		t.Fatalf("collector freed %d blocks, want the %d unreachable ones", rep.Freed, garbage)
	}
	cur, err := srv.CurrentVersion(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := srv.ReadCommitted(cur, page.RootPath); err != nil || string(data) != "kept" {
		t.Fatalf("file after collection: %q, %v", data, err)
	}
}

// cycleStore is the in-memory block server with two hooks for staging a
// collection cycle against an update: one runs before the collector's
// account scan (after its mark), one after an alloc returns. Each hook
// fires once.
type cycleStore struct {
	*block.Server
	block.Scalar
	beforeRecover func()
	afterAlloc    func()
}

func (c *cycleStore) Recover(a block.Account) ([]block.Num, error) {
	if h := c.beforeRecover; h != nil {
		c.beforeRecover = nil
		h()
	}
	return c.Server.Recover(a)
}

func (c *cycleStore) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	ns, err := c.Server.AllocMulti(a, data)
	if h := c.afterAlloc; h != nil && err == nil {
		c.afterAlloc = nil
		h()
	}
	return ns, err
}

func newCycleFixture(t *testing.T) (*cycleStore, *server.Server, *Collector) {
	t.Helper()
	cs := &cycleStore{Server: block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 12, BlockSize: 1024}))}
	cs.Scalar = block.Scalar{Multi: cs}
	sh := server.NewShared(cs, 1)
	srv := server.New(sh, nil)
	return cs, srv, New(srv.Store(), sh.Table, 1, srv.LiveVersions)
}

// TestCommitBetweenPinAndTableSamples: a cycle samples the open versions
// and the file table; an update that commits between the two samples
// must be in one of them. The staging: cycle 1 marks while the update is
// open, and the update flushes a shadow page before the cycle's account
// scan, so cycle 1 condemns the shadow (allocated after the mark). Cycle
// 2 lets the update commit between its two samples. Sampling the table
// first misses the commit in both — and frees the shadow of an
// acknowledged commit.
func TestCommitBetweenPinAndTableSamples(t *testing.T) {
	cs, srv, col := newCycleFixture(t)
	fcap, _ := srv.CreateFile([]byte("root"))
	setup, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err := srv.InsertPage(setup, page.RootPath, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Commit(setup); err != nil {
		t.Fatal(err)
	}
	v, _ := srv.CreateVersion(fcap, server.CreateVersionOpts{})
	if err := srv.WritePage(v, page.Path{0}, []byte("new")); err != nil {
		t.Fatal(err)
	}
	cs.beforeRecover = func() {
		// Flush the buffered write: the shadow of /0 is allocated now.
		if _, _, err := srv.ReadPage(v, page.Path{0}); err != nil {
			t.Errorf("flush: %v", err)
		}
	}
	if _, err := col.Collect(); err != nil {
		t.Fatal(err)
	}
	committed := false
	col.Live = func() []block.Num {
		if !committed {
			committed = true
			if err := srv.Commit(v); err != nil {
				t.Errorf("commit: %v", err)
			}
		}
		return srv.LiveVersions()
	}
	if _, err := col.Collect(); err != nil {
		t.Fatal(err)
	}
	cur, err := srv.CurrentVersion(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := srv.ReadCommitted(cur, page.Path{0}); err != nil || string(data) != "new" {
		t.Fatalf("acknowledged commit reads %q, %v after two cycles", data, err)
	}
}

// TestPinSampleWaitsForVersionCreation: a version's root is allocated
// before its record is registered. Two whole cycles staged in that gap
// must not free the root: the pin sample waits for the creation in
// flight to register.
func TestPinSampleWaitsForVersionCreation(t *testing.T) {
	cs, srv, col := newCycleFixture(t)
	fcap, _ := srv.CreateFile([]byte("root"))
	allocated, release := make(chan struct{}), make(chan struct{})
	cs.afterAlloc = func() { // the new version's root: its first alloc
		close(allocated)
		<-release
	}
	type created struct {
		v   capability.Capability
		err error
	}
	res := make(chan created, 1)
	go func() {
		v, err := srv.CreateVersion(fcap, server.CreateVersionOpts{})
		res <- created{v, err}
	}()
	<-allocated
	cycles := make(chan error, 1)
	go func() {
		_, err := col.Collect()
		if err == nil {
			_, err = col.Collect()
		}
		cycles <- err
	}()
	// Without the fence both cycles finish inside the gap; with it the
	// first blocks in its pin sample until the creation registers.
	var err error
	select {
	case err = <-cycles:
		close(release)
	case <-time.After(200 * time.Millisecond):
		close(release)
		err = <-cycles
	}
	if err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if data, _, err := srv.ReadPage(r.v, page.RootPath); err != nil || string(data) != "root" {
		t.Fatalf("version created across two cycles reads %q, %v", data, err)
	}
	if err := srv.Commit(r.v); err != nil {
		t.Fatal(err)
	}
}
