package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/gc"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/version"
)

// pagedFile creates a file whose root holds "root" and n children
// "child0".."child<n-1>", committed.
func pagedFile(t *testing.T, s *Server, n int) capability.Capability {
	t.Helper()
	fcap, err := s.CreateFile([]byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.InsertPage(v, page.RootPath, i, []byte(fmt.Sprint("child", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	return fcap
}

// TestReadOnlyUpdateCallBudget: reads in an open version look the page
// up and record the path in the version's read set; they make no
// mutating block call. Eight depth-1 reads of a 32-page file cost one
// read each, of the page — the version holds its root page in memory —
// and nothing else, so an update that only reads and aborts writes
// nothing between CreateVersion and Abort. (Reading the root block too
// cost 16 reads; shadowing each read at once, 16 reads, 8 allocs and 8
// writes.) When such an update commits instead, the flush records all
// eight reads in one pass — one alloc for the root and the eight
// shadows — and the committed version carries R on each page read and S
// on its root.
func TestReadOnlyUpdateCallBudget(t *testing.T) {
	cs, s := newCountService(t)
	fcap := pagedFile(t, s, 32)
	for _, commit := range []bool{false, true} {
		v, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		cs.reset()
		for p := 0; p < 32; p += 4 {
			if data, _, err := s.ReadPage(v, page.Path{p}); err != nil || string(data) != fmt.Sprint("child", p) {
				t.Fatalf("read /%d: %q, %v", p, data, err)
			}
		}
		if cs.reads != 8 || cs.allocs != 0 || cs.writes != 0 {
			t.Fatalf("8 reads: %d reads, %d allocs, %d writes; want 8, 0, 0", cs.reads, cs.allocs, cs.writes)
		}
		if !commit {
			if err := s.Abort(v); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cs.reset()
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
		if cs.allocs != 1 {
			t.Fatalf("commit of 8 reads: %d allocs, want 1", cs.allocs)
		}
		root, err := s.VersionRoot(v)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := s.st.ReadPage(root)
		if err != nil {
			t.Fatal(err)
		}
		if vp.RootFlags&page.FlagS == 0 {
			t.Fatalf("committed root flags %v, want S", vp.RootFlags)
		}
		for p, r := range vp.Refs {
			if read := p%4 == 0; read != (r.Flags&page.FlagR != 0) || r.Flags&page.FlagW != 0 {
				t.Fatalf("committed /%d flags %v, read %v", p, r.Flags, read)
			}
		}
	}
}

// TestReadSetConflictCaught: a read waits in the read set, but the
// commit flushes it before validating, so a competing commit that
// rewrote the page read is still a conflict — also for an update that
// only read — while one that rewrote another page merges.
func TestReadSetConflictCaught(t *testing.T) {
	_, s := newService(t)
	for _, other := range []int{1, 3} {
		fcap := pagedFile(t, s, 4)
		v, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if data, _, err := s.ReadPage(v, page.Path{1}); err != nil || string(data) != "child1" {
			t.Fatalf("read /1: %q, %v", data, err)
		}
		w, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(w, page.Path{other}, []byte(fmt.Sprint("rewrite", other))); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(w); err != nil {
			t.Fatal(err)
		}
		err = s.Commit(v)
		if other == 1 {
			if !errors.Is(err, occ.ErrConflict) {
				t.Fatalf("commit after a competing rewrite of the page read: %v, want ErrConflict", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("commit after a competing rewrite of another page: %v", err)
		}
		cur, err := s.CurrentVersion(fcap)
		if err != nil {
			t.Fatal(err)
		}
		if data, _, err := s.ReadCommitted(cur, page.Path{3}); err != nil || string(data) != "rewrite3" {
			t.Fatalf("merged /3: %q, %v", data, err)
		}
	}
}

// TestReadSetPinsHold: an update that has only read holds nothing but its
// version page, whose references name the base's pages, and that is what
// the collector pins. Two more commits and two collections later its
// reads still return the base's data; after it aborts, two more
// collections free the retired versions and nothing the current version
// reaches.
func TestReadSetPinsHold(t *testing.T) {
	sh, s := newService(t)
	fcap := pagedFile(t, s, 8)
	col := gc.New(s.Store(), sh.Table, 1, s.LiveVersions)
	collect := func() (freed int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			rep, err := col.Collect()
			if err != nil {
				t.Fatal(err)
			}
			freed += rep.Freed
		}
		return freed
	}
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(from int) {
		t.Helper()
		for p := from; p < 8; p += 2 {
			if data, _, err := s.ReadPage(v, page.Path{p}); err != nil || string(data) != fmt.Sprint("child", p) {
				t.Fatalf("read /%d: %q, %v; want the base's", p, data, err)
			}
		}
	}
	read(0)
	for round := 0; round < 2; round++ {
		w, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 8; p++ {
			if err := s.WritePage(w, page.Path{p}, []byte(fmt.Sprint("round", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	collect()
	read(0)
	read(1)
	if err := s.Abort(v); err != nil {
		t.Fatal(err)
	}
	cur, err := s.CurrentVersion(fcap)
	if err != nil {
		t.Fatal(err)
	}
	reached := make(map[block.Num][]byte)
	err = s.st.Visit([]block.Num{cur}, func(n *version.Node) (version.Follow, error) {
		if n.Err != nil {
			return nil, n.Err
		}
		raw, err := s.shared.Store.Read(s.shared.Acct, n.Ref.Block)
		reached[n.Ref.Block] = raw
		return version.All, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if freed := collect(); freed == 0 {
		t.Fatal("collections after the abort freed nothing; the retired versions should go")
	}
	for n, want := range reached {
		if got, err := s.shared.Store.Read(s.shared.Acct, n); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d of the current version after the collections: %v", n, err)
		}
	}
	for p := 0; p < 8; p++ {
		if data, _, err := s.ReadCommitted(cur, page.Path{p}); err != nil || string(data) != "round1" {
			t.Fatalf("current /%d: %q, %v", p, data, err)
		}
	}
}

// TestReadSetOracle is TestSerialisabilityOracle's scripts driven through
// the server: for each seeded pair of concurrent updates B and C of one
// file — reads and read-dependent or blind writes — C commits first and
// B then commits or conflicts. The server defers B's reads to its read
// set and buffers its writes; the same scripts run eagerly on version
// trees (every read shadowed and flagged at once) through occ must reach
// the same decision on every trial, and, when B commits, the same pages.
func TestReadSetOracle(t *testing.T) {
	const (
		pages  = 8
		trials = 400
	)
	rng := rand.New(rand.NewSource(20260610))
	type op struct {
		read bool
		pg   int
	}
	randomOps := func() []op {
		n := 1 + rng.Intn(4)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{read: rng.Intn(2) == 0, pg: rng.Intn(pages)}
		}
		return ops
	}
	// run applies a script through read and write, deriving each written
	// value from the lengths read so far.
	run := func(ops []op, tag string, read func(page.Path) ([]byte, error), write func(page.Path, []byte) error) {
		t.Helper()
		sum := 0
		for k, o := range ops {
			if o.read {
				data, err := read(page.Path{o.pg})
				if err != nil {
					t.Fatal(err)
				}
				sum += len(data)
				continue
			}
			if err := write(page.Path{o.pg}, []byte(fmt.Sprintf("%s-%d-%d", tag, k, sum))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < trials; trial++ {
		bOps, cOps := randomOps(), randomOps()

		// The eager run: version trees and occ alone.
		st := version.NewStore(block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 12, BlockSize: 1024})), 1)
		com := occ.NewCommitter(st)
		fact := capability.NewFactory(capability.NewPort().Public())
		base, err := version.CreateFile(st, fact.Register(1), fact.Register(2), []byte("root"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if err := base.InsertPage(page.RootPath, i, []byte(fmt.Sprint("child", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := com.Commit(base, capability.NilPort); err != nil {
			t.Fatal(err)
		}
		trees := make([]*version.Tree, 2)
		for i := range trees {
			if trees[i], err = version.CreateVersion(st, base.Root, fact.Register(uint32(3+i))); err != nil {
				t.Fatal(err)
			}
		}
		for i, ops := range [][]op{bOps, cOps} {
			tr := trees[i]
			run(ops, string("BC"[i]), func(p page.Path) ([]byte, error) {
				data, _, err := tr.ReadPage(p)
				return data, err
			}, tr.WritePage)
		}
		if err := com.Commit(trees[1], capability.NilPort); err != nil {
			t.Fatalf("trial %d: eager C commit: %v", trial, err)
		}
		eagerErr := com.Commit(trees[0], capability.NilPort)
		if eagerErr != nil && !errors.Is(eagerErr, occ.ErrConflict) {
			t.Fatalf("trial %d: eager B commit: %v", trial, eagerErr)
		}

		// The same scripts through the server.
		_, s := newService(t)
		fcap := pagedFile(t, s, pages)
		vcaps := make([]capability.Capability, 2)
		for i := range vcaps {
			if vcaps[i], err = s.CreateVersion(fcap, CreateVersionOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		for i, ops := range [][]op{bOps, cOps} {
			v := vcaps[i]
			run(ops, string("BC"[i]), func(p page.Path) ([]byte, error) {
				data, _, err := s.ReadPage(v, p)
				return data, err
			}, func(p page.Path, data []byte) error { return s.WritePage(v, p, data) })
		}
		if err := s.Commit(vcaps[1]); err != nil {
			t.Fatalf("trial %d: server C commit: %v", trial, err)
		}
		serverErr := s.Commit(vcaps[0])
		if serverErr != nil && !errors.Is(serverErr, occ.ErrConflict) {
			t.Fatalf("trial %d: server B commit: %v", trial, serverErr)
		}
		if (eagerErr == nil) != (serverErr == nil) {
			t.Fatalf("trial %d: eager B commit %v, server B commit %v\nbOps=%+v\ncOps=%+v",
				trial, eagerErr, serverErr, bOps, cOps)
		}
		eagerCur, err := occ.Current(st, base.Root)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := s.CurrentVersion(fcap)
		if err != nil {
			t.Fatal(err)
		}
		eager := &version.Tree{St: st, Root: eagerCur}
		for p := 0; p < pages; p++ {
			want, err := eager.PeekPage(page.Path{p})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.ReadCommitted(cur, page.Path{p})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Data) {
				t.Fatalf("trial %d page %d: server %q, eager %q", trial, p, got, want.Data)
			}
		}
	}
}

// TestInnerLockRefusesRebasedSmallUpdate: a small update of a sub-file
// whose top hint another small update overwrote does not commit past a
// super-file update's inner lock. U1 is created, U2 overwrites the hint
// and commits, clearing it; the super-file update then crosses into the
// sub-file and inner-locks U2's version. U1's commit chases to that
// version through OCC's rebase path and is refused there with
// ErrConflict, so the super-file's commit lands, and the sub-file reads
// "super" on its own and through the super-file. (Without the refusal U1
// committed, and the super-file's sub-file commit clashed after its own
// OCC commit had landed.)
func TestInnerLockRefusesRebasedSmallUpdate(t *testing.T) {
	_, s := newService(t)
	superCap, subCap := buildSuper(t, s, "sub")
	small := make([]capability.Capability, 2)
	for i := range small {
		v, err := s.CreateVersion(subCap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(v, page.RootPath, []byte(fmt.Sprint("u", i+1))); err != nil {
			t.Fatal(err)
		}
		small[i] = v
	}
	if err := s.Commit(small[1]); err != nil {
		t.Fatal(err)
	}
	sv, err := s.CreateVersion(superCap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(sv, page.Path{1}, []byte("super")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(small[0]); !errors.Is(err, occ.ErrConflict) {
		t.Fatalf("U1's commit over the inner-locked version: %v, want ErrConflict", err)
	}
	if err := s.Commit(sv); err != nil {
		t.Fatalf("super-file commit: %v", err)
	}
	sub, err := s.CurrentVersion(subCap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadCommitted(sub, page.RootPath); err != nil || string(data) != "super" {
		t.Fatalf("the sub-file on its own reads %q, %v; want super", data, err)
	}
	cur, err := s.CurrentVersion(superCap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.ReadCommitted(cur, page.Path{1}); err != nil || string(data) != "super" {
		t.Fatalf("the sub-file through the super-file reads %q, %v; want super", data, err)
	}
}
