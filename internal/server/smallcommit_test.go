package server

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/page"
)

// TestSmallCommitCallBudget pins what one small update — create a
// version, read one page, rewrite it, commit — costs the block service,
// step by step. Creation reads the current version page and locks it to
// set the top-lock hint, forking the new version from the page it
// locked; it allocates nothing. The read looks up the page alone, the
// root being in the version's memory, and the write is buffered. The
// commit's flush reads the page again, allocates the new root with the
// page's shadow in one AllocMulti and patches the root in one
// WriteMulti; the commit reference is then set, and the hint cleared, in
// one lock cycle. That is 5 reads, 1 alloc, 3 writes and 2 lock cycles:
// 13 block calls, each lock cycle a Lock and an Unlock. (While creation
// read the base three times and allocated the root, and the commit read
// the root back and cleared the hint in a lock cycle of its own: 10
// reads, 2 allocs, 4 writes, 3 lock cycles, 22 calls.)
func TestSmallCommitCallBudget(t *testing.T) {
	cs, s := newCountService(t)
	fcap := pagedFile(t, s, 16)
	type cost struct{ reads, allocs, writes, locks int }
	var total cost
	step := func(what string, want cost, fn func() error) {
		t.Helper()
		cs.reset()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := cost{cs.reads, cs.allocs, cs.writes, cs.locks}
		if got != want {
			t.Fatalf("%s: %d reads, %d allocs, %d writes, %d lock cycles; want %d, %d, %d, %d",
				what, got.reads, got.allocs, got.writes, got.locks, want.reads, want.allocs, want.writes, want.locks)
		}
		total = cost{total.reads + got.reads, total.allocs + got.allocs, total.writes + got.writes, total.locks + got.locks}
	}
	var v capability.Capability
	step("CreateVersion", cost{2, 0, 1, 1}, func() (err error) {
		v, err = s.CreateVersion(fcap, CreateVersionOpts{})
		return err
	})
	step("ReadPage", cost{1, 0, 0, 0}, func() error {
		data, _, err := s.ReadPage(v, page.Path{5})
		if err == nil && string(data) != "child5" {
			err = fmt.Errorf("read %q", data)
		}
		return err
	})
	step("WritePage", cost{}, func() error { return s.WritePage(v, page.Path{5}, []byte("rewritten")) })
	step("Commit", cost{2, 1, 2, 1}, func() error { return s.Commit(v) })
	if calls := total.reads + total.allocs + total.writes + 2*total.locks; total.reads > 6 || total.allocs != 1 || total.writes != 3 || total.locks != 2 || calls > 14 {
		t.Fatalf("small commit: %+v, %d block calls; want <= 6 reads, 1 alloc, 3 writes, 2 lock cycles, <= 14 calls", total, calls)
	}
	cur, _ := s.CurrentVersion(fcap)
	if data, _, err := s.ReadCommitted(cur, page.Path{5}); err != nil || string(data) != "rewritten" {
		t.Fatalf("committed /5 reads %q, %v", data, err)
	}

	// An update that reads eight pages and aborts writes the hint and
	// clears it, and allocates nothing: 11 reads, 2 writes (20 reads, 1
	// alloc, 2 writes while creation allocated the root and every look
	// read it).
	cs.reset()
	v, err := s.CreateVersion(fcap, CreateVersionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p += 2 {
		if _, _, err := s.ReadPage(v, page.Path{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Abort(v); err != nil {
		t.Fatal(err)
	}
	if cs.reads > 11 || cs.allocs != 0 || cs.writes != 2 || cs.locks != 2 {
		t.Fatalf("read 8 and abort: %d reads, %d allocs, %d writes, %d lock cycles; want <= 11, 0, 2, 2", cs.reads, cs.allocs, cs.writes, cs.locks)
	}
}

// TestCommitClearsTopHint: every commit leaves no top lock of its update
// behind on the version it was based on. A plain small-file update's
// hint goes in the write that sets the commit reference; a commit
// rebased onto a later version clears its hint on the old base itself;
// a super-file update clears its top lock after the sub-file commits.
func TestCommitClearsTopHint(t *testing.T) {
	cs, s := newCountService(t)
	top := func(blk block.Num) capability.Port {
		t.Helper()
		top, _, err := s.locks.Locks(blk)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	update := func(fcap capability.Capability, p page.Path, data string) capability.Capability {
		t.Helper()
		v, err := s.CreateVersion(fcap, CreateVersionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(v, p, []byte(data)); err != nil {
			t.Fatal(err)
		}
		return v
	}

	fcap := pagedFile(t, s, 2)
	base, _ := s.CurrentVersion(fcap)
	v := update(fcap, page.Path{0}, "plain")
	if top(base).IsNil() {
		t.Fatal("open update set no top-lock hint")
	}
	cs.reset()
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if cs.locks != 1 || !top(base).IsNil() {
		t.Fatalf("plain commit: %d lock cycles, hint %v left on the base; want 1, none", cs.locks, top(base))
	}

	// u's hint is the base's last: w's commit leaves it, and u, rebased
	// onto w, clears it on the old base.
	base, _ = s.CurrentVersion(fcap)
	w := update(fcap, page.Path{0}, "first")
	u := update(fcap, page.Path{1}, "rebased")
	if err := s.Commit(w); err != nil {
		t.Fatal(err)
	}
	if top(base).IsNil() {
		t.Fatal("a commit cleared another update's hint")
	}
	if err := s.Commit(u); err != nil {
		t.Fatal(err)
	}
	if !top(base).IsNil() {
		t.Fatalf("rebased commit left hint %v on its old base", top(base))
	}

	superCap := buildTwinSuper(t, s)
	base, _ = s.CurrentVersion(superCap)
	v = update(superCap, page.Path{0, 0}, "super")
	if err := s.Commit(v); err != nil {
		t.Fatal(err)
	}
	if !top(base).IsNil() {
		t.Fatalf("super-file commit left top lock %v on its base", top(base))
	}
}
