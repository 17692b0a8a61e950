package server

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/file"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/segstore"
	"repro/internal/version"
)

// errCrashed is what every call to a crashStore returns once its block
// service has died.
var errCrashed = errors.New("block service crashed")

// crashStore passes calls through to a segment log until its budget of
// mutating calls (allocs and writes; negative for none) is spent; the
// next mutating call, and every call after it, fails with errCrashed and
// reaches nothing: the block service died just before it. It re-binds
// the scalar adapter to itself, so scalar writes count too.
type crashStore struct {
	*segstore.Store
	block.Scalar
	left, made int
	dead       bool
}

// mutate spends one mutating call of the budget, reporting false once
// the service is dead.
func (c *crashStore) mutate() bool {
	if c.left == 0 {
		c.dead = true
	}
	if c.dead {
		return false
	}
	c.left--
	c.made++
	return true
}

func (c *crashStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	if c.dead {
		return nil, errCrashed
	}
	return c.Store.ReadMulti(a, ns)
}

func (c *crashStore) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	if !c.mutate() {
		return nil, errCrashed
	}
	return c.Store.AllocMulti(a, data)
}

func (c *crashStore) WriteMulti(a block.Account, ns []block.Num, data [][]byte) error {
	if !c.mutate() {
		return errCrashed
	}
	return c.Store.WriteMulti(a, ns, data)
}

func (c *crashStore) Lock(a block.Account, n block.Num) error {
	if c.dead {
		return errCrashed
	}
	return c.Store.Lock(a, n)
}

// TestSmallCommitCrashPrefix crashes the block service at every prefix of
// one small commit's mutating block calls — the top-lock hint's write,
// the flush's alloc, the flush's write and the commit reference's write,
// which also clears the hint — then abandons the segment log and reopens
// it. At every prefix the rebuilt table's current version is the last
// acknowledged commit, or the new one exactly when the commit
// reference's write landed; every block the rebuilt table reaches is
// allocated; a second rebuild gives the same table; and an update that
// crashed before its flush's alloc landed left no block on the store.
func TestSmallCommitCrashPrefix(t *testing.T) {
	const acct block.Account = 1
	const calls = 4
	for landed := 0; landed <= calls; landed++ {
		dir := t.TempDir()
		seg, err := segstore.Open(dir, segstore.Options{BlockSize: 1024, LogShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		cs := &crashStore{Store: seg, left: -1}
		cs.Scalar = block.Scalar{Multi: cs}
		s := New(NewShared(cs, acct), nil)
		fcap := pagedFile(t, s, 4)
		acked, err := s.CurrentVersion(fcap)
		if err != nil {
			t.Fatal(err)
		}
		before, err := seg.Recover(acct)
		if err != nil {
			t.Fatal(err)
		}

		cs.left, cs.made = landed, 0
		err = func() error {
			v, err := s.CreateVersion(fcap, CreateVersionOpts{})
			if err != nil {
				return err
			}
			if _, _, err := s.ReadPage(v, page.Path{1}); err != nil {
				return err
			}
			if err := s.WritePage(v, page.Path{1}, []byte("rewritten")); err != nil {
				return err
			}
			return s.Commit(v)
		}()
		if (err == nil) != (landed == calls) || err != nil && !errors.Is(err, errCrashed) {
			t.Fatalf("%d calls landed: update ended with %v", landed, err)
		}
		if cs.made != landed {
			t.Fatalf("%d calls landed: the update made %d mutating calls", landed, cs.made)
		}
		seg.Abandon()

		seg2, err := segstore.Open(dir, segstore.Options{BlockSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		st := version.NewStore(seg2, acct)
		what := fmt.Sprintf("%d of %d calls landed", landed, calls)
		tb, err := file.Rebuild(st)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", what, err)
		}
		e, err := tb.Get(fcap.Object)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cur, err := occ.Current(st, e.Entry)
		if err != nil {
			t.Fatal(err)
		}
		want := "child1"
		if landed == calls {
			want = "rewritten"
			if cur == acked {
				t.Fatalf("%s: the acknowledged commit is not current", what)
			}
		} else if cur != acked {
			t.Fatalf("%s: current version %d, want the last acknowledged %d", what, cur, acked)
		}
		if pg, err := (&version.Tree{St: st, Root: cur}).PeekPage(page.Path{1}); err != nil || string(pg.Data) != want {
			t.Fatalf("%s: current /1 reads %v, want %q", what, err, want)
		}

		onStore, err := seg2.Recover(acct)
		if err != nil {
			t.Fatal(err)
		}
		allocated := make(map[block.Num]bool)
		for _, n := range onStore {
			allocated[n] = true
		}
		for obj, e := range tb.Entries() {
			chain, err := occ.History(st, e.Entry)
			if err != nil {
				t.Fatalf("%s: object %d history: %v", what, obj, err)
			}
			for _, root := range chain {
				blks, err := (&version.Tree{St: st, Root: root}).Blocks()
				if err != nil {
					t.Fatalf("%s: object %d version %d: %v", what, obj, root, err)
				}
				for n := range blks {
					if !allocated[n] {
						t.Fatalf("%s: object %d version %d reaches unallocated block %d", what, obj, root, n)
					}
				}
			}
		}
		again, err := file.Rebuild(st)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(tb.Entries(), again.Entries()) {
			t.Fatalf("%s: a second rebuild differs: %v, then %v", what, tb.Entries(), again.Entries())
		}
		if landed < 2 {
			slices.Sort(before)
			slices.Sort(onStore)
			if !slices.Equal(before, onStore) {
				t.Fatalf("%s: an update that never flushed left blocks: %v before, %v after", what, before, onStore)
			}
		}
		seg2.Close()
	}
}
