package ftab_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/ftabtest"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/version"
)

// TestReplicationBasics: a create on one replica is visible on the
// other with a bit-identical capability; a commit on either side
// advances both tables; fingerprints agree.
func TestReplicationBasics(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	e0, err := m.Replicas[0].Rep.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatalf("entry not replicated: %v", err)
	}
	if e0 != e1 {
		t.Fatalf("entries differ: %+v vs %+v", e0, e1)
	}
	// The replicated owner capability makes replica 0's verify at replica 1.
	if err := capability.Verify(e1.Cap, e0.Cap, capability.RightsAll); err != nil {
		t.Fatalf("replica 1 refuses replica 0's capability: %v", err)
	}
	// Commit through replica 1; replica 0 must follow.
	ok, err := m.Commit(t, 1, obj, []byte("v2"))
	if err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	m.FlushAll(t)
	e0b, _ := m.Replicas[0].Rep.Get(obj)
	e1b, _ := m.Replicas[1].Rep.Get(obj)
	if e0b.Entry != e1b.Entry || e0b.Entry == e0.Entry {
		t.Fatalf("commit not replicated: %+v vs %+v (was %+v)", e0b, e1b, e0)
	}
	if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
		t.Fatalf("fingerprints differ: %s vs %s", a, b)
	}
}

// TestCrashCatchUp: a replica that missed commits while crashed comes
// back byte-equal after reboot (snapshot pull) and heal.
func TestCrashCatchUp(t *testing.T) {
	m := ftabtest.New(t, 3)
	var objs []uint32
	for i := 0; i < 4; i++ {
		obj, err := m.CreateFile(t, i%3, []byte(fmt.Sprintf("file %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	m.FlushAll(t)
	m.Crash(2)
	// Commits (and a create) land while replica 2 is down.
	for i, obj := range objs {
		if _, err := m.Commit(t, i%2, obj, []byte("after crash")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CreateFile(t, 0, []byte("born during outage")); err != nil {
		t.Fatal(err)
	}
	m.Reboot(t, 2)
	m.HealAll(t)
	m.CheckConverged(t)
	if got := m.Replicas[2].Rep.Len(); got != 5 {
		t.Fatalf("rebooted replica has %d files, want 5", got)
	}
}

// TestRacingEstablishment: two replicas that each recover the same
// store while partitioned adopt the same entries — the owner capability
// comes from the version pages, not from either replica — so their
// tables agree before they ever meet, the capability a client held
// before the crash verifies at both, and the heal changes nothing.
func TestRacingEstablishment(t *testing.T) {
	d, err := disk.New(disk.Geometry{Blocks: 1 << 12, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	store := block.NewServer(d)
	net := rpc.NewNetwork()
	acct := block.Account(1)

	// The file both will recover: written by a dead previous server.
	old := capability.NewFactory(capability.NewPort().Public()).Mint(7)
	st := version.NewStore(store, acct)
	tr, err := version.CreateFile(st, old, capability.Nil, []byte("old data"))
	if err != nil {
		t.Fatal(err)
	}

	mk := func(id uint32) *ftab.Replicated {
		return ftab.NewReplicated(ftab.Options{ID: id, Local: file.NewTable(), Store: version.NewStore(store, acct)})
	}
	a, b := mk(0), mk(1)
	a.AddPeer(1, net)
	b.AddPeer(0, net)
	if err := net.Register("a", ftab.PortFor(0), a.Handler()); err != nil {
		t.Fatal(err)
	}
	if err := net.Register("b", ftab.PortFor(1), b.Handler()); err != nil {
		t.Fatal(err)
	}

	// Both adopt the scanned file independently (peers down: partition),
	// as server.Shared.AdoptTable does.
	rebuilt, err := file.Rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ftab.Replicated{a, b} {
		for obj, e := range rebuilt.Entries() {
			r.Put(obj, e)
		}
	}
	fa, fb := ftab.Fingerprint(a), ftab.Fingerprint(b)
	if fa != fb {
		t.Fatalf("partitioned adopters disagree before healing: %s vs %s\n%v\nvs\n%v", fa, fb, a.Entries(), b.Entries())
	}
	for i, r := range []*ftab.Replicated{a, b} {
		e, err := r.Get(7)
		if err != nil {
			t.Fatal(err)
		}
		if err := capability.Verify(e.Cap, old, capability.RightsAll); err != nil || e.Entry != tr.Root {
			t.Fatalf("replica %d: entry %+v; the pre-crash capability: %v", i, e, err)
		}
	}

	// They meet: a heals towards b (hello + push + pull).
	if _, err := a.Heal(); err != nil {
		t.Fatal(err)
	}
	if ga, gb := ftab.Fingerprint(a), ftab.Fingerprint(b); ga != fa || gb != fa {
		t.Fatalf("the heal changed agreeing tables: %s, %s; were %s", ga, gb, fa)
	}
}

// TestEqualOriginRemintConverges: a server that reboots while
// partitioned recovers its own band's objects from the store. They keep
// the owner capabilities their version pages carry, so its table equals
// the unreachable peer's before the partition heals, and both still
// verify the capability issued before the reboot.
func TestEqualOriginRemintConverges(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("minted by replica 0"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	before, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Replica 0 reboots while replica 1 is unreachable: its bootstrap
	// pulls nothing, and its recovery adopts the scanned entries.
	m.Crash(1)
	m.Crash(0)
	m.Reboot(t, 0)
	r0 := m.Replicas[0]
	if e, err := r0.Rep.Get(obj); err == nil {
		t.Fatalf("partitioned reboot should start empty, found %+v", e)
	}
	ref, err := file.Rebuild(version.NewStore(m.Store, m.Acct))
	if err != nil {
		t.Fatal(err)
	}
	for o, re := range ref.Entries() {
		r0.Rep.Put(o, re)
	}
	check := func(when string) {
		t.Helper()
		if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
			t.Fatalf("%s: tables differ: %s vs %s\n%v\nvs\n%v",
				when, a, b, m.Replicas[0].Rep.Entries(), m.Replicas[1].Rep.Entries())
		}
		for i, r := range m.Replicas {
			e, err := r.Rep.Get(obj)
			if err != nil {
				t.Fatalf("%s: replica %d: %v", when, i, err)
			}
			if err := capability.Verify(e.Cap, before.Cap, capability.RightsAll); err != nil {
				t.Fatalf("%s: replica %d refuses the pre-reboot capability: %v", when, i, err)
			}
		}
	}
	check("before the heal")
	// The partition heals: replica 1 comes back reachable (its state
	// never went away — only the link did).
	m.Uncrash(t, 1)
	if _, err := r0.Rep.Heal(); err != nil {
		t.Fatal(err)
	}
	check("after the heal")
}

// TestRetireReplicatesExactly: a Retire — the GC moving a file's entry
// point to the oldest RETAINED version, deliberately behind the head —
// must land as-is on every replica, not be chased forward, or the
// tables diverge on every collection cycle.
func TestRetireReplicatesExactly(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	e0, _ := m.Replicas[0].Rep.Get(obj)
	birth := e0.Entry
	for i := 0; i < 2; i++ {
		if ok, err := m.Commit(t, 0, obj, []byte(fmt.Sprintf("v%d", i+1))); err != nil || !ok {
			t.Fatalf("commit %d: ok=%v err=%v", i, ok, err)
		}
	}
	m.FlushAll(t)
	head, _ := m.Replicas[0].Rep.Get(obj)
	if head.Entry == birth {
		t.Fatal("no chain built")
	}
	// The collector on replica 0 moves the entry back to the birth
	// version (still committed, still on the chain).
	m.Replicas[0].Rep.Retire(obj, birth)
	m.FlushAll(t)
	for i, r := range m.Replicas {
		e, _ := r.Rep.Get(obj)
		if e.Entry != birth {
			t.Fatalf("replica %d entry %d after retention advance, want %d", i, e.Entry, birth)
		}
	}
	if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
		t.Fatalf("tables diverged after retention advance: %s vs %s", a, b)
	}
}

// TestRemoveReplicates: a removal tombstones the entry on every live
// replica.
func TestRemoveReplicates(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	if _, err := m.Replicas[1].Rep.Get(obj); err != nil {
		t.Fatal(err)
	}
	m.Replicas[0].Rep.Remove(obj)
	m.FlushAll(t)
	if _, err := m.Replicas[1].Rep.Get(obj); !errors.Is(err, file.ErrUnknownFile) {
		t.Fatalf("want unknown after replicated remove, got %v", err)
	}
	// A late CAS for the removed object must not resurrect it.
	m.Replicas[0].Rep.Advance(obj, 3)
	if _, err := m.Replicas[0].Rep.Get(obj); !errors.Is(err, file.ErrUnknownFile) {
		t.Fatalf("late CAS resurrected removed entry")
	}
}

// TestConvergenceScenarios runs the harness across replica counts,
// seeds, and crash/rejoin.
func TestConvergenceScenarios(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, crash := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("replicas=%d/crash=%v/seed=%d", n, crash, seed)
				t.Run(name, func(t *testing.T) {
					steps := 40
					if testing.Short() {
						steps = 10
					}
					ftabtest.Fuzz(t, seed, n, 3, steps, crash)
				})
			}
		}
	}
}

// FuzzConvergence lets the fuzzer pick seeds and shapes.
func FuzzConvergence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10), false)
	f.Add(int64(42), uint8(3), uint8(25), true)
	f.Fuzz(func(t *testing.T, seed int64, replicas, steps uint8, crash bool) {
		n := 2 + int(replicas)%2 // 2 or 3
		s := int(steps)%40 + 2
		ftabtest.Fuzz(t, seed, n, 2, s, crash)
	})
}

// lockRefuser refuses Lock on block blk its first refuse times, as a
// store does while a commit holds that version page's critical section.
type lockRefuser struct {
	*block.Server
	blk             block.Num
	refuse, refused int
}

func (s *lockRefuser) Lock(a block.Account, n block.Num) error {
	if n == s.blk && s.refused < s.refuse {
		s.refused++
		return block.ErrLocked
	}
	return s.Server.Lock(a, n)
}

// TestTombstoneWaitsOutHeldBlockLock: a Remove whose chain head stays
// block-locked for twenty attempts still stamps the durable tombstone,
// so a table rebuilt from storage does not bring the file back.
func TestTombstoneWaitsOutHeldBlockLock(t *testing.T) {
	d, err := disk.New(disk.Geometry{Blocks: 1 << 10, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	ls := &lockRefuser{Server: block.NewServer(d)}
	st := version.NewStore(ls, 1)
	const obj = 5
	fc := capability.NewFactory(capability.NewPort().Public()).Mint(obj)
	born, err := version.CreateFile(st, fc, capability.Nil, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := version.CreateVersion(st, born.Root, capability.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.WritePage(page.RootPath, []byte("doomed v2")); err != nil {
		t.Fatal(err)
	}
	if err := occ.NewCommitter(st).Commit(next, capability.NilPort); err != nil {
		t.Fatal(err)
	}
	r := ftab.NewReplicated(ftab.Options{Local: file.NewTable(), Store: st})
	r.Put(obj, file.Entry{Cap: fc, Entry: born.Root}) // the head is a chase away
	ls.blk, ls.refuse = next.Root, 20
	r.Remove(obj)
	if ls.refused != 20 {
		t.Fatalf("head lock refused %d times, want 20", ls.refused)
	}
	vp, err := st.ReadPage(next.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !vp.Deleted {
		t.Fatal("chain head not stamped Deleted")
	}
	ref, err := file.Rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Get(obj); !errors.Is(err, file.ErrUnknownFile) {
		t.Fatalf("recovery scan resurrected the removed file: %v", err)
	}
}
