package ftab_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/ftabtest"
	"repro/internal/version"
)

// TestBackpressureCoalescesNewestCAS: a burst of commits against one
// object through a tiny, slow-draining queue must coalesce in place —
// same-object CAS updates merge, newest wins — rather than overflow,
// and the peer must still converge on the newest entry after a flush.
func TestBackpressureCoalescesNewestCAS(t *testing.T) {
	m := ftabtest.NewTuned(t, 2, ftabtest.Tune{
		PushBatch: 1,
		PushQueue: 2,
		Delay:     func() time.Duration { return 200 * time.Microsecond },
	})
	obj, err := m.CreateFile(t, 0, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	for i := 0; i < 40; i++ {
		if _, err := m.Commit(t, 0, obj, []byte(fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushAll(t)
	rep := m.Replicas[0].Rep
	if got := rep.Stat.Coalesced.Load(); got == 0 {
		t.Fatalf("no CAS coalescing under backpressure (stats %+v)", rep.StatsSnapshot())
	}
	if got := rep.Stat.Overflows.Load(); got != 0 {
		t.Fatalf("same-object CAS burst overflowed %d times; it must coalesce instead", got)
	}
	e0, _ := m.Replicas[0].Rep.Get(obj)
	e1, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Entry != e0.Entry {
		t.Fatalf("peer entry %d after coalesced stream, origin has %d", e1.Entry, e0.Entry)
	}
	m.CheckConverged(t)
}

// TestOverflowDropsToSnapshotCatchUp: a burst of creates (nothing to
// coalesce) through a tiny queue must drop the peer to the snapshot
// catch-up path — never block, never silently lose an update while
// claiming the peer is in sync — and the heal must bring it back
// byte-equal, exactly like a crashed peer.
func TestOverflowDropsToSnapshotCatchUp(t *testing.T) {
	m := ftabtest.NewTuned(t, 2, ftabtest.Tune{
		PushBatch: 1,
		PushQueue: 2,
		Delay:     func() time.Duration { return 500 * time.Microsecond },
	})
	for i := 0; i < 12; i++ {
		if _, err := m.CreateFile(t, 0, []byte(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rep := m.Replicas[0].Rep
	if got := rep.Stat.Overflows.Load(); got == 0 {
		t.Fatalf("create burst did not overflow the tiny queue (stats %+v)", rep.StatsSnapshot())
	}
	if got := rep.DownPeers(); got != 1 {
		t.Fatalf("overflowed peer not marked down: %d down peers", got)
	}
	m.HealAll(t)
	if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
		t.Fatalf("overflow catch-up diverged: %s vs %s", a, b)
	}
	m.CheckConverged(t)
}

// TestCloseFlushesStreams: a clean shutdown (Close with a deadline)
// delivers everything still queued — the peer is byte-equal immediately
// after, with no heal.
func TestCloseFlushesStreams(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Commit(t, 0, obj, []byte(fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Replicas[0].Rep.Close(10 * time.Second) {
		t.Fatal("Close did not drain the streams in time")
	}
	if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
		t.Fatalf("fingerprints differ after clean shutdown: %s vs %s", a, b)
	}
}

// TestTombstoneSurvivesRejoin is the kill-peer/remove/rejoin
// regression: a replica that was down across a Remove must not
// resurrect the file — not from a snapshot, and not from the §4
// recovery scan, which is why Remove stamps a durable tombstone on the
// storage chain head.
func TestTombstoneSurvivesRejoin(t *testing.T) {
	m := ftabtest.New(t, 3)
	obj, err := m.CreateFile(t, 0, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(t, 0, obj, []byte("doomed v2")); err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	m.Crash(2)
	m.Remove(0, obj)
	m.FlushAll(t)
	// The recovery scan sees the tombstone: a table rebuilt from storage
	// alone must not contain the removed file.
	ref, err := file.Rebuild(version.NewStore(m.Store, m.Acct))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Get(obj); !errors.Is(err, file.ErrUnknownFile) {
		t.Fatalf("recovery scan resurrected removed file: %v", err)
	}
	// The rebooted replica pulls snapshots (which carry the tombstone
	// row) and must come back without the file.
	m.Reboot(t, 2)
	m.HealAll(t)
	if _, err := m.Replicas[2].Rep.Get(obj); !errors.Is(err, file.ErrUnknownFile) {
		t.Fatalf("rejoined replica resurrected removed file: %v", err)
	}
	m.CheckConverged(t)
}

// TestRecreateAfterRemove: object numbers are reused after a Remove; a
// chain whose head is not tombstoned is a legitimate re-create and
// must clear the tombstone on every replica.
func TestRecreateAfterRemove(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("first life"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	m.Remove(0, obj)
	m.FlushAll(t)
	// Re-create under the same object number: a fresh storage chain.
	r0 := m.Replicas[0]
	fcap := r0.Fact.Mint(obj)
	tr, err := version.CreateFile(r0.St, fcap, capability.Nil, []byte("second life"))
	if err != nil {
		t.Fatal(err)
	}
	r0.Rep.Put(obj, file.Entry{Cap: fcap, Entry: tr.Root})
	m.FlushAll(t)
	e1, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatalf("peer rejected re-create of reused object number: %v", err)
	}
	if e1.Entry != tr.Root || e1.Cap != fcap {
		t.Fatalf("peer entry %+v, want re-created root %d with capability %v", e1, tr.Root, fcap)
	}
	if a, b := ftab.Fingerprint(m.Replicas[0].Rep), ftab.Fingerprint(m.Replicas[1].Rep); a != b {
		t.Fatalf("re-create diverged: %s vs %s", a, b)
	}
}

// TestRecreateReachesPartitionedPeer: a peer that slept through a
// Remove and the re-create of the same object number still holds the
// first file's entry. At the heal the re-created chain wins, because the
// first one ends in the tombstone, and its owner capability comes with
// it: the capability goes with the root that stays.
func TestRecreateReachesPartitionedPeer(t *testing.T) {
	m := ftabtest.New(t, 2)
	obj, err := m.CreateFile(t, 0, []byte("first life"))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushAll(t)
	first, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	m.Crash(1)
	m.Remove(0, obj)
	r0 := m.Replicas[0]
	fcap := r0.Fact.Mint(obj)
	tr, err := version.CreateFile(r0.St, fcap, capability.Nil, []byte("second life"))
	if err != nil {
		t.Fatal(err)
	}
	r0.Rep.Put(obj, file.Entry{Cap: fcap, Entry: tr.Root})
	if ok, err := m.Commit(t, 0, obj, []byte("second life, v2")); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	if e, _ := m.Replicas[1].Rep.Get(obj); e != first {
		t.Fatalf("the partitioned peer's entry moved: %+v, was %+v", e, first)
	}
	m.Uncrash(t, 1)
	m.HealAll(t)
	m.CheckConverged(t)
	e1, err := m.Replicas[1].Rep.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cap != fcap || e1.Cap == first.Cap {
		t.Fatalf("peer capability %v after the heal, want the re-created %v", e1.Cap, fcap)
	}
}

// TestSweepLeader: exactly one replica — the lowest configured ID —
// elects itself sweeper, and a single-replica mesh is its own leader.
func TestSweepLeader(t *testing.T) {
	m := ftabtest.New(t, 3)
	leaders := 0
	for i, r := range m.Replicas {
		if r.Rep.SweepLeader() {
			if i != 0 {
				t.Fatalf("replica %d thinks it is the sweeper; the lowest ID must win", i)
			}
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d sweep leaders, want exactly 1", leaders)
	}
	solo := ftab.NewReplicated(ftab.Options{ID: 5, Local: file.NewTable()})
	if !solo.SweepLeader() {
		t.Fatal("a mesh of one must lead its own sweep")
	}
}
