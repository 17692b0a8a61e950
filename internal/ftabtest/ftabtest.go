// Package ftabtest is the cross-replica test harness for the replicated
// file table, mirroring what blocktest does for block stores: it builds
// a mesh of 2–3 table replicas over the in-proc network and one shared
// block store, drives concurrent streams of creates and commit-CASes at
// the replicas (with an optional crash and rejoin of one replica
// mid-stream), and then checks convergence against the ground truth —
// the storage itself.
//
// Convergence after quiesce means, for every replica: its fingerprint
// (entries, super flags and owner capabilities, ftab.Fingerprint) is
// byte-equal to every other live replica's, every entry root is the
// storage head of its commit-reference chain, and the object set equals
// the reference single-map table rebuilt from a §4 recovery scan.
package ftabtest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/occ"
	"repro/internal/rpc"
	"repro/internal/version"
)

// TB is the subset of testing.TB the harness needs, so fuzz targets and
// plain tests share it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Errorf(format string, args ...any)
	Logf(format string, args ...any)
}

// Replica is one table replica: a full service-instance stand-in
// (table, factory, committer) minus the file servers.
type Replica struct {
	ID   uint32
	Tab  *file.Table
	Fact *capability.Factory
	Rep  *ftab.Replicated
	St   *version.Store
	Com  *occ.Committer

	nextObj atomic.Uint32
	crashed bool
}

// Mesh is the harness: N replicas over one network and one store.
type Mesh struct {
	Net      *rpc.Network
	Store    block.Store
	Acct     block.Account
	Replicas []*Replica
	tune     Tune
}

// Tune shapes the replicas' asynchronous push streams, exercising the
// edge cases the defaults rarely hit: tiny queues force the coalescing
// and overflow paths, Delay injects wire latency (and with it
// cross-origin reordering).
type Tune struct {
	PushBatch int
	PushQueue int
	// Delay, when set, is slept before every outbound peer transact.
	Delay func() time.Duration
}

// delayed wraps a Transactor with the tune's injected wire latency.
type delayed struct {
	tr    rpc.Transactor
	delay func() time.Duration
}

func (d delayed) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	if dl := d.delay(); dl > 0 {
		time.Sleep(dl)
	}
	return d.tr.Transact(port, req)
}

// peerTransactor returns the transactor replicas reach peers through.
func (m *Mesh) peerTransactor() rpc.Transactor {
	if m.tune.Delay != nil {
		return delayed{tr: m.Net, delay: m.tune.Delay}
	}
	return m.Net
}

// New builds an n-replica mesh (all replicas up and bootstrapped) with
// default stream tuning.
func New(tb TB, n int) *Mesh { return NewTuned(tb, n, Tune{}) }

// NewTuned builds an n-replica mesh with the given stream tuning.
func NewTuned(tb TB, n int, tu Tune) *Mesh {
	tb.Helper()
	d, err := disk.New(disk.Geometry{Blocks: 1 << 14, BlockSize: 512})
	if err != nil {
		tb.Fatalf("disk: %v", err)
	}
	m := &Mesh{Net: rpc.NewNetwork(), Store: block.NewServer(d), Acct: 1, tune: tu}
	for i := 0; i < n; i++ {
		m.Replicas = append(m.Replicas, m.newReplica(tb, uint32(i)))
	}
	for _, r := range m.Replicas {
		for _, o := range m.Replicas {
			if o.ID != r.ID {
				r.Rep.AddPeer(o.ID, m.peerTransactor())
			}
		}
	}
	for i, r := range m.Replicas {
		if err := m.Net.Register(m.group(i), ftab.PortFor(r.ID), r.Rep.Handler()); err != nil {
			tb.Fatalf("register replica %d: %v", i, err)
		}
	}
	for _, r := range m.Replicas {
		r.Rep.Bootstrap()
	}
	return m
}

func (m *Mesh) group(i int) string { return fmt.Sprintf("ftabtest-%d", i) }

// newReplica builds replica state with a fresh identity.
func (m *Mesh) newReplica(tb TB, id uint32) *Replica {
	st := version.NewStore(m.Store, m.Acct)
	tab := file.NewTable()
	fact := capability.NewFactory(capability.NewPort().Public())
	rep := ftab.NewReplicated(ftab.Options{
		ID: id, Local: tab, Store: st, Ident: fact,
		PushBatch: m.tune.PushBatch, PushQueue: m.tune.PushQueue,
	})
	return &Replica{ID: id, Tab: tab, Fact: fact, Rep: rep, St: st, Com: occ.NewCommitter(st)}
}

// CreateFile creates a committed birth version through replica i and
// registers it in the replicated table.
func (m *Mesh) CreateFile(tb TB, i int, data []byte) (uint32, error) {
	tb.Helper()
	r := m.Replicas[i]
	// Allocate in this replica's object band; skip numbers already live
	// (adopted from a previous life of this band after a reboot).
	var obj uint32
	for {
		obj = r.ID<<18 | r.nextObj.Add(1)&0x3ffff
		if _, err := r.Rep.Get(obj); err != nil {
			break
		}
	}
	fcap := r.Fact.Mint(obj)
	tr, err := version.CreateFile(r.St, fcap, capability.Nil, data) // the birth version takes no number

	if err != nil {
		return 0, err
	}
	r.Rep.Put(obj, file.Entry{Cap: fcap, Entry: tr.Root})
	return obj, nil
}

// Commit opens a version of obj through replica i, writes data into the
// root page, commits it and records the CAS in the replicated table. A
// serialisability conflict is not an error (the stream just moves on);
// the bool reports whether the commit landed.
func (m *Mesh) Commit(tb TB, i int, obj uint32, data []byte) (bool, error) {
	tb.Helper()
	r := m.Replicas[i]
	e, err := r.Rep.Get(obj)
	if err != nil {
		return false, err
	}
	cur, err := occ.Current(r.St, e.Entry)
	if err != nil {
		return false, err
	}
	if cur != e.Entry {
		r.Rep.Advance(obj, cur)
	}
	vcap := r.Fact.Mint(obj | 1<<21) // throwaway version object
	tr, err := version.CreateVersion(r.St, cur, vcap)
	if err != nil {
		return false, err
	}
	if err := tr.WritePage(nil, data); err != nil {
		return false, err
	}
	if err := r.Com.Commit(tr, capability.NilPort); err != nil {
		if errors.Is(err, occ.ErrConflict) {
			return false, nil
		}
		return false, err
	}
	r.Rep.CommitCAS(obj, cur, tr.Root)
	return true, nil
}

// Crash kills replica i: its push streams die with their queues (a
// dead process sends nothing more), its handler leaves the network
// (peers mark it down on their next push) and its in-memory table
// state is dropped.
func (m *Mesh) Crash(i int) {
	m.Replicas[i].Rep.Kill()
	m.Net.Crash(m.group(i))
	m.Replicas[i].crashed = true
}

// Reboot brings replica i back with empty state and a fresh identity,
// re-registers its handler and bootstraps: the snapshot pull plus the
// chase rule must re-derive everything it missed.
func (m *Mesh) Reboot(tb TB, i int) {
	tb.Helper()
	r := m.newReplica(tb, m.Replicas[i].ID)
	for _, o := range m.Replicas {
		if o.ID != r.ID {
			r.Rep.AddPeer(o.ID, m.peerTransactor())
		}
	}
	m.Replicas[i] = r
	if err := m.Net.Register(m.group(i), ftab.PortFor(r.ID), r.Rep.Handler()); err != nil {
		tb.Fatalf("re-register replica %d: %v", i, err)
	}
	r.Rep.Bootstrap()
	// Advance the object counter past this band's adopted objects, as
	// server.Shared does after a recovery, so fresh creates cannot
	// collide with the previous life's numbers.
	for _, obj := range r.Rep.Objects() {
		if obj>>18 == r.ID {
			if n := obj & 0x3ffff; n > r.nextObj.Load() {
				r.nextObj.Store(n)
			}
		}
	}
}

// Uncrash re-registers replica i's existing state on the network: a
// healed partition rather than a reboot (Reboot starts empty). The
// replica's own push streams died with Crash; it converges through the
// synchronous snapshot exchange (Heal), not by streaming.
func (m *Mesh) Uncrash(tb TB, i int) {
	tb.Helper()
	r := m.Replicas[i]
	if !r.crashed {
		return
	}
	if err := m.Net.Register(m.group(i), ftab.PortFor(r.ID), r.Rep.Handler()); err != nil {
		tb.Fatalf("uncrash replica %d: %v", i, err)
	}
	r.crashed = false
}

// Remove deletes obj through replica i (tombstone + durable stamp).
func (m *Mesh) Remove(i int, obj uint32) {
	m.Replicas[i].Rep.Remove(obj)
}

// FlushAll drains every live replica's asynchronous push streams.
func (m *Mesh) FlushAll(tb TB) {
	tb.Helper()
	for _, r := range m.Replicas {
		if r.crashed {
			continue
		}
		if !r.Rep.Flush(30 * time.Second) {
			tb.Errorf("replica %d: push streams did not drain", r.ID)
		}
	}
}

// HealAll quiesces the mesh before convergence checks: the async push
// streams are flushed (so nothing is still on the wire), every live
// replica runs its heal pass (rejoining down peers by snapshot
// exchange), and the streams are flushed again (heal marks peers up,
// so mutations that raced the heal may have queued behind it).
func (m *Mesh) HealAll(tb TB) {
	tb.Helper()
	m.FlushAll(tb)
	for _, r := range m.Replicas {
		if r.crashed {
			continue
		}
		if _, err := r.Rep.Heal(); err != nil {
			tb.Logf("heal: %v", err)
		}
	}
	m.FlushAll(tb)
}

// CheckConverged asserts the convergence contract described in the
// package doc.
func (m *Mesh) CheckConverged(tb TB) {
	tb.Helper()
	var live []*Replica
	for _, r := range m.Replicas {
		if !r.crashed {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		tb.Fatalf("no live replicas to check")
	}
	// 1. Byte-equal fingerprints across live replicas.
	want := ftab.Fingerprint(live[0].Rep)
	for _, r := range live[1:] {
		if got := ftab.Fingerprint(r.Rep); got != want {
			tb.Errorf("replica %d fingerprint %s != replica %d fingerprint %s\n%v\nvs\n%v",
				r.ID, got, live[0].ID, want, r.Rep.Entries(), live[0].Rep.Entries())
		}
	}
	// 2. Every entry root is the head of its storage chain.
	for _, r := range live {
		for _, obj := range r.Rep.Objects() {
			e, err := r.Rep.Get(obj)
			if err != nil {
				tb.Errorf("replica %d object %d: %v", r.ID, obj, err)
				continue
			}
			head, err := occ.Current(r.St, e.Entry)
			if err != nil {
				tb.Errorf("replica %d object %d root %d: %v", r.ID, obj, e.Entry, err)
				continue
			}
			if head != e.Entry {
				tb.Errorf("replica %d object %d: entry %d but storage head %d", r.ID, obj, e.Entry, head)
			}
		}
	}
	// 3. Object set matches the reference single-map table rebuilt from
	// the §4 recovery scan (note: the scan also surfaces files whose
	// creating replica crashed before replicating them; those may be
	// missing from the mesh, which is exactly what a recovery-scan
	// adoption on reboot repairs — so only check the subset relation).
	ref, err := file.Rebuild(version.NewStore(m.Store, m.Acct))
	if err != nil {
		tb.Fatalf("reference rebuild: %v", err)
	}
	refObjs := make(map[uint32]bool)
	for _, obj := range ref.Objects() {
		refObjs[obj] = true
	}
	for _, obj := range live[0].Rep.Objects() {
		if !refObjs[obj] {
			tb.Errorf("object %d in mesh but not on storage", obj)
		}
	}
}

// Fuzz drives one seeded, concurrent scenario against a mesh: workers
// (one per replica) create and commit against a shared file set, one
// replica optionally crashes and reboots mid-stream, and the mesh must
// converge after quiesce. The seed also picks the stream tuning, so
// the corpus exercises four shapes: the default, backpressure
// coalescing and overflow (tiny queues), injected wire delays
// (cross-origin reordering), and the tiny queues under the delays.
// Used by both the table-driven test and the fuzz target.
func Fuzz(tb TB, seed int64, replicas, files, steps int, crash bool) {
	var tu Tune
	if seed&1 != 0 {
		// Tiny queue and batch: every worker burst overflows, forcing
		// per-object CAS coalescing and drop-to-snapshot catch-up.
		tu.PushBatch, tu.PushQueue = 2, 4
	}
	if seed&2 != 0 {
		// Injected wire latency: frames from different origins overtake
		// each other freely.
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		tu.Delay = func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return time.Duration(rng.Intn(200)) * time.Microsecond
		}
	}
	m := NewTuned(tb, replicas, tu)
	// A shared file set, created through different replicas.
	var objs []uint32
	for f := 0; f < files; f++ {
		obj, err := m.CreateFile(tb, f%replicas, []byte(fmt.Sprintf("file %d", f)))
		if err != nil {
			tb.Fatalf("create file %d: %v", f, err)
		}
		objs = append(objs, obj)
	}
	m.HealAll(tb)

	var wg sync.WaitGroup
	var crashMu sync.Mutex
	crashedAt := -1
	for w := 0; w < replicas; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for s := 0; s < steps; s++ {
				crashMu.Lock()
				if crashedAt == w {
					crashMu.Unlock()
					return
				}
				obj := objs[rng.Intn(len(objs))]
				crashMu.Unlock()
				switch rng.Intn(10) {
				case 0:
					if o, err := m.CreateFile(tb, w, []byte(fmt.Sprintf("w%d s%d", w, s))); err == nil {
						crashMu.Lock()
						objs = append(objs, o)
						crashMu.Unlock()
					}
				case 1:
					m.Replicas[w].Rep.MarkSuper(obj)
				default:
					if _, err := m.Commit(tb, w, obj, []byte(fmt.Sprintf("w%d s%d", w, s))); err != nil {
						// A replica racing a crash can see transient
						// errors; the convergence check is the oracle.
						continue
					}
				}
				if crash && w == 0 && s == steps/2 {
					victim := replicas - 1
					crashMu.Lock()
					if crashedAt == -1 {
						crashedAt = victim
						m.Crash(victim)
					}
					crashMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if crash {
		crashMu.Lock()
		victim := crashedAt
		crashMu.Unlock()
		if victim >= 0 {
			m.Reboot(tb, victim)
		}
	}
	m.HealAll(tb)
	m.CheckConverged(tb)
}
