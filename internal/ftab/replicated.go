package ftab

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/metrics"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/version"
)

// Push-pipeline defaults (see Options).
const (
	// DefaultPushBatch is the default per-frame update cap.
	DefaultPushBatch = 128
	// DefaultPushQueue is the default per-peer queue bound.
	DefaultPushQueue = 1024
	// maxPushBatch keeps a worst-case frame (21-byte create payloads)
	// comfortably inside rpc.MaxData.
	maxPushBatch = 700
)

// Options configures a Replicated table.
type Options struct {
	// ID is this replica's server ID (0..MaxID). It bands the object
	// number space and names this replica's well-known port (PortFor).
	ID uint32
	// Local is the in-process table the replica serves from.
	Local *file.Table
	// Store reads the shared block store: the ground truth divergent
	// entries are re-derived from.
	Store *version.Store
	// Ident is ignored: capabilities travel in the table entries and
	// the table keeps no factory in sync. The field stays until the
	// benchmark rig, which still sets it, stops doing so.
	Ident *capability.Factory
	// PortAlive, when set, answers peers' lock-port liveness probes
	// (cmdPortAlive) from this process's update-port registry.
	PortAlive func(capability.Port) bool
	// Live, when set, reports this process's open version roots to
	// peers (cmdLive), so a peer's garbage collector can pin them.
	Live func() []block.Num
	// PushBatch caps how many pending updates one wire frame carries
	// (default DefaultPushBatch, max maxPushBatch).
	PushBatch int
	// PushQueue bounds each peer's pending-update queue (default
	// DefaultPushQueue). A full queue first coalesces same-object CAS
	// updates; if nothing coalesces the peer is dropped to snapshot
	// catch-up rather than blocking the commit path.
	PushQueue int
}

// upd is one pending table update in a peer's stream queue (and the
// decoded form of a cmdUpdate/cmdUpdateBatch item).
type upd struct {
	op     uint64
	obj    uint32
	expect block.Num
	next   block.Num
	data   []byte
}

// peer is one sibling server in the mesh, with its asynchronous update
// stream: a bounded queue drained by one goroutine, so one origin's
// updates leave in issue order but the commit path never waits on the
// wire.
type peer struct {
	id   uint32
	port capability.Port
	tr   rpc.Transactor

	// mu guards the queue and liveness flags; cond signals the stream
	// goroutine (new work, closing) and Flush waiters (batch done).
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []upd
	inflight bool
	down     bool
	closing  bool
}

// Replicated is a Table whose mutations stream to every peer as OCC CAS
// updates — acknowledged locally first, batched on the wire — with
// snapshot exchange for catch-up. All methods are safe for concurrent
// use; AddPeer must finish before the table serves.
type Replicated struct {
	id        uint32
	local     *file.Table
	st        *version.Store
	portAlive func(capability.Port) bool
	live      func() []block.Num

	pushBatch int
	pushQueue int

	// mu serialises applies and guards the replication metadata; it is
	// ordered before the local table's own lock and before peer queue
	// locks, and is never held across a peer RPC (it may be held across
	// block-store reads while an entry is re-derived — storage never
	// calls back into ftab).
	mu   sync.Mutex
	dead map[uint32]bool // tombstones for removed objects
	// pendingSuper holds super marks that raced ahead of their create:
	// streams are ordered per origin, so a third replica's MarkSuper can
	// arrive before the minting replica's create. The mark is consumed
	// when the entry lands.
	pendingSuper map[uint32]bool

	peers []*peer
	wg    sync.WaitGroup

	// Stat counts replication work.
	Stat Stats
	// PushLatency observes one wire round-trip per batch frame sent.
	PushLatency metrics.Histogram
	// BatchSizes observes the update count of every frame sent.
	BatchSizes *metrics.Histogram
}

// NewReplicated builds the replica. The local table may already hold
// entries (a recovery scan can run before or after Bootstrap; adoption
// is idempotent either way).
func NewReplicated(o Options) *Replicated {
	batch := o.PushBatch
	if batch <= 0 {
		batch = DefaultPushBatch
	}
	if batch > maxPushBatch {
		batch = maxPushBatch
	}
	queue := o.PushQueue
	if queue <= 0 {
		queue = DefaultPushQueue
	}
	return &Replicated{
		id:           o.ID & MaxID,
		local:        o.Local,
		st:           o.Store,
		portAlive:    o.PortAlive,
		live:         o.Live,
		pushBatch:    batch,
		pushQueue:    queue,
		dead:         make(map[uint32]bool),
		pendingSuper: make(map[uint32]bool),
		BatchSizes:   metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
	}
}

// ID returns this replica's server ID.
func (r *Replicated) ID() uint32 { return r.id }

// AddPeer registers a sibling server reachable through tr at PortFor(id)
// and starts its stream. Peers start down: Bootstrap and Heal bring them
// up, and so does the peer itself when it pulls from us.
func (r *Replicated) AddPeer(id uint32, tr rpc.Transactor) {
	p := &peer{id: id & MaxID, port: PortFor(id), tr: tr, down: true}
	p.cond = sync.NewCond(&p.mu)
	r.peers = append(r.peers, p)
	r.wg.Add(1)
	go r.stream(p)
}

// SweepLeader reports whether this replica is the mesh's designated
// garbage-collection sweeper: the lowest server ID among the configured
// members. The election is static, so two sweepers can never overlap —
// a second sweeper's stale condemned set could otherwise free a block
// the first sweeper's cycle already recycled. It composes with the
// fail-closed PeerLive gate: when the leader is down no one sweeps,
// which is exactly the cycle-skipping the gate already imposes while
// any member is unreachable.
func (r *Replicated) SweepLeader() bool {
	for _, p := range r.peers {
		if p.id < r.id {
			return false
		}
	}
	return true
}

// StatsSnapshot returns plain-value counters plus peer liveness and the
// current pending-queue depth.
func (r *Replicated) StatsSnapshot() StatsSnapshot {
	s := StatsSnapshot{
		Pushes:       r.Stat.Pushes.Load(),
		PushFailures: r.Stat.PushFailures.Load(),
		Batches:      r.Stat.Batches.Load(),
		Coalesced:    r.Stat.Coalesced.Load(),
		Overflows:    r.Stat.Overflows.Load(),
		Applied:      r.Stat.Applied.Load(),
		FastApplied:  r.Stat.FastApplied.Load(),
		Resolved:     r.Stat.Resolved.Load(),
		Resyncs:      r.Stat.Resyncs.Load(),
	}
	for _, p := range r.peers {
		p.mu.Lock()
		if p.down {
			s.PeersDown++
		} else {
			s.PeersUp++
		}
		s.QueueDepth += len(p.queue)
		p.mu.Unlock()
	}
	return s
}

// QueueDepth returns the total number of updates pending across all
// peer streams.
func (r *Replicated) QueueDepth() int {
	n := 0
	for _, p := range r.peers {
		p.mu.Lock()
		n += len(p.queue)
		p.mu.Unlock()
	}
	return n
}

// --- Table implementation (origin side) ---

// Get implements Table.
func (r *Replicated) Get(object uint32) (file.Entry, error) { return r.local.Get(object) }

// Objects implements Table.
func (r *Replicated) Objects() []uint32 { return r.local.Objects() }

// Len implements Table.
func (r *Replicated) Len() int { return r.local.Len() }

// Entries implements Table.
func (r *Replicated) Entries() map[uint32]file.Entry { return r.local.Entries() }

// Put implements Table: install locally, then stream the entry (with
// its owner capability) to every live peer. Local mutations happen
// under r.mu so they cannot interleave with a remote apply's
// check-then-set, and the enqueue happens under the same lock so each
// peer's stream carries this origin's updates in issue order.
func (r *Replicated) Put(object uint32, e file.Entry) {
	r.mu.Lock()
	delete(r.dead, object)
	r.local.Put(object, e)
	r.broadcast(upd{op: opCreate, obj: object, expect: block.NilNum, next: e.Entry,
		data: encodeCreate(e.Entry, e.Super, e.Cap)})
	r.mu.Unlock()
}

// Advance implements Table: the lazy entry-point chase, replicated as
// an ordinary CAS from the previously-known entry. Peers chase on
// mismatch, so an Advance arriving late — after a newer commit's CAS —
// can never regress the peer's entry (the asynchronous streams make
// such cross-origin reorderings routine).
func (r *Replicated) Advance(object uint32, committed block.Num) {
	r.mu.Lock()
	e, err := r.local.Get(object)
	if err != nil || e.Entry == committed {
		r.mu.Unlock()
		return
	}
	r.local.Advance(object, committed)
	r.broadcast(upd{op: opCAS, obj: object, expect: e.Entry, next: committed})
	r.mu.Unlock()
}

// Retire implements Table: the garbage collector's retention move. The
// entry lands deliberately behind the storage head and peers adopt it
// exactly (opRetire; no chase), so the collector's replica and its
// peers stay byte-equal.
func (r *Replicated) Retire(object uint32, committed block.Num) {
	r.mu.Lock()
	r.local.Retire(object, committed)
	r.broadcast(upd{op: opRetire, obj: object, expect: block.NilNum, next: committed})
	r.mu.Unlock()
}

// CommitCAS implements Table: the per-commit table update of §5.4.1.
// The client is acknowledged as soon as the local swap lands — the
// commit is already durable through the storage-level commit reference
// — and propagation to peers rides the asynchronous streams.
func (r *Replicated) CommitCAS(object uint32, expect, next block.Num) block.Num {
	r.mu.Lock()
	got := r.local.CommitCAS(object, expect, next)
	r.broadcast(upd{op: opCAS, obj: object, expect: expect, next: next})
	r.mu.Unlock()
	return got
}

// MarkSuper implements Table. A mark for an entry this replica does not
// know yet (its create is still in flight from another origin) is
// parked like a remote one, so the flag lands when the entry does.
func (r *Replicated) MarkSuper(object uint32) {
	r.mu.Lock()
	if _, err := r.local.Get(object); err != nil {
		if !r.dead[object] {
			r.pendingSuper[object] = true
		}
	} else {
		r.local.MarkSuper(object)
	}
	r.broadcast(upd{op: opSuper, obj: object, expect: block.NilNum, next: block.NilNum})
	r.mu.Unlock()
}

// Remove implements Table. Deletion is tombstoned in memory, stamped
// durably on the storage chain head (so a recovery scan or a late
// chase cannot resurrect the file), and streamed to peers.
func (r *Replicated) Remove(object uint32) {
	r.mu.Lock()
	e, err := r.local.Get(object)
	r.dead[object] = true
	delete(r.pendingSuper, object)
	r.local.Remove(object)
	if err == nil {
		r.stampTombstone(e.Entry)
	}
	r.broadcast(upd{op: opDelete, obj: object, expect: block.NilNum, next: block.NilNum})
	r.mu.Unlock()
}

// stampTombstone marks the chain head reachable from entry as Deleted
// on storage: the durable half of a Remove. The head page is the one
// page written in place, so the stamp is a version.UpdateVersionPage,
// the commit path's critical section: an unlocked read-modify-write here
// could clobber a commit reference being set concurrently, and a commit
// holding the block lock is waited out there. A head that gained a
// successor is chased and the new head stamped instead. Best-effort: a
// chain already swept, or a block lock held past the critical section's
// bound, leaves no tombstone — the documented remove/commit race
// remains.
func (r *Replicated) stampTombstone(entry block.Num) {
	head, err := occ.Current(r.st, entry)
	for err == nil && head != block.NilNum {
		succ := block.NilNum
		err = r.st.UpdateVersionPage(head, func(vp *page.Page) (bool, error) {
			switch {
			case vp.Deleted:
				return false, nil
			case vp.CommitRef != block.NilNum:
				succ = vp.CommitRef // superseded under us: stamp the successor
				return false, nil
			}
			vp.Deleted = true
			return true, nil
		})
		head = succ
	}
}

// --- the asynchronous per-peer streams ---

// broadcast enqueues one update on every live peer's stream. Caller
// holds r.mu. The enqueue never blocks: a full queue coalesces
// same-object CAS updates in place, and if nothing coalesces the peer
// is dropped to snapshot catch-up (marked down; the heal loop resyncs
// it), keeping the commit path wait-free.
func (r *Replicated) broadcast(u upd) {
	for _, p := range r.peers {
		p.mu.Lock()
		if p.down || p.closing {
			p.mu.Unlock()
			continue
		}
		if len(p.queue) >= r.pushQueue {
			if u.op == opCAS && coalesceCAS(p.queue, u) {
				r.Stat.Coalesced.Add(1)
				p.cond.Broadcast()
				p.mu.Unlock()
				continue
			}
			// Nothing to coalesce with: the peer is too far behind to
			// follow the stream. Drop it — never block the commit path,
			// and never drop an update silently while still claiming
			// the peer is in sync.
			p.down = true
			p.queue = nil
			r.Stat.Overflows.Add(1)
			p.cond.Broadcast()
			p.mu.Unlock()
			continue
		}
		p.queue = append(p.queue, u)
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// coalesceCAS merges a new CAS into the newest queued CAS for the same
// object, in place (so queue order is preserved): CAS(a→b) absorbing
// CAS(b→d) becomes CAS(a→d) — the peer's fast path still matches — and
// a non-adjacent pair keeps only the newest (the chase rule absorbs the
// gap). Any other queued op for the object (create, super, delete) bars
// merging across it. Reports whether the update was absorbed.
func coalesceCAS(queue []upd, u upd) bool {
	for i := len(queue) - 1; i >= 0; i-- {
		q := &queue[i]
		if q.obj != u.obj {
			continue
		}
		if q.op != opCAS {
			return false
		}
		if q.next == u.expect && u.expect != block.NilNum {
			q.next = u.next
		} else {
			*q = u
		}
		return true
	}
	return false
}

// stream is a peer's sender goroutine: it drains the queue in batches
// of at most pushBatch updates, one cmdUpdateBatch frame per batch.
// Batching is natural: updates accumulate while the previous frame is
// on the wire. A transport failure marks the peer down and drops the
// queue; the snapshot exchange at heal covers everything.
func (r *Replicated) stream(p *peer) {
	defer r.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closing {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closing {
			p.mu.Unlock()
			return
		}
		n := len(p.queue)
		if n > r.pushBatch {
			n = r.pushBatch
		}
		batch := make([]upd, n)
		copy(batch, p.queue[:n])
		p.queue = append(p.queue[:0:0], p.queue[n:]...)
		p.inflight = true
		p.mu.Unlock()

		req := batchMsg(r.id, batch)
		start := time.Now()
		_, err := p.tr.Transact(p.port, req)
		r.PushLatency.Observe(time.Since(start))
		r.BatchSizes.ObserveValue(float64(len(batch)))

		p.mu.Lock()
		p.inflight = false
		if err != nil {
			p.down = true
			p.queue = nil
			r.Stat.PushFailures.Add(1)
		} else {
			r.Stat.Batches.Add(1)
			r.Stat.Pushes.Add(uint64(len(batch)))
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Flush waits until every live peer's stream is idle (empty queue, no
// frame in flight) or the timeout elapses; a non-positive timeout waits
// indefinitely. It reports whether the streams drained. Down peers do
// not count — their pending work moved to the heal loop's snapshot
// exchange. Callers quiescing a mesh for convergence checks should
// flush every replica, then heal, then flush again.
func (r *Replicated) Flush(timeout time.Duration) bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		idle := true
		for _, p := range r.peers {
			p.mu.Lock()
			if !p.down && (len(p.queue) > 0 || p.inflight) {
				idle = false
			}
			p.mu.Unlock()
		}
		if idle {
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Close flushes and stops every peer stream: pending updates are sent
// (bounded by the timeout; non-positive waits indefinitely), then the
// sender goroutines exit. It reports whether the streams drained in
// time; on timeout the remaining queues are abandoned — the peers
// resync by snapshot when they next meet this table's state. The table
// itself remains readable; further mutations are not streamed.
func (r *Replicated) Close(timeout time.Duration) bool {
	for _, p := range r.peers {
		p.mu.Lock()
		p.closing = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		for _, p := range r.peers {
			p.mu.Lock()
			p.queue = nil
			p.down = true
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		return false
	}
}

// Kill stops every peer stream immediately, discarding their pending
// updates — no flush. It models a process death (the test harness's
// crash): a dead process takes its unsent queues with it, while a frame
// already on the wire may still land. The table remains readable;
// further mutations are not streamed.
func (r *Replicated) Kill() {
	for _, p := range r.peers {
		p.mu.Lock()
		p.queue = nil
		p.down = true
		p.closing = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	r.wg.Wait()
}

// --- apply side (remote updates) ---

// headOf chases the commit chain from root to the storage head and
// returns the entry the head makes — the head block, and the owner
// capability its version page carries — and whether the head carries
// the delete tombstone. ok is false when the chain cannot be read at
// all (swept past the GC horizon, or root was never a version page
// here).
func (r *Replicated) headOf(root block.Num) (head file.Entry, deleted, ok bool) {
	h, err := occ.Current(r.st, root)
	if err != nil {
		return file.Entry{}, false, false
	}
	vp, err := r.st.ReadPage(h)
	if err != nil {
		return file.Entry{}, false, false
	}
	return file.Entry{Cap: vp.FileCap, Entry: h}, vp.Deleted, true
}

// resolveRoot picks the entry two disagreeing observations converge on:
// the storage head reached by chasing commit references, with the owner
// capability of the chain it ends. The local root is chased first; when
// its block is gone (retired past the GC horizon while this replica was
// down) the remote root — fresher by construction — is chased instead,
// and adopted raw with the remote capability as a last resort. A chase
// that lands on a delete tombstone does not win: the other observation
// is tried, and when every readable chain ends tombstoned the file is
// reported deleted. Capabilities differ between the two only when the
// object number was reused after a Remove, and then the live chain's
// capability is the one that stays.
func (r *Replicated) resolveRoot(local, remote file.Entry) (head file.Entry, deleted bool) {
	if local.Entry == remote.Entry {
		return local, false
	}
	sawTombstone := false
	for _, root := range []block.Num{local.Entry, remote.Entry} {
		if root == block.NilNum {
			continue
		}
		if h, dead, ok := r.headOf(root); ok {
			if !dead {
				return h, false
			}
			sawTombstone = true
		}
	}
	return remote, sawTombstone
}

// removeLocked erases a file the replica learned is deleted (tombstone
// seen on storage). Caller holds r.mu.
func (r *Replicated) removeLocked(obj uint32) {
	r.dead[obj] = true
	delete(r.pendingSuper, obj)
	r.local.Remove(obj)
}

// applyEntry installs or reconciles one replicated entry (a create
// update or a snapshot row). Caller does not hold r.mu.
func (r *Replicated) applyEntry(obj uint32, in file.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingSuper[obj] {
		// A parked super mark (it outran this entry). Consume it, and
		// re-announce it: the original opSuper may have been dropped
		// toward peers that already knew the entry, and parked marks are
		// not in snapshot rows, so without this the mark would survive
		// only here.
		in.Super = true
		delete(r.pendingSuper, obj)
		r.broadcast(upd{op: opSuper, obj: obj, expect: block.NilNum, next: block.NilNum})
	}
	e, err := r.local.Get(obj)
	if r.dead[obj] || err != nil {
		// Unknown or tombstoned here: adopt the entry at the head of its
		// chain, whose chase absorbs commits whose CAS updates raced
		// ahead of this create. A tombstoned head is a stale resurrection
		// attempt. An unreadable chain is adopted raw as a last resort,
		// but not over a local tombstone: only a readable chain whose
		// head is not tombstoned re-creates a reused object number.
		h, dead, ok := r.headOf(in.Entry)
		if dead || !ok && r.dead[obj] {
			r.dead[obj] = true
			return
		}
		if ok {
			in.Cap, in.Entry = h.Cap, h.Entry
		}
		delete(r.dead, obj)
		r.local.Put(obj, in)
		r.Stat.Applied.Add(1)
		return
	}
	changed := false
	if in.Super && !e.Super {
		e.Super = true
		changed = true
	}
	if in.Entry != e.Entry {
		head, dead := r.resolveRoot(e, in)
		if dead {
			r.removeLocked(obj)
			r.Stat.Applied.Add(1)
			return
		}
		if head.Entry != e.Entry {
			r.Stat.Resolved.Add(1)
		}
		if head.Entry != e.Entry || head.Cap != e.Cap {
			e.Entry, e.Cap = head.Entry, head.Cap
			changed = true
		}
	}
	if changed {
		r.local.Put(obj, e)
	}
	r.Stat.Applied.Add(1)
}

// applyCAS applies a replicated commit: the CAS rule from the package
// doc. Caller does not hold r.mu.
func (r *Replicated) applyCAS(obj uint32, expect, next block.Num) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead[obj] {
		return
	}
	e, err := r.local.Get(obj)
	if err != nil {
		// Create not seen yet; when it arrives its chase finds next.
		return
	}
	if e.Entry == next {
		r.Stat.Applied.Add(1)
		r.Stat.FastApplied.Add(1)
		return
	}
	if e.Entry == expect {
		r.local.CommitCAS(obj, expect, next)
		r.Stat.Applied.Add(1)
		r.Stat.FastApplied.Add(1)
		return
	}
	head, dead := r.resolveRoot(e, file.Entry{Cap: e.Cap, Entry: next})
	if dead {
		r.removeLocked(obj)
		r.Stat.Applied.Add(1)
		return
	}
	if head.Cap != e.Cap {
		// next is on a re-created file's chain (see resolveRoot).
		e.Cap, e.Entry = head.Cap, head.Entry
		r.local.Put(obj, e)
		r.Stat.Resolved.Add(1)
	} else if head.Entry != e.Entry {
		r.local.Advance(obj, head.Entry)
		r.Stat.Resolved.Add(1)
	}
	r.Stat.Applied.Add(1)
}

// applyRetire applies the garbage collector's retention move: the
// entry is adopted exactly — it is deliberately behind the head, and
// chasing it forward would undo the collector's move on every peer and
// leave the tables permanently divergent — after checking next still
// names a live version page.
func (r *Replicated) applyRetire(obj uint32, next block.Num) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead[obj] {
		return
	}
	if _, err := r.local.Get(obj); err != nil {
		return
	}
	if _, err := occ.Current(r.st, next); err == nil {
		r.local.Retire(obj, next)
		r.Stat.Applied.Add(1)
	}
}

// applySuper applies a replicated super-file mark. A mark for an entry
// not yet known — a third replica's MarkSuper outrunning the minting
// replica's create on these independent streams — is parked and
// consumed by applyEntry when the create lands.
func (r *Replicated) applySuper(obj uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead[obj] {
		return
	}
	if _, err := r.local.Get(obj); err != nil {
		r.pendingSuper[obj] = true
		return
	}
	r.local.MarkSuper(obj)
	r.Stat.Applied.Add(1)
}

// applyDelete applies a replicated removal.
func (r *Replicated) applyDelete(obj uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.removeLocked(obj)
	r.Stat.Applied.Add(1)
}

// applyUpdate dispatches one decoded update to its apply rule.
func (r *Replicated) applyUpdate(u upd) error {
	switch u.op {
	case opCreate:
		e, err := decodeCreate(u.data)
		if err != nil {
			return err
		}
		r.applyEntry(u.obj, e)
	case opCAS:
		r.applyCAS(u.obj, u.expect, u.next)
	case opRetire:
		r.applyRetire(u.obj, u.next)
	case opSuper:
		r.applySuper(u.obj)
	case opDelete:
		r.applyDelete(u.obj)
	default:
		return fmt.Errorf("%w %d", errUnknownOp, u.op)
	}
	return nil
}

// --- snapshot exchange ---

// markPeerUp resumes streaming to peer id.
func (r *Replicated) markPeerUp(id uint32) {
	for _, p := range r.peers {
		if p.id != id {
			continue
		}
		p.mu.Lock()
		p.down = false
		p.mu.Unlock()
		return
	}
}

// markPeerDown drops a peer's stream: pending updates are discarded
// (the heal loop's snapshot exchange covers them) and pushes stop until
// a resync marks it up.
func (p *peer) markPeerDown() {
	p.mu.Lock()
	p.down = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// snapshotRows collects up to maxPageRows rows (entries and tombstones)
// with object numbers above after, in object order, under r.mu.
func (r *Replicated) snapshotRows(after uint32) (rows []snapRow, more bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	objs := r.local.Objects()
	all := make([]uint32, 0, len(objs)+len(r.dead))
	for _, o := range objs {
		if o > after {
			all = append(all, o)
		}
	}
	for o := range r.dead {
		if o > after {
			all = append(all, o)
		}
	}
	sortU32(all)
	for i, o := range all {
		if i >= maxPageRows {
			return rows, true
		}
		if r.dead[o] {
			rows = append(rows, snapRow{obj: o, deleted: true})
			continue
		}
		e, err := r.local.Get(o)
		if err != nil {
			continue
		}
		rows = append(rows, snapRow{obj: o, e: e})
	}
	return rows, false
}

// mergeRows applies one snapshot page.
func (r *Replicated) mergeRows(rows []snapRow) {
	for _, row := range rows {
		if row.deleted {
			r.applyDelete(row.obj)
			continue
		}
		r.applyEntry(row.obj, row.e)
	}
}

// pullFrom drains the peer's snapshot pages into the local table. It
// does not change the peer's up/down state.
func (r *Replicated) pullFrom(p *peer) error {
	after := uint32(0)
	for {
		req := &rpc.Message{Command: cmdPull}
		req.Args[0] = uint64(r.id)
		req.Args[1] = uint64(after)
		resp, err := p.tr.Transact(p.port, req)
		if err != nil {
			return err
		}
		if err := resp.Err(); err != nil {
			return fmt.Errorf("ftab: pull from %d: %w", p.id, err)
		}
		more := resp.Args[1] != 0
		rows, err := decodeRows(resp.Data)
		if err != nil {
			return fmt.Errorf("ftab: pull from %d: %w", p.id, err)
		}
		r.mergeRows(rows)
		if !more || len(rows) == 0 {
			return nil
		}
		after = rows[len(rows)-1].obj
	}
}

// pushTo streams our snapshot pages to the peer (cmdPush). Interleaving
// with the peer's live update stream is harmless: snapshot rows apply
// through the same idempotent entry rule.
func (r *Replicated) pushTo(p *peer) error {
	after := uint32(0)
	for {
		rows, more := r.snapshotRows(after)
		req := &rpc.Message{Command: cmdPush, Data: encodeRows(rows)}
		req.Args[0] = uint64(r.id)
		if _, err := p.tr.Transact(p.port, req); err != nil {
			return err
		}
		if !more || len(rows) == 0 {
			return nil
		}
		after = rows[len(rows)-1].obj
	}
}

// Bootstrap pulls the table from every answering peer, then pushes the
// resulting union back to them; call it
// at process start, before or after the local recovery scan (adoption
// is idempotent). The push-back matters with asynchronous streams: a
// previous incarnation of this server can have delivered an update to
// some peers and died with it still queued toward others, splitting the
// survivors — neither of whom saw the other go down. The rejoining
// server holds the union after its pulls and is the natural place to
// reconcile them. Bootstrap returns how many peers answered; zero means
// this server starts from its own recovery scan, and peers that were in
// fact alive but unreachable meet it at the next heal.
func (r *Replicated) Bootstrap() int {
	var answered []*peer
	for _, p := range r.peers {
		if err := r.pullFrom(p); err != nil {
			continue
		}
		r.Stat.Resyncs.Add(1)
		r.markPeerUp(p.id)
		answered = append(answered, p)
	}
	for _, p := range answered {
		if err := r.pushTo(p); err != nil {
			p.markPeerDown()
		}
	}
	return len(answered)
}

// Heal probes down peers and resyncs with those that answer: our pages
// are pushed, theirs pulled, and streaming resumes. Run it
// periodically, like the mirror heal loop.
func (r *Replicated) Heal() (int, error) {
	healed := 0
	var first error
	for _, p := range r.peers {
		p.mu.Lock()
		down := p.down
		p.mu.Unlock()
		if !down {
			continue
		}
		hello := &rpc.Message{Command: cmdHello}
		hello.Args[0] = uint64(r.id)
		if _, err := p.tr.Transact(p.port, hello); err != nil {
			continue // still down
		}
		// Mark up first so concurrent mutations stream normally; the
		// snapshot exchange below covers everything from before.
		r.markPeerUp(p.id)
		err := r.pushTo(p)
		if err == nil {
			err = r.pullFrom(p)
		}
		if err != nil {
			p.markPeerDown()
			if first == nil {
				first = fmt.Errorf("ftab: peer %d: %w", p.id, err)
			}
			continue
		}
		r.Stat.Resyncs.Add(1)
		healed++
	}
	return healed, first
}

// PortAlive asks the live peers whether any of them serves the given
// update-lock port: the cross-server half of the §5.3 "automatic
// warning mechanism". The local registry answers for local ports; this
// covers ports of updates owned by a sibling server.
func (r *Replicated) PortAlive(port capability.Port) bool {
	req := &rpc.Message{Command: cmdPortAlive}
	req.Args[1] = uint64(port)
	for _, p := range r.peers {
		p.mu.Lock()
		down := p.down
		p.mu.Unlock()
		if down {
			continue
		}
		resp, err := p.tr.Transact(p.port, req)
		if err != nil {
			p.markPeerDown()
			continue
		}
		if resp.Status == rpc.StatusOK && resp.Args[0] == 1 {
			return true
		}
	}
	return false
}

// PeerLive gathers EVERY peer's open version roots, for pinning in a
// local garbage collection (a peer's uncommitted version must not have
// its pages collected under it). It fails closed: peers marked down
// are probed anyway, and any peer that does not answer makes ok false
// — the caller must then skip the collection cycle, because an
// unreachable-but-alive peer may hold open versions this process
// cannot see, and sweeping without pinning them would free pages out
// from under an in-flight update.
func (r *Replicated) PeerLive() (roots []block.Num, ok bool) {
	req := &rpc.Message{Command: cmdLive}
	ok = true
	for _, p := range r.peers {
		resp, err := p.tr.Transact(p.port, req)
		if err != nil {
			p.markPeerDown()
			ok = false
			continue
		}
		if resp.Err() != nil {
			ok = false
			continue
		}
		ns, derr := decodeNums(resp.Data)
		if derr != nil {
			ok = false
			continue
		}
		roots = append(roots, ns...)
	}
	return roots, ok
}

// DownPeers reports how many peers are currently marked down.
func (r *Replicated) DownPeers() int {
	n := 0
	for _, p := range r.peers {
		p.mu.Lock()
		if p.down {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

var errUnknownOp = errors.New("ftab: unknown update op")

var _ Table = (*Replicated)(nil)

// Collect is the replica's metrics collector: the replication counters,
// peer liveness, the pending-queue depth and the push-stream histograms.
func (r *Replicated) Collect(e *metrics.Emitter) {
	s := r.StatsSnapshot()
	e.Counters("afs_ftab_total", "Replicated file-table events by kind.", "event", map[string]uint64{
		"pushes": s.Pushes, "push_failures": s.PushFailures, "applied": s.Applied,
		"fast_applied": s.FastApplied, "resolved": s.Resolved,
		"resyncs": s.Resyncs, "batches": s.Batches, "coalesced": s.Coalesced,
		"overflows": s.Overflows,
	})
	e.Gauge("afs_ftab_peers", "File-table peers by state.", float64(s.PeersUp), "state", "up")
	e.Gauge("afs_ftab_peers", "File-table peers by state.", float64(s.PeersDown), "state", "down")
	e.Gauge("afs_ftab_queue_depth", "Updates pending across the per-peer push streams.", float64(s.QueueDepth))
	e.Histogram("afs_ftab_batch_size", "Updates carried per replication frame.", r.BatchSizes.Snapshot())
	e.Histogram("afs_ftab_push_seconds", "Wire round-trip latency per replication frame.", r.PushLatency.Snapshot())
}
