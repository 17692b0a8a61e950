// Package ftab implements the replicated file table: the piece of the
// paper's §5.4.1 availability story that lets any number of file-server
// processes — on different machines — serve one file system over one
// (shared, sharded or mirrored) block store. "Access paths to committed
// versions go through the replicated file table, and a chain of version
// pages on stable storage, hence version access and file access can be
// guaranteed as long as one or more servers are operational."
//
// # The table as a CAS stream
//
// The file table maps a file object to its entry point: a committed
// version page plus the owner capability and the super-file flag.
// Optimistic concurrency control makes replicating it almost trivial,
// because every table mutation a commit performs is exactly a
// compare-and-swap on one entry — (file, expectRoot → newRoot) — and the
// authoritative order of those swaps is already serialised elsewhere: by
// the storage-level commit reference, set inside the one critical
// section of the commit path (occ.TestAndSetCommitRef). A replica that
// receives table updates late, out of order, or not at all can therefore
// always repair itself from storage: chasing commit references from any
// committed version it knows reaches the true current version.
//
// The apply rule at every replica is:
//
//	CAS(file, expect → next):
//	    cur == next          already applied; done
//	    cur == expect        swap to next (the fast path: no storage I/O)
//	    otherwise            re-derive: follow commit references from cur
//	                         (occ.Current) and adopt the head found
//
// so replicas converge to the storage head regardless of delivery order,
// and a replica that was down converges by pulling a snapshot and letting
// the chase rule absorb whatever it missed.
//
// # Propagation is asynchronous
//
// Because the apply rule tolerates late, reordered and missing updates,
// propagation need not sit on the commit path. A mutation is
// acknowledged as soon as it lands in the local table — durability is
// already guaranteed by the storage-level commit reference — and each
// peer has a bounded, ordered stream (one goroutine, one pending
// queue) that coalesces the backlog into batched wire frames
// (cmdUpdateBatch). Ordering holds per origin per peer: updates leave
// one replica toward one peer in issue order. Backpressure never
// blocks a commit: a full queue first merges same-object CAS updates
// (newest wins; an adjacent pair merges losslessly), and a peer too
// far behind to follow the stream at all is dropped to the snapshot
// catch-up path — exactly the resync a crashed peer uses, so falling
// behind and crashing are the same, already-handled case. Flush
// quiesces the streams (tests, clean shutdown); Close flushes with a
// timeout and stops them.
//
// # Capabilities travel with the table
//
// As in Amoeba, an object's random number is kept with the object: a
// file's owner capability is part of its table entry, and durably of
// every version page of the file (page.Page.FileCap). The file service
// checks every capability against the entry's owner capability
// (capability.Verify), so create updates and snapshot rows carry it
// with the root, and a capability minted by server A verifies, bit for
// bit, at server B. Each server mints under its own port; nothing about
// capabilities is agreed at boot.
//
// The capability goes with the chain: wherever an apply re-derives an
// entry from storage, the entry takes the owner capability of the
// version page it ends on. Two servers that recover the same store
// while partitioned therefore adopt the same capabilities, and a
// replica that slept through a Remove and a re-create of the same
// object number takes the new file's capability along with its chain.
//
// # What is replicated, what is derived
//
// Only the table (entries with their owner capabilities) replicates;
// no process keeps capability state of its own. Uncommitted versions
// stay private to the server that created them and die with it —
// "clients must be prepared to redo the updates in a version" — so the
// client library turns a failed-over version operation into a redo
// signal rather than asking a peer about state it cannot have; a
// version capability is checked against the owner capability in its
// server's version record.
//
// Entry deletion replicates as a tombstone with a durable anchor:
// Remove stamps the Deleted flag on the chain's storage head, so a
// replica that was down across the Remove — or rebuilt from a §4
// recovery scan — finds the tombstone when it chases the chain and
// does not resurrect the file. Object numbers may be reused after a
// Remove; a chain whose head is not tombstoned is recognised as a
// legitimate re-create. Known limit: a commit racing the Remove on
// another replica can still attach a successor past the stamped head;
// file deletion is not part of the paper's service surface, so this
// narrow window keeps the protocol small.
package ftab

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
)

// Table is the file-table surface the file servers consume, extracted
// from what used to be a bare *file.Table in server.Shared. The local
// in-process map (*file.Table) is the single-server implementation;
// Replicated wraps it with the peer protocol. Method names follow the
// local map (Get = lookup, Put = create, Remove = delete, Entries =
// snapshot).
type Table interface {
	// Get returns a file's entry (file.ErrUnknownFile when absent).
	Get(object uint32) (file.Entry, error)
	// Put creates (or explicitly replaces) a file's entry.
	Put(object uint32, e file.Entry)
	// Advance records a newer committed version as the entry point: the
	// lazy chase a read performs when it finds the entry behind the
	// storage head. It is monotonic — replicas chase on mismatch, so a
	// late Advance can never regress a fresher entry.
	Advance(object uint32, committed block.Num)
	// Retire moves the entry point to the oldest retained version: the
	// garbage collector's retention move, deliberately behind the
	// storage head. Replicas adopt it exactly (no chase), so the
	// collector's replica and its peers stay byte-equal.
	Retire(object uint32, committed block.Num)
	// CommitCAS records a commit as a compare-and-swap on the entry:
	// the caller observed expect and committed next after it. It
	// returns the entry's new value (NilNum when the file is unknown).
	CommitCAS(object uint32, expect, next block.Num) block.Num
	// MarkSuper flags the file as a super-file.
	MarkSuper(object uint32)
	// Remove deletes a file's entry.
	Remove(object uint32)
	// Objects lists the file objects in ascending order.
	Objects() []uint32
	// Len returns the number of files.
	Len() int
	// Entries returns a point-in-time snapshot of the table.
	Entries() map[uint32]file.Entry
}

// *file.Table is the local implementation.
var _ Table = (*file.Table)(nil)

// MaxID bounds replica IDs: the ID is banded into the high bits of the
// 24-bit object-number space (server.Shared) and into the well-known
// replication port.
const MaxID = 63

// PortFor returns the well-known replication port of replica id. Unlike
// service ports, replication ports are deterministic — peers must
// address each other before any process has printed anything — so the
// mesh is configured as ID@ADDR pairs. The replication protocol is
// server-to-server and assumes a trusted network, exactly like the
// block-store mounts.
func PortFor(id uint32) capability.Port {
	return capability.Port(0xf7ab<<32 | uint64(id&MaxID))
}

// Stats counts replication work.
type Stats struct {
	// Pushes counts updates delivered to peers; PushFailures counts
	// batch frames that found the peer dead (it is then marked down
	// until a resync).
	Pushes, PushFailures atomic.Uint64
	// Batches counts wire frames sent by the per-peer streams (Pushes /
	// Batches is the realised batching factor); Coalesced counts
	// updates absorbed into an already-queued CAS under backpressure;
	// Overflows counts peers dropped to snapshot catch-up because their
	// queue filled with nothing to coalesce.
	Batches, Coalesced, Overflows atomic.Uint64
	// Applied counts remote updates applied; FastApplied the subset
	// that matched their expectation and needed no storage I/O.
	Applied, FastApplied atomic.Uint64
	// Resolved counts entries re-derived from storage (the chase rule).
	Resolved atomic.Uint64
	// Resyncs counts snapshot exchanges (bootstrap pulls and heals).
	Resyncs atomic.Uint64
}

// StatsSnapshot is the plain-value form of Stats, for expvar, plus the
// instantaneous depth of the pending stream queues.
type StatsSnapshot struct {
	Pushes, PushFailures          uint64
	Batches, Coalesced, Overflows uint64
	Applied, FastApplied          uint64
	Resolved                      uint64
	Resyncs                       uint64
	PeersUp, PeersDown            int
	QueueDepth                    int
}

// Fingerprint hashes a table snapshot deterministically: object, entry
// root, super flag and the full owner capability of every file, in
// object order. Two replicas in sync — owner capabilities included —
// produce equal fingerprints; the
// multiserver example and the convergence tests compare them.
func Fingerprint(t Table) string {
	entries := t.Entries()
	objs := make([]uint32, 0, len(entries))
	for o := range entries {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	h := sha256.New()
	var buf [16]byte
	for _, o := range objs {
		e := entries[o]
		binary.BigEndian.PutUint32(buf[0:4], o)
		binary.BigEndian.PutUint32(buf[4:8], uint32(e.Entry))
		if e.Super {
			buf[8] = 1
		} else {
			buf[8] = 0
		}
		h.Write(buf[:9])
		h.Write(e.Cap.Encode(nil))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
