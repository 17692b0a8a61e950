// Package afs is the public API of this reproduction of the Amoeba File
// Service — Mullender & Tanenbaum, "A Distributed File Service Based on
// Optimistic Concurrency Control" (CWI report CS-R8507, 1985).
//
// The service stores files as trees of pages. Every update happens in a
// private version that initially shares its pages with the version it was
// based on; committing validates the update against concurrent commits
// with the paper's serialisability test and merges non-conflicting
// updates. Large multi-file updates (super-files) are protected by the
// paper's crash-recoverable locking scheme on top of the optimistic
// machinery.
//
// Typical use:
//
//	cluster, _ := afs.Start(afs.Options{Servers: 3})
//	c := cluster.NewClient()
//	f, _ := c.CreateFile([]byte("hello"))
//	v, _ := c.Update(f)
//	data, _, _ := v.Read(afs.Root)
//	_ = v.Write(afs.Root, append(data, " world"...))
//	if err := v.Commit(); errors.Is(err, afs.ErrConflict) {
//	    // redo the update on a fresh version
//	}
//
// The package wraps the internal building blocks (block service, stable
// storage pairs, version trees, OCC, locks, cache, GC) behind a stable
// surface; see docs/ARCHITECTURE.md for the mapping to the paper.
package afs

import (
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/trace"
)

// Capability names a file or version and carries the rights to use it.
// Capabilities are unforgeable (a SHA-256 check field protects the rights
// mask) and freely transferable between clients.
type Capability = capability.Capability

// Path names a page within a file's page tree; the root page has the
// empty path and children are named by reference indices, e.g.
// afs.Path{1, 0} is the first child of the second child of the root.
type Path = page.Path

// Root is the path of a file's root page.
var Root = page.RootPath

// ParsePath parses "/1/0" notation into a Path.
func ParsePath(s string) (Path, error) { return page.ParsePath(s) }

// ErrConflict reports a serialisability conflict at commit: the update
// must be redone on a fresh version. (Matched with errors.Is.)
var ErrConflict = occ.ErrConflict

// ErrNoServers reports that no file server answered.
var ErrNoServers = client.ErrNoServers

// Options configures a cluster started with Start.
type Options struct {
	// Servers is the number of file server processes (default 1).
	Servers int
	// Dir, when set, backs the service with the durable segment-log
	// block store (internal/segstore) in this directory instead of a
	// simulated in-memory disk: files survive process restarts. Start
	// on a directory that already holds a file system recovers it —
	// RecoverFiles returns the recovered files' capabilities. Close
	// the cluster when done.
	Dir string
	// StableStorage stores every block on a pair of companion block
	// servers (the paper's §4 modification of Lampson–Sturgis stable
	// storage), surviving single-disk crashes. Ignored with Dir.
	StableStorage bool
	// DiskBlocks and BlockSize shape the simulated disks (defaults
	// 65536 blocks of 4 KiB).
	DiskBlocks int
	BlockSize  int
	// RetainVersions is how many committed versions of each file the
	// garbage collector keeps (default 4).
	RetainVersions int
	// Archive enables the content-addressed archive tier on an
	// in-memory backing store: committed versions the collector would
	// delete are demoted into the archive instead — deduplicated,
	// hash-verified on every read — and stay openable read-only with
	// VersionAt.
	Archive bool
	// ArchiveDir, when set, backs the archive tier with a durable
	// segment-log store in this directory (implies Archive): snapshots
	// survive process restarts. Close the cluster when done.
	ArchiveDir string
	// TraceSample, when positive, turns on distributed tracing: that
	// ratio ([0,1]) of client operations is sampled into span trees
	// covering every layer the operation crossed (client, server, OCC,
	// shard, mirror, segstore ...) and reported back to the service,
	// where Tracer exposes them. TraceSlow marks traces at least that
	// long as slow.
	TraceSample float64
	TraceSlow   time.Duration
}

// Cluster is a running file service: servers, storage and collector.
type Cluster struct {
	inner *core.Cluster
}

// Start brings up a file service.
func Start(o Options) (*Cluster, error) {
	cfg := core.Config{
		Servers: o.Servers,
		Backend: core.Backend{
			Blocks:    o.DiskBlocks,
			BlockSize: o.BlockSize,
			Pair:      o.StableStorage,
		},
		Retain:      o.RetainVersions,
		TraceSample: o.TraceSample,
		TraceSlow:   o.TraceSlow,
	}
	if o.Dir != "" {
		cfg.Backend.Kind, cfg.Backend.Dir, cfg.Backend.Pair = "seg", o.Dir, false
	}
	switch {
	case o.ArchiveDir != "":
		cfg.Archive = &core.Backend{Kind: "seg", Dir: o.ArchiveDir, Blocks: o.DiskBlocks}
	case o.Archive:
		cfg.Archive = &core.Backend{Blocks: o.DiskBlocks}
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c}, nil
}

// RecoverFiles rebuilds the file table from the block store — the §4
// recovery scan a restarted service runs over a durable or surviving
// backend — and returns the recovered files' owner capabilities. They
// are the capabilities the files were created with: each is stored in
// the file's version pages, so capabilities held before a crash keep
// working after it. Call it after Start on a Dir that already holds a
// file system.
func (c *Cluster) RecoverFiles() ([]Capability, error) {
	byObj, err := c.inner.RecoverTable()
	if err != nil {
		return nil, err
	}
	out := make([]Capability, 0, len(byObj))
	for _, cp := range byObj {
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out, nil
}

// Close shuts down the cluster's durable stores, if any: pending group
// commits finish, segment files are synced and closed. A cluster that
// is simply abandoned (or killed) loses nothing either — acknowledged
// writes are already on disk — which is what the crash-recovery
// example demonstrates.
func (c *Cluster) Close() error { return c.inner.Close() }

// Abandon simulates a process crash for tests and demos that restart a
// durable cluster within one process: the stores' file handles (and
// their single-writer directory locks) are dropped with no flush or
// shutdown, so a fresh Start on the same Dir sees exactly what a
// restarted process would. A genuinely killed process needs no call.
func (c *Cluster) Abandon() { c.inner.Abandon() }

// NewClient connects a client to every server of the cluster, with
// automatic failover.
func (c *Cluster) NewClient() *Client {
	return &Client{inner: c.inner.Client()}
}

// CrashServer kills file server i (its in-flight versions die; files are
// unaffected). Clients fail over to the surviving servers.
func (c *Cluster) CrashServer(i int) { c.inner.CrashServer(i) }

// AddServer starts a replacement file server and returns its index.
func (c *Cluster) AddServer() (int, error) { return c.inner.AddServer() }

// Servers returns the number of servers started so far (dead included).
func (c *Cluster) Servers() int { return len(c.inner.Servers) }

// LiveServers returns how many servers currently answer.
func (c *Cluster) LiveServers() int { return len(c.inner.Ports()) }

// Collect runs one garbage-collection cycle and reports what it did.
// Collection also runs safely in parallel with normal operation; see
// RunGC.
func (c *Cluster) Collect() (gc.Report, error) { return c.inner.GC.Collect() }

// RunGC runs the collector every interval until stop is closed.
func (c *Cluster) RunGC(interval time.Duration, stop <-chan struct{}) {
	core.Every(interval, stop, func() { c.inner.GC.Collect() })
}

// RebuildFileTable reconstructs the file table from storage, the §4
// recovery path after losing every server.
func (c *Cluster) RebuildFileTable() error { return c.inner.RebuildTable() }

// Internal exposes the underlying core cluster for experiments that need
// raw access (benchmark harness, fault injection).
func (c *Cluster) Internal() *core.Cluster { return c.inner }

// Tracer returns the service-side trace sink — the ring of completed
// traces clients reported — or nil when the cluster was started without
// TraceSample.
func (c *Cluster) Tracer() *trace.Tracer { return c.inner.Tracer }

// Client talks to the file service, maintaining the §5.4 page cache.
type Client struct {
	inner *client.Client
}

// CreateFile creates a small file holding data (one page, which the
// paper notes is often a whole file) and returns its capability.
func (c *Client) CreateFile(data []byte) (Capability, error) {
	return c.inner.CreateFile(data)
}

// Update opens a new version of the file: a private, consistent view
// that can be read, modified and finally committed.
func (c *Client) Update(f Capability) (*Version, error) {
	return c.update(f, client.UpdateOpts{})
}

// UpdateSoft opens a version respecting the top-lock hint: the §5.3
// soft-locking discipline for updates known to be large.
func (c *Client) UpdateSoft(f Capability) (*Version, error) {
	return c.update(f, client.UpdateOpts{SoftLock: true})
}

// UpdateRelaxed opens a super-file version without waiting for the top
// lock, leaving correctness to the optimistic layer (§5.3 relaxation).
func (c *Client) UpdateRelaxed(f Capability) (*Version, error) {
	return c.update(f, client.UpdateOpts{RelaxSuperLock: true})
}

func (c *Client) update(f Capability, opts client.UpdateOpts) (*Version, error) {
	v, err := c.inner.Update(f, opts)
	if err != nil {
		return nil, err
	}
	return &Version{inner: v}, nil
}

// History returns the committed version chain, oldest first: the Fig. 4
// family tree's committed spine.
func (c *Client) History(f Capability) ([]VersionID, error) {
	hist, err := c.inner.History(f)
	if err != nil {
		return nil, err
	}
	out := make([]VersionID, len(hist))
	for i, h := range hist {
		out[i] = VersionID(h)
	}
	return out, nil
}

// ReadAt reads a page from a committed (possibly historical) version.
func (c *Client) ReadAt(f Capability, id VersionID, p Path) ([]byte, int, error) {
	return c.inner.ReadCommitted(f, block.Num(id), p)
}

// Snapshots lists the file's archived snapshot sequence numbers, oldest
// first: the commits the collector demoted into the archive tier.
// Unlike History, the list survives garbage collection and restarts
// (with a durable ArchiveDir). Requires an archive-enabled cluster.
func (c *Client) Snapshots(f Capability) ([]uint64, error) {
	snaps, err := c.inner.Snapshots(f)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(snaps))
	for i, e := range snaps {
		out[i] = e.Seq
	}
	return out, nil
}

// VersionAt opens the file as of archived snapshot seq: a read-only
// view served from the content-addressed archive tier, every block
// re-hashed against its stored score as it is read. The returned
// Snapshot stays readable however far the front tier moves on.
func (c *Client) VersionAt(f Capability, seq uint64) (*Snapshot, error) {
	// Probe the root so an unknown sequence (or a missing archive
	// tier) fails here rather than on first read.
	if _, _, err := c.inner.ReadSnapshot(f, seq, Root); err != nil {
		return nil, err
	}
	return &Snapshot{c: c.inner, f: f, seq: seq}, nil
}

// Snapshot is a read-only view of one archived commit of a file.
type Snapshot struct {
	c   *client.Client
	f   Capability
	seq uint64
}

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Read reads the page at path as of this snapshot.
func (s *Snapshot) Read(p Path) (data []byte, children int, err error) {
	return s.c.ReadSnapshot(s.f, s.seq, p)
}

// ReadFile reads the snapshot's whole root page.
func (s *Snapshot) ReadFile() ([]byte, error) {
	data, _, err := s.c.ReadSnapshot(s.f, s.seq, Root)
	return data, err
}

// ReadFile is a convenience that reads the whole root page of the
// current version without opening an update.
func (c *Client) ReadFile(f Capability) ([]byte, error) {
	cur, err := c.inner.CurrentVersion(f)
	if err != nil {
		return nil, err
	}
	data, _, err := c.inner.ReadCommitted(f, cur, Root)
	return data, err
}

// WriteFile is a convenience that replaces the root page in one update.
func (c *Client) WriteFile(f Capability, data []byte) error {
	v, err := c.Update(f)
	if err != nil {
		return err
	}
	if err := v.Write(Root, data); err != nil {
		v.Abort()
		return err
	}
	return v.Commit()
}

// Validate refreshes the client's cache entry for the file (one request;
// a null operation when nobody else changed the file).
func (c *Client) Validate(f Capability) error { return c.inner.Validate(f) }

// Stats returns transport/caching counters.
func (c *Client) Stats() client.Stats { return c.inner.Stats() }

// Tracer returns this client's sampling tracer (nil when the cluster
// runs without tracing): its ring holds the client's own completed
// traces without waiting for the asynchronous report to the service.
func (c *Client) Tracer() *trace.Tracer { return c.inner.Tracer() }

// CacheStats returns page-cache counters.
func (c *Client) CacheStats() CacheStats {
	s := c.inner.Cache.Stats()
	return CacheStats{
		Hits:            s.Hits,
		Misses:          s.Misses,
		Discards:        s.Discards,
		Validations:     s.Validations,
		NullValidations: s.NullValidations,
	}
}

// CacheStats counts client cache behaviour.
type CacheStats struct {
	Hits            uint64
	Misses          uint64
	Discards        uint64
	Validations     uint64
	NullValidations uint64
}

// VersionID names a committed version in a file's history.
type VersionID uint32

// Version is an open update on a file.
type Version struct {
	inner *client.Version
}

// Read returns the data and child count of the page at p. The returned
// slice may be shared with the client cache; treat it as read-only.
func (v *Version) Read(p Path) (data []byte, children int, err error) {
	return v.inner.Read(p)
}

// Write replaces the data of the page at p. The managing server holds a
// plain file's writes until the update next needs its tree, so only data
// larger than any page can be is refused here. A bad path, a hole, or
// data that does not fit beside the page's references is reported by a
// later call, at the latest by Commit; the update is then aborted.
func (v *Version) Write(p Path, data []byte) error { return v.inner.Write(p, data) }

// Insert creates a new child page holding data at index idx of the page
// at p.
func (v *Version) Insert(p Path, idx int, data []byte) error {
	return v.inner.Insert(p, idx, data)
}

// Remove deletes the child reference at index idx of the page at p; the
// garbage collector reclaims the detached subtree.
func (v *Version) Remove(p Path, idx int) error { return v.inner.Remove(p, idx) }

// MakeHole replaces the child reference at idx with a hole, keeping the
// table's shape.
func (v *Version) MakeHole(p Path, idx int) error { return v.inner.MakeHole(p, idx) }

// FillHole creates a page holding data in the hole at idx.
func (v *Version) FillHole(p Path, idx int, data []byte) error {
	return v.inner.FillHole(p, idx, data)
}

// RemoveHole deletes the hole at idx, shrinking the table.
func (v *Version) RemoveHole(p Path, idx int) error { return v.inner.RemoveHole(p, idx) }

// Split keeps the first keep bytes of the page at p and moves the rest
// into a new child appended to its table.
func (v *Version) Split(p Path, keep int) error { return v.inner.Split(p, keep) }

// Move relocates the subtree at (src, srcIdx) into the hole at (dst,
// dstIdx).
func (v *Version) Move(src Path, srcIdx int, dst Path, dstIdx int) error {
	return v.inner.Move(src, srcIdx, dst, dstIdx)
}

// CreateSubFile embeds a brand-new file at index idx of the page at p,
// making the enclosing file a super-file; the sub-file has its own
// capability, version chain, and concurrency control.
func (v *Version) CreateSubFile(p Path, idx int, data []byte) (Capability, error) {
	return v.inner.CreateSubFile(p, idx, data)
}

// Commit makes this version the file's current version, or fails with
// ErrConflict if a concurrent committed update is not serialisable with
// it. Concurrent updates to disjoint pages are merged, not rejected.
// Commit also reports a deferred Write error (see Write); the version
// is then aborted and its locks released.
func (v *Version) Commit() error { return v.inner.Commit() }

// Abort abandons the update.
func (v *Version) Abort() error { return v.inner.Abort() }

// Caps returns the version's capability (for handing to another party).
func (v *Version) Caps() Capability { return v.inner.Caps() }
