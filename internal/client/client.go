// Package client is the Amoeba File Service client library: it speaks
// the transaction protocol to any of the service's server processes,
// fails over to a sibling server when one stops answering (§5.4.1:
// "Clients do not have to wait until the server is restored, because they
// can use another server"), and maintains the §5.4 page cache, validated
// with a single request per opened version and never by server-initiated
// messages.
package client

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/capability"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/trace"
)

// ErrNoServers reports that every known server port is dead.
var ErrNoServers = errors.New("client: no live servers")

// ErrConflict mirrors the service's serialisability conflict; clients
// redo the update on a fresh version. It wraps occ.ErrConflict so both
// sentinels match.
var ErrConflict = fmt.Errorf("client: %w", occ.ErrConflict)

// ErrVersionLost reports that an open version's server died and the
// operation failed over to a sibling server, which cannot know the
// version: uncommitted versions are managed by the server that created
// them and die with it — "clients must be prepared to redo the updates
// in a version" (§5.4.1). It wraps occ.ErrConflict, so every redo loop
// written for conflicts handles server loss identically.
var ErrVersionLost = fmt.Errorf("client: version lost with its server, redo the update: %w", occ.ErrConflict)

// Stats counts client-side behaviour.
type Stats struct {
	Transactions uint64
	Failovers    uint64
	BytesFetched uint64 // page data received
	BytesSaved   uint64 // page data served from cache instead
}

// Client talks to one file service.
type Client struct {
	tr    rpc.Transactor
	Cache *cache.Cache

	// tracer, when set, mints a trace root for each sampled operation;
	// the context rides the request trailer so server-side spans nest
	// under the client's. Nil means tracing off (the default): the hot
	// path then allocates nothing extra.
	tracer *trace.Tracer

	mu        sync.Mutex
	ports     []capability.Port
	preferred int
	stats     Stats
}

// New creates a client that reaches the service's servers at the given
// ports, in order of preference.
func New(tr rpc.Transactor, ports ...capability.Port) *Client {
	return &Client{tr: tr, Cache: cache.New(), ports: append([]capability.Port(nil), ports...)}
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SetTracer installs the tracer that decides per-operation sampling.
// Must be called before the client is shared between goroutines.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// Tracer returns the installed tracer (nil when tracing is off).
func (c *Client) Tracer() *trace.Tracer { return c.tracer }

// ReportTrace ships an assembled trace to a server so it appears on the
// server's /debug/traces endpoint. The report itself is never traced.
// Intended for use from a Tracer's OnTrace hook (in a goroutine: the
// hook runs inside the traced operation's call path).
func (c *Client) ReportTrace(tr *trace.Trace) error {
	if tr == nil || len(tr.Spans) == 0 {
		return nil
	}
	resp, err := c.transact(&rpc.Message{Command: server.CmdTraceReport, Data: trace.EncodeTrace(tr)})
	if err != nil {
		return err
	}
	return resp.Err()
}

// transact sends req to the preferred server, failing over through the
// port list when servers are dead.
func (c *Client) transact(req *rpc.Message) (*rpc.Message, error) {
	c.mu.Lock()
	start := c.preferred
	n := len(c.ports)
	c.mu.Unlock()
	var lastErr error = ErrNoServers
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		c.mu.Lock()
		port := c.ports[idx]
		c.mu.Unlock()
		resp, err := c.tr.Transact(port, req)
		if err != nil {
			if errors.Is(err, rpc.ErrDeadPort) {
				lastErr = err
				c.mu.Lock()
				c.stats.Failovers++
				c.mu.Unlock()
				continue
			}
			return nil, err
		}
		c.mu.Lock()
		c.preferred = idx
		c.stats.Transactions++
		c.mu.Unlock()
		return resp, nil
	}
	return nil, fmt.Errorf("client: all %d servers unreachable: %w (%v)", n, ErrNoServers, lastErr)
}

// call sends req and converts an error status to a Go error. When the
// operation is sampled, this is where the trace root is minted: the
// derived context rides the request trailer, the reply's span records
// are adopted, and ending the root finalises the trace into the tracer.
func (c *Client) call(req *rpc.Message) (*rpc.Message, error) {
	root, ctx := c.tracer.Start("client", server.CmdName(req.Command))
	if root != nil {
		req.Trace = ctx
	}
	resp, err := c.transact(req)
	if err != nil {
		root.End(err)
		return nil, err
	}
	root.Adopt(resp.Spans)
	if resp.Status == rpc.StatusConflict {
		root.End(ErrConflict)
		return nil, ErrConflict
	}
	if err := resp.Err(); err != nil {
		root.End(err)
		return nil, err
	}
	root.End(nil)
	return resp, nil
}

// CreateFile creates a small file holding data and returns its owner
// capability.
func (c *Client) CreateFile(data []byte) (capability.Capability, error) {
	resp, err := c.call(&rpc.Message{Command: server.CmdCreateFile, Data: data})
	if err != nil {
		return capability.Nil, err
	}
	if len(resp.Caps) != 1 {
		return capability.Nil, errors.New("client: malformed create reply")
	}
	return resp.Caps[0], nil
}

// UpdateOpts mirrors the §5.3 version-creation options.
type UpdateOpts struct {
	// SoftLock makes the update respect the top-lock hint on small
	// files (postpone until idle).
	SoftLock bool
	// RelaxSuperLock opts a super-file update out of top-lock waiting,
	// leaving correctness to the optimistic layer.
	RelaxSuperLock bool
}

// Version is an open update: the client's handle on a private, consistent
// view of the file.
type Version struct {
	c    *Client
	fcap capability.Capability
	vcap capability.Capability
	base block.Num
	// written buffers this update's own page writes for read-your-own-
	// write without a round trip.
	written map[string][]byte
	closed  bool
	// home is the port of the server that created (and exclusively
	// manages) this version. A version-scoped request refused by a
	// DIFFERENT server means the home server died and the failover
	// machinery rerouted the request: the version is lost. A refusal
	// from the home server itself stays a genuine error.
	home capability.Port
}

// call sends a version-scoped request. A version is private to the
// server that created it, so when that server dies the failover
// machinery lands the request at a sibling that (correctly) refuses the
// capability; that refusal is translated to ErrVersionLost so the
// caller redoes the update, exactly as it would after a conflict.
func (v *Version) call(req *rpc.Message) (*rpc.Message, error) {
	resp, err := v.c.call(req)
	if err == nil {
		return resp, nil
	}
	var se *rpc.StatusError
	if errors.As(err, &se) && (se.Status == rpc.StatusNotFound || se.Status == rpc.StatusBadCapability) {
		// transact records the answering server as preferred, so
		// comparing it against the version's home tells whether this
		// refusal came from a sibling after a failover.
		if v.c.preferredPort() != v.home {
			v.closed = true
			return nil, fmt.Errorf("%v: %w", se, ErrVersionLost)
		}
	}
	return nil, err
}

// preferredPort returns the port of the server that answered the last
// transaction.
func (c *Client) preferredPort() capability.Port {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ports) == 0 {
		return capability.NilPort
	}
	return c.ports[c.preferred]
}

// Update opens a new version of the file. The client first validates its
// cache entry for the file (one request; a null operation for unshared
// files) and then creates the version.
func (c *Client) Update(fcap capability.Capability, opts UpdateOpts) (*Version, error) {
	if _, ok := c.Cache.Root(fcap.Object); ok {
		if err := c.Validate(fcap); err != nil {
			return nil, err
		}
	}
	var bits uint64
	if opts.SoftLock {
		bits |= server.OptRespectTopHint
	}
	if opts.RelaxSuperLock {
		bits |= server.OptRelaxSuperLock
	}
	req := &rpc.Message{Command: server.CmdCreateVersion, Caps: []capability.Capability{fcap}}
	req.Args[0] = bits
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	if len(resp.Caps) != 1 {
		return nil, errors.New("client: malformed version reply")
	}
	return &Version{
		c:       c,
		fcap:    fcap,
		vcap:    resp.Caps[0],
		base:    block.Num(resp.Args[0]),
		written: make(map[string][]byte),
		home:    c.preferredPort(),
	}, nil
}

// Validate runs the §5.4 cache check for the file, discarding stale
// entries. It is also exposed for cache-refresh without an update.
func (c *Client) Validate(fcap capability.Capability) error {
	root, ok := c.Cache.Root(fcap.Object)
	if !ok {
		return nil
	}
	req := &rpc.Message{Command: server.CmdValidateCache, Caps: []capability.Capability{fcap}}
	req.Args[0] = uint64(root)
	resp, err := c.call(req)
	if err != nil {
		return err
	}
	iv := cache.Invalidation{All: resp.Args[1] == 1}
	rest := resp.Data
	for i := uint64(0); i < resp.Args[2]; i++ {
		var p page.Path
		p, rest, err = page.DecodePath(rest)
		if err != nil {
			return fmt.Errorf("client: bad validation reply: %w", err)
		}
		iv.Exact = append(iv.Exact, p)
	}
	for i := uint64(0); i < resp.Args[3]; i++ {
		var p page.Path
		p, rest, err = page.DecodePath(rest)
		if err != nil {
			return fmt.Errorf("client: bad validation reply: %w", err)
		}
		iv.Prefixes = append(iv.Prefixes, p)
	}
	c.Cache.Apply(fcap.Object, block.Num(resp.Args[0]), iv)
	return nil
}

// Caps returns the version's capability (for sharing or restriction).
func (v *Version) Caps() capability.Capability { return v.vcap }

// Base returns the committed version this update is based on.
func (v *Version) Base() block.Num { return v.base }

// pathReq builds a request with the version capability and encoded path.
func (v *Version) pathReq(cmd uint32, p page.Path, payload []byte) (*rpc.Message, error) {
	data, err := p.Encode(nil)
	if err != nil {
		return nil, err
	}
	return &rpc.Message{
		Command: cmd,
		Caps:    []capability.Capability{v.vcap},
		Data:    append(data, payload...),
	}, nil
}

// Read returns the data and reference count of the page at path. Reads of
// pages this update wrote are served locally; reads of pages the cache
// holds (for this version's base) are confirmed with a flags-only round
// trip that moves no page data.
//
// The returned slice may be shared with the client cache and with this
// update's own write buffer; callers must treat it as read-only (copy
// before modifying). This keeps every cached read zero-copy.
func (v *Version) Read(p page.Path) ([]byte, int, error) {
	if v.closed {
		return nil, 0, errors.New("client: version closed")
	}
	if own, ok := v.written[p.String()]; ok {
		// Reading your own write needs no flag update: serial
		// equivalence is judged against other updates' writes, and
		// this update's W flag is already set on the page.
		v.c.mu.Lock()
		v.c.stats.BytesSaved += uint64(len(own))
		v.c.mu.Unlock()
		return own, -1, nil
	}
	if e, ok := v.c.Cache.Get(v.fcap.Object, v.base, p); ok {
		// Cache hit: the server still records the read (flags), but
		// sends no data back.
		req, err := v.pathReq(server.CmdReadPage, p, nil)
		if err != nil {
			return nil, 0, err
		}
		req.Args[0] = 1
		resp, err := v.call(req)
		if err != nil {
			return nil, 0, err
		}
		if resp.Args[1] == 1 {
			v.c.mu.Lock()
			v.c.stats.BytesSaved += uint64(len(e.Data))
			v.c.mu.Unlock()
			return e.Data, int(resp.Args[0]), nil
		}
	}
	req, err := v.pathReq(server.CmdReadPage, p, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := v.call(req)
	if err != nil {
		return nil, 0, err
	}
	v.c.mu.Lock()
	v.c.stats.BytesFetched += uint64(len(resp.Data))
	v.c.mu.Unlock()
	v.c.Cache.Put(v.fcap.Object, v.base, p, cache.Entry{Data: resp.Data, NRefs: int(resp.Args[0])})
	return resp.Data, int(resp.Args[0]), nil
}

// Write replaces the page at path with data. A plain file's server
// checks the path only when it applies its buffered writes, so a bad
// path may be reported by a later call, at the latest by Commit (see
// server.Server.WritePage).
func (v *Version) Write(p page.Path, data []byte) error {
	if v.closed {
		return errors.New("client: version closed")
	}
	req, err := v.pathReq(server.CmdWritePage, p, data)
	if err != nil {
		return err
	}
	if _, err := v.call(req); err != nil {
		return err
	}
	v.written[p.String()] = append([]byte(nil), data...)
	return nil
}

// indexed issues one of the index-taking shape commands.
func (v *Version) indexed(cmd uint32, p page.Path, idx int, payload []byte) error {
	if v.closed {
		return errors.New("client: version closed")
	}
	req, err := v.pathReq(cmd, p, payload)
	if err != nil {
		return err
	}
	req.Args[0] = uint64(idx)
	_, err = v.call(req)
	return err
}

// Insert adds a fresh page holding data at index idx of the page at path.
func (v *Version) Insert(p page.Path, idx int, data []byte) error {
	return v.indexed(server.CmdInsertPage, p, idx, data)
}

// Remove deletes the reference at index idx of the page at path.
func (v *Version) Remove(p page.Path, idx int) error {
	return v.indexed(server.CmdRemovePage, p, idx, nil)
}

// MakeHole nils the reference at idx of the page at path.
func (v *Version) MakeHole(p page.Path, idx int) error {
	return v.indexed(server.CmdMakeHole, p, idx, nil)
}

// FillHole creates a page holding data in the hole at idx.
func (v *Version) FillHole(p page.Path, idx int, data []byte) error {
	return v.indexed(server.CmdFillHole, p, idx, data)
}

// RemoveHole deletes the hole at idx of the page at path.
func (v *Version) RemoveHole(p page.Path, idx int) error {
	return v.indexed(server.CmdRemoveHole, p, idx, nil)
}

// Split splits the page at path, keeping keep bytes of data in place.
func (v *Version) Split(p page.Path, keep int) error {
	return v.indexed(server.CmdSplitPage, p, keep, nil)
}

// Move moves a subtree from (srcPath, srcIdx) into the hole (dstPath,
// dstIdx).
func (v *Version) Move(srcPath page.Path, srcIdx int, dstPath page.Path, dstIdx int) error {
	if v.closed {
		return errors.New("client: version closed")
	}
	data, err := srcPath.Encode(nil)
	if err != nil {
		return err
	}
	data, err = dstPath.Encode(data)
	if err != nil {
		return err
	}
	req := &rpc.Message{Command: server.CmdMoveSubtree, Caps: []capability.Capability{v.vcap}, Data: data}
	req.Args[0] = uint64(srcIdx)
	req.Args[1] = uint64(dstIdx)
	_, err = v.call(req)
	return err
}

// CreateSubFile embeds a new file at index idx of the page at path and
// returns its capability.
func (v *Version) CreateSubFile(p page.Path, idx int, data []byte) (capability.Capability, error) {
	if v.closed {
		return capability.Nil, errors.New("client: version closed")
	}
	req, err := v.pathReq(server.CmdCreateSubFile, p, data)
	if err != nil {
		return capability.Nil, err
	}
	req.Args[0] = uint64(idx)
	resp, err := v.call(req)
	if err != nil {
		return capability.Nil, err
	}
	if len(resp.Caps) != 1 {
		return capability.Nil, errors.New("client: malformed sub-file reply")
	}
	return resp.Caps[0], nil
}

// Commit makes the version current. On a serialisability conflict it
// returns ErrConflict; the caller redoes the update on a fresh version.
// On success the update's writes enter the cache; if the commit was
// merged with concurrent updates, other cached pages of the file are
// dropped (their content may have been superseded).
func (v *Version) Commit() error {
	if v.closed {
		return errors.New("client: version closed")
	}
	req := &rpc.Message{Command: server.CmdCommit, Caps: []capability.Capability{v.vcap}}
	resp, err := v.call(req)
	if err != nil {
		if errors.Is(err, ErrConflict) {
			v.closed = true
		}
		return err
	}
	v.closed = true
	newRoot := block.Num(resp.Args[1])
	merged := resp.Args[0] == 1
	if merged {
		v.c.Cache.Drop(v.fcap.Object)
	}
	for key, data := range v.written {
		p, err := page.ParsePath(key)
		if err != nil {
			continue
		}
		v.c.Cache.Put(v.fcap.Object, newRoot, p, cache.Entry{Data: data, NRefs: -1})
	}
	return nil
}

// Abort abandons the update.
func (v *Version) Abort() error {
	if v.closed {
		return nil
	}
	v.closed = true
	req := &rpc.Message{Command: server.CmdAbort, Caps: []capability.Capability{v.vcap}}
	_, err := v.call(req)
	return err
}

// CurrentVersion returns the file's current version root.
func (c *Client) CurrentVersion(fcap capability.Capability) (block.Num, error) {
	req := &rpc.Message{Command: server.CmdCurrentVersion, Caps: []capability.Capability{fcap}}
	resp, err := c.call(req)
	if err != nil {
		return block.NilNum, err
	}
	return block.Num(resp.Args[0]), nil
}

// History returns the file's committed version roots, oldest first.
func (c *Client) History(fcap capability.Capability) ([]block.Num, error) {
	req := &rpc.Message{Command: server.CmdHistory, Caps: []capability.Capability{fcap}}
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	if len(resp.Data)%4 != 0 {
		return nil, errors.New("client: malformed history reply")
	}
	out := make([]block.Num, 0, len(resp.Data)/4)
	for i := 0; i+4 <= len(resp.Data); i += 4 {
		out = append(out, block.Num(uint32(resp.Data[i])<<24|uint32(resp.Data[i+1])<<16|
			uint32(resp.Data[i+2])<<8|uint32(resp.Data[i+3])))
	}
	return out, nil
}

// ReadCommitted reads the page at path from a committed (historical)
// version root: time travel over the Fig. 4 family tree.
func (c *Client) ReadCommitted(fcap capability.Capability, root block.Num, p page.Path) ([]byte, int, error) {
	data, err := p.Encode(nil)
	if err != nil {
		return nil, 0, err
	}
	req := &rpc.Message{Command: server.CmdReadCommitted, Caps: []capability.Capability{fcap}, Data: data}
	req.Args[0] = uint64(root)
	resp, err := c.call(req)
	if err != nil {
		return nil, 0, err
	}
	return resp.Data, int(resp.Args[0]), nil
}

// SnapshotInfo is one archived snapshot of a file, as listed by the
// archive tier's snapshot log.
type SnapshotInfo struct {
	// Seq is the per-file snapshot sequence ("the file as of commit N").
	Seq uint64
	// Root is the archive block holding the snapshot's version page.
	Root block.Num
	// Score is the snapshot's Merkle score over the archived tree.
	Score [32]byte
}

// snapshotWireSize matches the CmdSnapshots record layout.
const snapshotWireSize = 8 + 4 + 32

// Snapshots lists the file's archived snapshots, oldest first. Unlike
// History, the list survives garbage collection of the front tier.
func (c *Client) Snapshots(fcap capability.Capability) ([]SnapshotInfo, error) {
	req := &rpc.Message{Command: server.CmdSnapshots, Caps: []capability.Capability{fcap}}
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	if len(resp.Data)%snapshotWireSize != 0 {
		return nil, errors.New("client: malformed snapshots reply")
	}
	out := make([]SnapshotInfo, 0, len(resp.Data)/snapshotWireSize)
	for i := 0; i+snapshotWireSize <= len(resp.Data); i += snapshotWireSize {
		var e SnapshotInfo
		for j := 0; j < 8; j++ {
			e.Seq = e.Seq<<8 | uint64(resp.Data[i+j])
		}
		e.Root = block.Num(uint32(resp.Data[i+8])<<24 | uint32(resp.Data[i+9])<<16 |
			uint32(resp.Data[i+10])<<8 | uint32(resp.Data[i+11]))
		copy(e.Score[:], resp.Data[i+12:i+snapshotWireSize])
		out = append(out, e)
	}
	return out, nil
}

// ReadSnapshot reads the page at path of the file as of archived
// snapshot seq: read-only time travel through the archive tier, every
// block re-hashed against its stored score on the way.
func (c *Client) ReadSnapshot(fcap capability.Capability, seq uint64, p page.Path) ([]byte, int, error) {
	data, err := p.Encode(nil)
	if err != nil {
		return nil, 0, err
	}
	req := &rpc.Message{Command: server.CmdOpenAt, Caps: []capability.Capability{fcap}, Data: data}
	req.Args[0] = seq
	resp, err := c.call(req)
	if err != nil {
		// Re-sentinel integrity failures across the wire: the status
		// code travels, the error value does not.
		var se *rpc.StatusError
		if errors.As(err, &se) && se.Status == rpc.StatusCorrupt {
			return nil, 0, fmt.Errorf("client: %s: %w", se.Detail, block.ErrCorrupt)
		}
		return nil, 0, err
	}
	return resp.Data, int(resp.Args[0]), nil
}

// Ping checks whether any server of the service answers.
func (c *Client) Ping() error {
	_, err := c.call(&rpc.Message{Command: server.CmdPing})
	return err
}
