// Package server implements the Amoeba File Server process: the service
// that manages files and versions on top of the block service, enforcing
// protection with capabilities, concurrency control with the optimistic
// mechanism of §5.2 and, for super-files, the locking mechanism of §5.3.
//
// A file service consists of any number of Server processes sharing the
// capability factory and file table (the paper's replicated structures)
// and a block store. Each Server has its own port: lock fields name the
// individual server so waiters can detect its death, and clients fail
// over to a sibling server when theirs stops answering. Uncommitted
// versions are managed by the server that created them and die with it;
// "clients must be prepared to redo the updates in a version" (§5.4.1).
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/trace"
	"repro/internal/version"
)

// Errors of the file service.
var (
	// ErrUnknownVersion reports a version capability this server does
	// not manage (possibly because it crashed and lost the version).
	ErrUnknownVersion = errors.New("server: unknown version")
	// ErrVersionClosed reports an operation on a committed or aborted
	// version.
	ErrVersionClosed = errors.New("server: version closed")
	// ErrNoArchive reports a snapshot operation on a service with no
	// archive tier configured.
	ErrNoArchive = errors.New("server: no archive tier configured")
)

// MemRegistry tracks the liveness of update ports: every open update
// holds its locks under a fresh port registered here, and waiters probe
// it (across a mesh, through the table replica's port-liveness
// command). A server crash unregisters all of its updates' ports at
// once.
type MemRegistry struct {
	mu    sync.Mutex
	ports map[capability.Port]bool
}

// NewMemRegistry creates an empty registry.
func NewMemRegistry() *MemRegistry {
	return &MemRegistry{ports: make(map[capability.Port]bool)}
}

// Register announces a live port.
func (r *MemRegistry) Register(p capability.Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ports[p] = true
}

// Unregister removes a port; probes then report it dead.
func (r *MemRegistry) Unregister(p capability.Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.ports, p)
}

// Alive reports whether the port is registered.
func (r *MemRegistry) Alive(p capability.Port) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ports[p]
}

// objBandBits is how many of the 24 object-number bits carry the server
// (replica) ID: object numbers minted by different servers of one
// service can never collide, so object allocation needs no cross-server
// coordination at all. 6 bits of ID (ftab.MaxID) leave 18 bits — 262143
// objects — per server.
const objBandBits = 6

// objBandShift positions the ID band at the top of the 24-bit space.
const objBandShift = 24 - objBandBits

// Shared is the state common to all server processes of one file
// service: the paper's replicated file table and shared service
// identity.
type Shared struct {
	// Fact mints and checks capabilities; its port is the service's
	// public identity, common to all servers. In a replicated service
	// the per-object secrets travel with the file table (ftab), so a
	// capability minted by any server verifies at every server.
	Fact *capability.Factory
	// Table is the file table: a plain in-process *file.Table for a
	// single-machine service, or an ftab.Replicated for a multi-server
	// mesh (replace it before the service serves requests).
	Table ftab.Table
	// Store is the block service underneath (a plain server, a sharded
	// facade or a stable pair).
	Store block.Store
	// Acct is the service's block account.
	Acct block.Account
	// Ports answers lock-holder liveness across all servers.
	Ports *MemRegistry
	// Archive is the content-addressed archive tier holding demoted
	// snapshots; nil when the deployment runs without one, in which
	// case the snapshot commands answer ErrNoArchive.
	Archive *archive.Store
	// Tracer, when set, receives completed traces reported by clients
	// via CmdTraceReport and serves them on the debug endpoints. Nil
	// disables ingestion (reports are acknowledged and dropped).
	Tracer *trace.Tracer

	mu      sync.Mutex
	id      uint32
	nextObj uint32
}

// NewShared creates the shared service state.
func NewShared(store block.Store, acct block.Account) *Shared {
	return &Shared{
		Fact:  capability.NewFactory(capability.NewPort().Public()),
		Table: file.NewTable(),
		Store: store,
		Acct:  acct,
		Ports: NewMemRegistry(),
	}
}

// SetID assigns this service instance's replica ID (0..ftab.MaxID),
// which bands its object numbers so sibling servers on other machines
// can mint objects concurrently without coordination. Call it before
// the service serves requests; the default ID is 0.
func (sh *Shared) SetID(id uint32) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.id = id & ftab.MaxID
}

// ID returns the instance's replica ID.
func (sh *Shared) ID() uint32 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.id
}

// AdoptTable installs a rebuilt file table (file.Rebuild) after a
// process restart. Adoption is idempotent and guarded: an object the
// live table already knows — because a sibling server replicated it to
// us, or because an earlier adoption installed it — is left untouched,
// so two servers racing the recovery scan over the same store converge
// on one set of capabilities instead of double-minting. (Racing
// adopters that were partitioned while both scanned still double-mint;
// the replicated table resolves that deterministically — lower server
// ID wins — when they meet.)
//
// A newly adopted file gets a fresh owner capability minted under this
// service's factory (the old secrets died with the old process); the
// object counter advances past the recovered objects of this server's
// own band so new files cannot collide. The returned map hands the new
// owner capabilities to whoever drives the recovery; files skipped
// because they were already live are not in it.
func (sh *Shared) AdoptTable(t *file.Table) map[uint32]capability.Capability {
	out := make(map[uint32]capability.Capability)
	for obj, e := range t.Entries() {
		if _, err := sh.Table.Get(obj); err == nil {
			continue // already live (replicated or previously adopted)
		}
		if _, ok := sh.Fact.Secret(obj); ok {
			// Secret known but entry missing: a concurrent adopter got
			// here between our check and theirs. Keep the registered
			// secret; re-put the entry with its capability.
			if c, ok := sh.Fact.Owner(obj); ok {
				e.Cap = c
				sh.Table.Put(obj, e)
				continue
			}
		}
		c := sh.Fact.Register(obj)
		e.Cap = c
		sh.Table.Put(obj, e)
		out[obj] = c
	}
	sh.syncObjects()
	return out
}

// syncObjects advances the object counter past every known object in
// this server's own band — recovered by scan or adopted from a peer
// snapshot — so newObject cannot re-issue a number.
func (sh *Shared) syncObjects() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, obj := range sh.Table.Objects() {
		if obj>>objBandShift != sh.id {
			continue
		}
		if n := obj & (1<<objBandShift - 1); n > sh.nextObj {
			sh.nextObj = n
		}
	}
}

// ErrObjectsExhausted reports a server whose band of object numbers holds
// a registered secret for every number.
var ErrObjectsExhausted = errors.New("server: no free object number in this server's band")

// newObject reserves a fresh object number in this server's band and
// mints its owner capability. Numbers whose secrets are present — live
// files and versions, and objects adopted from a peer snapshot minted by
// this server's previous life — are skipped; a version's number comes
// free again once its record is reaped (Server.LiveVersions). After one
// lap of the band without a free number it gives up.
func (sh *Shared) newObject() (uint32, capability.Capability, error) {
	for range 1 << objBandShift {
		sh.mu.Lock()
		sh.nextObj++
		obj := sh.id<<objBandShift | sh.nextObj&(1<<objBandShift-1)
		sh.mu.Unlock()
		if _, taken := sh.Fact.Secret(obj); !taken {
			return obj, sh.Fact.Register(obj), nil
		}
	}
	return 0, capability.Nil, ErrObjectsExhausted
}

// VersionState is the lifecycle of a version record.
type VersionState int

// Version lifecycle states.
const (
	StateActive VersionState = iota
	StateCommitted
	StateAborted
)

// verRec is this server's record of one uncommitted (or just-closed)
// version.
type verRec struct {
	mu      sync.Mutex
	cap     capability.Capability
	fileObj uint32
	tree    *version.Tree
	state   VersionState
	// locks acts under this update's own lock port.
	locks *lock.Manager
	// super update bookkeeping: the base version page whose top lock we
	// hold, and the current sub-file version pages we inner-locked, each
	// with the version capability of its fork (nil until minted). A pass
	// refused after its crossing forks that page again under the same
	// capability when it is retried.
	super    bool
	topBase  block.Num
	crossing map[block.Num]capability.Capability
	// closedAt stamps commit/abort for record reaping.
	closedAt time.Time
	// minted lists the version objects this update created besides its
	// own: sub-file forks and sub-file birth versions. Their capabilities
	// go to no client, and no stored VersionCap is ever verified, so the
	// reaper forgets them with the record's own object.
	minted []uint32

	// A plain-file update's page writes wait here until the next flush:
	// paths in first-write order, a later write to a path replacing its
	// data. See Server.WritePage.
	pendPaths []page.Path
	pendData  [][]byte
	pendIdx   map[string]int // path.String() → index
	// The read set: every update's reads, once per path, whose R and S
	// flags wait for the same flush. See Server.ReadPage.
	readPaths []page.Path
	readIdx   map[string]bool // path.String() → read
	// pendBytes counts the buffered data and the read paths' wire length.
	pendBytes int
}

// buffer records a pending write of data to p.
func (rec *verRec) buffer(p page.Path, data []byte) {
	key := p.String()
	if i, ok := rec.pendIdx[key]; ok {
		rec.pendBytes += len(data) - len(rec.pendData[i])
		rec.pendData[i] = data
		return
	}
	if rec.pendIdx == nil {
		rec.pendIdx = make(map[string]int)
	}
	rec.pendIdx[key] = len(rec.pendPaths)
	rec.pendPaths = append(rec.pendPaths, p.Clone())
	rec.pendData = append(rec.pendData, data)
	rec.pendBytes += len(data)
}

// pending reports whether a write to p is waiting for a flush.
func (rec *verRec) pending(p page.Path) bool {
	if len(rec.pendIdx) == 0 {
		return false
	}
	_, ok := rec.pendIdx[p.String()]
	return ok
}

// read records a read of p in the read set.
func (rec *verRec) read(p page.Path) {
	key := p.String()
	if rec.readIdx[key] {
		return
	}
	if rec.readIdx == nil {
		rec.readIdx = make(map[string]bool)
	}
	rec.readIdx[key] = true
	rec.readPaths = append(rec.readPaths, p.Clone())
	rec.pendBytes += 1 + 2*len(p) // page.Path.Encode's length
}

// dropPending empties the write buffer and the read set.
func (rec *verRec) dropPending() {
	rec.pendPaths, rec.pendData, rec.pendIdx, rec.pendBytes = nil, nil, nil, 0
	rec.readPaths, rec.readIdx = nil, nil
}

// flushBytes bounds one version's buffered write data and read paths: a
// write or read that takes the buffer past it flushes at once.
const flushBytes = 1 << 20

// CreateVersionOpts selects the §5.3 lock discipline variants.
type CreateVersionOpts struct {
	// RespectTopHint makes a small-file update wait for the top-lock
	// hint: the paper's soft-locking scheme for updates "known to
	// affect large parts of a small file".
	RespectTopHint bool
	// RelaxSuperLock allows creating a super-file version even when the
	// top lock is set: "The optimistic concurrency control which still
	// lurks underneath this locking mechanism will see to it that no
	// harm is done."
	RelaxSuperLock bool
}

// Server is one Amoeba File Server process.
type Server struct {
	shared *Shared
	port   capability.Port
	st     *version.Store
	com    *occ.Committer
	locks  *lock.Manager

	mu       sync.Mutex
	versions map[uint32]*verRec
	crashed  bool
	// creating fences version creation against the collector's pin
	// sample: CreateVersion is inside it from choosing its base until its
	// record is in versions, and LiveVersions waits out the creations
	// inside it before it samples, so no base is chosen and no version
	// root allocated before a sample and registered after it.
	creating fence
}

// fence lets a waiter wait out the operations in flight when it arrives
// without holding back the ones that start after it: a creation waiting
// for a §5.3 lock (up to lock.Manager.Patience) delays the pin sample,
// not every other creation on the server.
type fence struct {
	mu      sync.Mutex
	passing sync.Mutex      // one waiter at a time
	group   *sync.WaitGroup // the operations in flight since the last pass
}

// enter joins the operations in flight; call the returned func on leaving.
func (f *fence) enter() (leave func()) {
	f.mu.Lock()
	if f.group == nil {
		f.group = new(sync.WaitGroup)
	}
	g := f.group
	g.Add(1)
	f.mu.Unlock()
	return g.Done
}

// pass returns once every operation that entered before it has left.
func (f *fence) pass() {
	f.passing.Lock()
	defer f.passing.Unlock()
	f.mu.Lock()
	g := f.group
	f.group = nil
	f.mu.Unlock()
	if g != nil {
		g.Wait()
	}
}

// New creates a server process with its own port. probe answers lock
// holder liveness; pass nil to probe the service's port registry.
func New(shared *Shared, probe lock.Prober) *Server {
	port := capability.NewPort().Public()
	st := version.NewStore(shared.Store, shared.Acct)
	if probe == nil {
		probe = shared.Ports.Alive
	}
	s := &Server{
		shared:   shared,
		port:     port,
		st:       st,
		com:      occ.NewCommitter(st),
		locks:    lock.NewManager(st, port, probe),
		versions: make(map[uint32]*verRec),
	}
	return s
}

// closedGrace is how long a closed version record lingers so that
// follow-up queries (e.g. the commit reply's root lookup) still resolve.
const closedGrace = time.Second

// LiveVersions returns the root blocks of the open versions this server
// manages; the garbage collector pins them. A version creation in
// progress finishes first, so its root is in the sample. Closed records
// past their grace period are reaped on the way.
func (s *Server) LiveVersions() []block.Num {
	s.creating.pass()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]block.Num, 0, len(s.versions))
	now := time.Now()
	for obj, rec := range s.versions {
		if rec.state == StateActive {
			out = append(out, rec.tree.Root)
			continue
		}
		if !rec.closedAt.IsZero() && now.Sub(rec.closedAt) > closedGrace {
			delete(s.versions, obj)
			for _, o := range append(rec.minted, obj) {
				s.shared.Fact.Forget(o)
			}
		}
	}
	return out
}

// Port returns this server's transport port (also its lock identity).
func (s *Server) Port() capability.Port { return s.port }

// Shared returns the service-wide state.
func (s *Server) Shared() *Shared { return s.shared }

// Store exposes the version store for tools (GC, benches).
func (s *Server) Store() *version.Store { return s.st }

// OCCStats exposes commit instrumentation.
func (s *Server) OCCStats() *occ.Stats { return s.com.Stat }

// LockManager exposes the lock manager (examples and tests).
func (s *Server) LockManager() *lock.Manager { return s.locks }

// Crash simulates a server-process crash: all in-memory version records
// vanish — buffered writes and read sets with them, never having reached
// the block service — and their update ports die, so probes by waiters
// fail. Locks held on disk remain — exactly the §5.3 situation that
// waiters recover from.
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	for _, rec := range s.versions {
		s.shared.Ports.Unregister(rec.locks.Port)
	}
	s.versions = make(map[uint32]*verRec)
}

// checkAlive refuses service after a crash.
func (s *Server) checkAlive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return fmt.Errorf("server %v: crashed", s.port)
	}
	return nil
}

// CreateFile creates a new small file whose birth version holds data,
// committed immediately. It returns the owner file capability.
func (s *Server) CreateFile(data []byte) (capability.Capability, error) {
	if err := s.checkAlive(); err != nil {
		return capability.Nil, err
	}
	obj, fcap, err := s.shared.newObject()
	if err != nil {
		return capability.Nil, err
	}
	vobj, vcap, err := s.shared.newObject()
	if err != nil {
		s.shared.Fact.Forget(obj)
		return capability.Nil, err
	}
	tr, err := version.CreateFile(s.st, fcap, vcap, data)
	// The birth version is committed at once and no record holds it;
	// no stored VersionCap is ever verified, so its secret goes now.
	s.shared.Fact.Forget(vobj)
	if err != nil {
		s.shared.Fact.Forget(obj)
		return capability.Nil, err
	}
	s.shared.Table.Put(obj, file.Entry{Cap: fcap, Entry: tr.Root})
	return fcap, nil
}

// currentOf resolves the current version root of a file.
func (s *Server) currentOf(fileObj uint32) (block.Num, file.Entry, error) {
	e, err := s.shared.Table.Get(fileObj)
	if err != nil {
		return block.NilNum, file.Entry{}, err
	}
	cur, err := occ.Current(s.st, e.Entry)
	if err != nil {
		return block.NilNum, file.Entry{}, err
	}
	if cur != e.Entry {
		s.shared.Table.Advance(fileObj, cur)
	}
	return cur, e, nil
}

// CreateVersion opens a new version of the file for update, applying the
// §5.3 lock step: super-files require both lock fields clear and take the
// top lock; small files test only the inner lock but set the top lock.
func (s *Server) CreateVersion(fcap capability.Capability, opts CreateVersionOpts) (capability.Capability, error) {
	if err := s.checkAlive(); err != nil {
		return capability.Nil, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightCreate); err != nil {
		return capability.Nil, err
	}
	defer s.creating.enter()()
	cur, entry, err := s.currentOf(fcap.Object)
	if err != nil {
		return capability.Nil, err
	}
	superDiscipline := entry.Super && !opts.RelaxSuperLock
	if opts.RespectTopHint {
		superDiscipline = true
	}
	// Every update holds its locks under a fresh port whose liveness
	// waiters can probe; the port dies with the update or its server.
	upPort := capability.NewPort().Public()
	s.shared.Ports.Register(upPort)
	mgr := s.locks.As(upPort)
	if err := mgr.AcquireTop(cur, superDiscipline); err != nil {
		s.shared.Ports.Unregister(upPort)
		return capability.Nil, err
	}

	obj, vcap, err := s.shared.newObject()
	var tr *version.Tree
	if err == nil {
		if tr, err = version.CreateVersion(s.st, cur, vcap); err != nil {
			s.shared.Fact.Forget(obj)
		}
	}
	if err != nil {
		mgr.Clear(cur, upPort)
		s.shared.Ports.Unregister(upPort)
		return capability.Nil, err
	}
	rec := &verRec{
		cap:     vcap,
		fileObj: fcap.Object,
		tree:    tr,
		locks:   mgr,
		super:   entry.Super,
		topBase: cur,
	}
	tr.Cross = s.cross(rec)
	s.mu.Lock()
	s.versions[obj] = rec
	s.mu.Unlock()
	return vcap, nil
}

// lookup resolves and checks a version capability to this server's
// record.
func (s *Server) lookup(vcap capability.Capability, need capability.Rights) (*verRec, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	if err := s.shared.Fact.Verify(vcap, need); err != nil {
		return nil, err
	}
	s.mu.Lock()
	rec, ok := s.versions[vcap.Object]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("version object %d: %w", vcap.Object, ErrUnknownVersion)
	}
	return rec, nil
}

// cross is the §5.3 step of rec's copy-on-write passes, called the first
// time the update enters a sub-file: it inner-locks the sub-file's
// current version — lock.AcquireInner chases past versions committed
// since the super-file's tree named blk — records the lock at once, and
// forks the locked version inside the update under a version object the
// record forgets when it is reaped; a retried crossing reuses it.
func (s *Server) cross(rec *verRec) func(block.Num, *page.Page) (*page.Page, error) {
	return func(blk block.Num, _ *page.Page) (*page.Page, error) {
		cur, vp, err := rec.locks.AcquireInner(blk)
		if err != nil {
			return nil, err
		}
		if rec.crossing == nil {
			rec.crossing = make(map[block.Num]capability.Capability)
		}
		vcap := rec.crossing[cur]
		if vcap.IsNil() {
			var obj uint32
			obj, vcap, err = s.shared.newObject()
			rec.crossing[cur] = vcap // the lock is recorded even if this failed
			if err != nil {
				return nil, err
			}
			rec.minted = append(rec.minted, obj)
		}
		s.shared.Table.MarkSuper(rec.fileObj)
		return version.Fork(cur, vp, vcap)
	}
}

// withVersion runs fn on an open version under its record lock.
func (s *Server) withVersion(vcap capability.Capability, need capability.Rights, fn func(rec *verRec) error) error {
	rec, err := s.lookup(vcap, need)
	if err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != StateActive {
		return fmt.Errorf("version object %d: %w", vcap.Object, ErrVersionClosed)
	}
	return fn(rec)
}

// withFlushed is withVersion for the shape commands: they can renumber
// paths, so the version's buffered writes are applied first.
func (s *Server) withFlushed(vcap capability.Capability, need capability.Rights, fn func(rec *verRec) error) error {
	return s.withVersion(vcap, need, func(rec *verRec) error {
		if err := s.flush(rec, trace.Context{}); err != nil {
			return err
		}
		return fn(rec)
	})
}

// flush applies rec's buffered writes and records its read set in one
// batched copy-on-write pass (version.Tree.Apply) against the block store
// bound to tc; a batch that enters a sub-file — one created in this
// version, or one whose Super mark has not reached this server's table
// yet — crosses into it in the same pass, taking its inner lock (§5.3)
// here at flush time, not when the write was acknowledged. The writes and
// reads were acknowledged when buffered, so a flush that fails aborts the
// version and releases its locks; the client learns of it at the
// operation that triggered the flush, at the latest at Commit.
func (s *Server) flush(rec *verRec, tc trace.Context) error {
	if len(rec.pendPaths)+len(rec.readPaths) == 0 {
		return nil
	}
	reads, ps, datas := rec.readPaths, rec.pendPaths, rec.pendData
	rec.dropPending()
	tree := *rec.tree
	tree.St = version.NewStore(block.BindTrace(s.st.Blocks, tc), s.st.Acct)
	if err := tree.Apply(reads, ps, datas); err != nil {
		s.abort(rec)
		return fmt.Errorf("server: apply buffered reads and writes: %w", err)
	}
	return nil
}

// ReadPage reads the page at path in the version.
//
// The read looks the page up through the version's tree without
// shadowing anything and adds the path to the version's read set; its R
// and S flags (§5.1) go out with the next flush, before Commit validates
// (§5.2), so an update that aborts never writes them and the read makes
// no mutating block call. A read of a page with a buffered write flushes
// the buffer first. A read that reaches a sub-file the update has not
// entered — a super-file update's first read in it, or a plain-file
// update under a Super mark this server has not seen — crosses it in the
// same pass, taking its inner lock (§5.3) now, and records its flags at
// once.
func (s *Server) ReadPage(vcap capability.Capability, p page.Path) (data []byte, nrefs int, err error) {
	err = s.withVersion(vcap, capability.RightRead, func(rec *verRec) error {
		if rec.pending(p) {
			if err := s.flush(rec, trace.Context{}); err != nil {
				return err
			}
		}
		var recorded bool
		data, nrefs, recorded, err = rec.tree.Look(p)
		if err != nil || recorded {
			return err
		}
		rec.read(p)
		if rec.pendBytes <= flushBytes {
			return nil
		}
		return s.flush(rec, trace.Context{})
	})
	return data, nrefs, err
}

// WritePage replaces the data of the page at path in the version.
//
// A plain-file update buffers the write and sends no block traffic: an
// uncommitted version is visible to nobody and dies with this server
// anyway (§5.4.1), so its pages need not reach the block service before
// Commit. The buffer is flushed before Commit validates, before every
// shape command, before a read of a buffered page, and once it holds
// more than flushBytes. Only data no page could hold is refused here; a
// bad path, a hole, or data too large for its page's references
// surfaces at the flush and aborts the version.
//
// A super-file update writes through, in one pass that crosses any
// sub-file boundary on the path: §5.3 takes a sub-file's inner lock the
// moment the update first writes into it.
func (s *Server) WritePage(vcap capability.Capability, p page.Path, data []byte) error {
	return s.withVersion(vcap, capability.RightWrite, func(rec *verRec) error {
		if max := page.Capacity(s.st.Blocks.BlockSize(), 0, false); len(data) > max {
			return fmt.Errorf("server: %s: %d bytes, a page holds at most %d: %w", p, len(data), max, page.ErrPageFull)
		}
		if rec.super {
			return rec.tree.WritePage(p, data)
		}
		rec.buffer(p, append([]byte(nil), data...))
		if rec.pendBytes <= flushBytes {
			return nil
		}
		return s.flush(rec, trace.Context{})
	})
}

// InsertPage inserts a fresh page at index idx of the page at path.
func (s *Server) InsertPage(vcap capability.Capability, p page.Path, idx int, data []byte) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.InsertPage(p, idx, data)
	})
}

// RemovePage removes the reference at index idx of the page at path.
func (s *Server) RemovePage(vcap capability.Capability, p page.Path, idx int) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.RemovePage(p, idx)
	})
}

// MakeHole, FillHole, RemoveHole, SplitPage and MoveSubtree expose the
// remaining §5 shape commands.

// MakeHole nils the reference at idx of the page at path.
func (s *Server) MakeHole(vcap capability.Capability, p page.Path, idx int) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.MakeHole(p, idx)
	})
}

// FillHole creates a page in the hole at idx of the page at path.
func (s *Server) FillHole(vcap capability.Capability, p page.Path, idx int, data []byte) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.FillHole(p, idx, data)
	})
}

// RemoveHole removes the hole at idx of the page at path.
func (s *Server) RemoveHole(vcap capability.Capability, p page.Path, idx int) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.RemoveHole(p, idx)
	})
}

// SplitPage splits the page at path, keeping keep data bytes and moving
// the rest into a new child.
func (s *Server) SplitPage(vcap capability.Capability, p page.Path, keep int) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.SplitPage(p, keep)
	})
}

// MoveSubtree moves a subtree between two holes of the same version and
// the same file: a move across a sub-file boundary is refused
// (version.ErrSubFile).
func (s *Server) MoveSubtree(vcap capability.Capability, srcPath page.Path, srcIdx int, dstPath page.Path, dstIdx int) error {
	return s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		return rec.tree.MoveSubtree(srcPath, srcIdx, dstPath, dstIdx)
	})
}

// CreateSubFile creates a brand-new file whose birth version page is
// embedded at index idx of the page at path inside the open version,
// turning the enclosing file into a super-file. It returns the sub-file's
// owner capability.
func (s *Server) CreateSubFile(vcap capability.Capability, p page.Path, idx int, data []byte) (capability.Capability, error) {
	var fcap capability.Capability
	err := s.withFlushed(vcap, capability.RightWrite, func(rec *verRec) error {
		obj, fc, err := s.shared.newObject()
		if err != nil {
			return err
		}
		vobj, vc, err := s.shared.newObject()
		if err != nil {
			s.shared.Fact.Forget(obj)
			return err
		}
		subRoot, err := rec.tree.InsertSubFile(p, idx, fc, vc, data)
		if err != nil {
			s.shared.Fact.Forget(obj)
			s.shared.Fact.Forget(vobj)
			return err
		}
		rec.minted = append(rec.minted, vobj)
		s.shared.Table.Put(obj, file.Entry{Cap: fc, Entry: subRoot})
		s.shared.Table.MarkSuper(rec.fileObj)
		fcap = fc
		return nil
	})
	return fcap, err
}

// Commit makes the version current (§5.2), finishing sub-file commits and
// clearing locks for super-file updates (§5.3). A serialisability
// conflict aborts the version and surfaces occ.ErrConflict: the client
// must redo the update on a fresh version.
func (s *Server) Commit(vcap capability.Capability) error {
	return s.commitT(trace.Context{}, vcap)
}

// commitT is Commit bound to a trace context: on a sampled request the
// OCC engine runs under an occ-layer span against trace-bound storage,
// so the commit's storage fan-out is visible span by span.
func (s *Server) commitT(tc trace.Context, vcap capability.Capability) error {
	return s.withVersion(vcap, capability.RightCommit, func(rec *verRec) error {
		if err := s.flush(rec, tc); err != nil {
			return err
		}
		defer func(start time.Time) {
			s.com.Stat.Latency.Observe(time.Since(start))
		}(time.Now())
		err := s.com.BindTrace(tc).Commit(rec.tree)
		if errors.Is(err, occ.ErrConflict) {
			s.abort(rec)
			return err
		}
		if err != nil {
			return err
		}
		// Commit the sub-file versions created during this update and
		// clear every lock we hold in the affected region, the inner
		// locks of crossings whose pass was refused before it wrote a
		// fork included. The new root itself carries no lock: Fork
		// copies none, and the update locked only its base and the
		// sub-files it entered.
		if len(rec.crossing) > 0 || rec.super {
			committed, err := rec.locks.CommitSubFiles(rec.tree.Root, rec.locks.Port)
			if err != nil {
				return err
			}
			s.clearCrossings(rec, committed)
		}
		rec.locks.Clear(rec.topBase, rec.locks.Port)
		s.close(rec, StateCommitted)
		// The §5.4.1 table update: one CAS on the file's entry. This is
		// the client's ack point — the commit is already durable through
		// the storage-level commit reference set above, so the CAS only
		// needs to land in the local table; propagation to peer replicas
		// rides ftab's asynchronous batched streams, and late or lost
		// deliveries self-heal through the chase rule.
		s.shared.Table.CommitCAS(rec.fileObj, rec.topBase, rec.tree.Root)
		s.shared.Ports.Unregister(rec.locks.Port)
		return nil
	})
}

// Abort abandons the version: its buffered writes and read set are
// dropped, its private pages become garbage for the collector, and all
// locks are released.
func (s *Server) Abort(vcap capability.Capability) error {
	return s.withVersion(vcap, capability.RightCommit, func(rec *verRec) error {
		s.abort(rec)
		return nil
	})
}

// abort closes rec as aborted.
func (s *Server) abort(rec *verRec) {
	rec.dropPending()
	s.close(rec, StateAborted)
	s.releaseLocks(rec)
}

// close stamps rec's final state. LiveVersions reads both fields under
// s.mu, so they are written under it too (and under rec.mu, which the
// caller holds).
func (s *Server) close(rec *verRec, state VersionState) {
	s.mu.Lock()
	rec.state = state
	rec.closedAt = time.Now()
	s.mu.Unlock()
}

// releaseLocks clears the top lock and any inner locks of an update, then
// retires its lock port.
func (s *Server) releaseLocks(rec *verRec) {
	rec.locks.Clear(rec.topBase, rec.locks.Port)
	s.clearCrossings(rec, nil)
	s.shared.Ports.Unregister(rec.locks.Port)
}

// clearCrossings clears the inner locks rec took on entering sub-files,
// except on the pages in done, whose locks are already cleared.
func (s *Server) clearCrossings(rec *verRec, done []block.Num) {
	for sub := range rec.crossing {
		if !slices.Contains(done, sub) {
			rec.locks.Clear(sub, rec.locks.Port)
		}
	}
}

// CurrentVersion returns the root block of the file's current version:
// the entry point for history walks and cache validation.
func (s *Server) CurrentVersion(fcap capability.Capability) (block.Num, error) {
	if err := s.checkAlive(); err != nil {
		return block.NilNum, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightRead); err != nil {
		return block.NilNum, err
	}
	cur, _, err := s.currentOf(fcap.Object)
	return cur, err
}

// History returns the committed version chain of the file, oldest first.
func (s *Server) History(fcap capability.Capability) ([]block.Num, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightRead); err != nil {
		return nil, err
	}
	e, err := s.shared.Table.Get(fcap.Object)
	if err != nil {
		return nil, err
	}
	return occ.History(s.st, e.Entry)
}

// ReadCommitted reads a page from a committed version root without any
// access tracking: committed versions are immutable, so reads need no
// concurrency control. Used by time-travel reads and the cache layer.
func (s *Server) ReadCommitted(root block.Num, p page.Path) ([]byte, int, error) {
	if err := s.checkAlive(); err != nil {
		return nil, 0, err
	}
	tr := &version.Tree{St: s.st, Root: root}
	pg, err := tr.PeekPage(p)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), pg.Data...), len(pg.Refs), nil
}

// Snapshots lists the archived snapshots of the file, oldest first:
// the per-commit entries the archiver logged when demoting superseded
// committed versions out of the front tier. Unlike History — which
// walks the front tier's retained chain — the list survives the
// garbage collector and server restarts, as long as the archive does.
func (s *Server) Snapshots(fcap capability.Capability) ([]archive.Entry, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightRead); err != nil {
		return nil, err
	}
	if s.shared.Archive == nil {
		return nil, ErrNoArchive
	}
	return s.shared.Archive.Snapshots(fcap.Object), nil
}

// ReadSnapshot reads one page of the file as of archived snapshot seq:
// the read-only time-travel path. The page tree is read through the
// archive facade, so every block is re-hashed against its stored score
// on the way — damage surfaces as block.ErrCorrupt naming the block.
func (s *Server) ReadSnapshot(fcap capability.Capability, seq uint64, p page.Path) ([]byte, int, error) {
	if err := s.checkAlive(); err != nil {
		return nil, 0, err
	}
	if err := s.shared.Fact.Verify(fcap, capability.RightRead); err != nil {
		return nil, 0, err
	}
	arch := s.shared.Archive
	if arch == nil {
		return nil, 0, ErrNoArchive
	}
	e, ok := arch.Snapshot(fcap.Object, seq)
	if !ok {
		return nil, 0, fmt.Errorf("server: object %d snapshot %d: %w", fcap.Object, seq, archive.ErrUnknownSnapshot)
	}
	tr := &version.Tree{St: version.NewStore(arch, s.shared.Acct), Root: e.Root}
	pg, err := tr.PeekPage(p)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), pg.Data...), len(pg.Refs), nil
}

// VersionRoot exposes an open version's root block (cache layer).
func (s *Server) VersionRoot(vcap capability.Capability) (block.Num, error) {
	rec, err := s.lookup(vcap, 0)
	if err != nil {
		return block.NilNum, err
	}
	return rec.tree.Root, nil
}

// VersionBase exposes the version's base root: the committed version it
// was created from, which is what client cache entries must match.
func (s *Server) VersionBase(vcap capability.Capability) (block.Num, error) {
	rec, err := s.lookup(vcap, 0)
	if err != nil {
		return block.NilNum, err
	}
	return rec.topBase, nil
}

// Collect returns the file-service metrics collector of one service
// instance: the table size, and the OCC counters and commit latency
// summed over the instance's servers (identical bucket bounds, so
// summing the snapshots is exact).
func Collect(sh *Shared, servers func() []*Server) func(*metrics.Emitter) {
	return func(e *metrics.Emitter) {
		e.Gauge("afs_files", "Files in the table.", float64(sh.Table.Len()))
		events := []string{"commits", "fast_commits", "validations", "conflicts", "pages_compared", "merged_refs", "chain_retries"}
		total := make(map[string]uint64, len(events))
		var lat metrics.HistogramSnapshot
		for i, s := range servers() {
			st := s.OCCStats()
			for k, c := range []*atomic.Uint64{&st.Commits, &st.FastCommits, &st.Validations, &st.Conflicts, &st.PagesCompared, &st.Merged, &st.ChainRetries} {
				total[events[k]] += c.Load()
			}
			snap := st.Latency.Snapshot()
			if i == 0 {
				lat = snap
				continue
			}
			lat.Count += snap.Count
			lat.SumSeconds += snap.SumSeconds
			for j := range lat.Buckets {
				lat.Buckets[j].Count += snap.Buckets[j].Count
			}
		}
		e.Counters("afs_occ_total", "OCC commit-path events by kind.", "event", total)
		e.Histogram("afs_commit_seconds", "Commit operation latency (validation, critical section, locks, table CAS).", lat)
	}
}
