package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// The benchmark's own timing decorators. One Recorder collects the spans
// of every probe of a stack; a probe is a decorator placed on a layer
// boundary (a block.Store, an rpc.Transactor, an rpc.Handler or an
// ftab.Table). No program file is edited: the probes wrap what the
// layers' public constructors take and return.

// Span is one timed call across a layer boundary.
type Span struct {
	ID    int32  `json:"id"`
	Probe int16  `json:"-"`
	Op    int32  `json:"op"` // the driver operation current when the call started
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
	// Blocks is the number of blocks a store call moved; Bytes the
	// request plus reply payload of an RPC.
	Blocks int32 `json:"blocks,omitempty"`
	Bytes  int32 `json:"bytes,omitempty"`
	Err    bool  `json:"err,omitempty"`
}

// ProbeInfo describes one probe instance: where it sits.
type ProbeInfo struct {
	// Name is the instance ("proxy/p0/s1"), Layer the budget line it is
	// charged to, Kind what sort of boundary it is within the layer.
	Name, Layer, Kind string
	// Parents lists the probes whose spans may directly contain this
	// probe's spans: the static call topology, which is what lets spans
	// from concurrent fan-out legs be nested by time containment.
	Parents []int16
	// Background marks callers that are not part of a client operation
	// (file-table push streams and the storage reads they cause); their
	// spans and everything beneath are kept out of the per-op budget.
	Background bool
}

// Recorder holds the spans of one stack. It is off until Enable: a
// disabled probe costs one atomic load.
type Recorder struct {
	on     atomic.Bool
	op     atomic.Int32
	epoch  time.Time
	probes []ProbeInfo

	mu    sync.Mutex
	spans []Span
}

// NewRecorder creates a disabled recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Register adds a probe instance and returns its id. Registration and
// linking are not safe for concurrent use: a stack registers and links
// every probe while it is built, before anything runs.
func (r *Recorder) Register(name, layer, kind string) int16 {
	r.probes = append(r.probes, ProbeInfo{Name: name, Layer: layer, Kind: kind})
	return int16(len(r.probes) - 1)
}

// Link declares that spans of child may be directly contained in spans
// of any of parents.
func (r *Recorder) Link(child int16, parents ...int16) {
	r.probes[child].Parents = append(r.probes[child].Parents, parents...)
}

// MarkBackground flags probe id as a background caller.
func (r *Recorder) MarkBackground(id int16) { r.probes[id].Background = true }

// Enable switches span recording on or off.
func (r *Recorder) Enable(on bool) { r.on.Store(on) }

// SetOp names the driver operation subsequent spans belong to.
func (r *Recorder) SetOp(op int32) { r.op.Store(op) }

// now is the recorder clock.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin starts a span; the returned start is negative when recording
// is off.
func (r *Recorder) begin() (start int64, op int32) {
	if !r.on.Load() {
		return -1, 0
	}
	return r.now(), r.op.Load()
}

// end records the span begun at start.
func (r *Recorder) end(probe int16, name string, start int64, op int32, blocks, bytes int, err error) {
	if start < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		ID: int32(len(r.spans) + 1), Probe: probe, Op: op, Name: name,
		Start: start, End: end, Blocks: int32(blocks), Bytes: int32(bytes), Err: err != nil,
	})
	r.mu.Unlock()
}

// Root records a driver-level span (an operation, a collection cycle)
// around fn and makes op the current operation for its duration.
func (r *Recorder) Root(probe int16, name string, op int32, fn func() error) error {
	r.SetOp(op)
	start, _ := r.begin()
	err := fn()
	r.end(probe, name, start, op, 0, 0, err)
	r.SetOp(0)
	return err
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// errNoSurface reports an optional operation the wrapped store lacks.
var errNoSurface = errors.New("benchmark probe: wrapped store does not implement this operation")

// StoreProbe is the full-surface block.Store decorator: every method of
// Store, MultiStore, PairStore/Claimer, EpochStore, UsageReporter and
// StatsReporter is forwarded natively, so wrapping a layer never drops
// the layers above onto block/multi.go's per-block loop adapters, and
// BindTrace passes straight through (the program's own tracer stays off,
// and if it were on it would see the unwrapped store).
type StoreProbe struct {
	inner block.Store
	multi block.MultiStore // inner's native multi surface, nil when it has none
	rec   *Recorder
	id    int16
}

// ProbeStore wraps inner as registered probe id.
func ProbeStore(rec *Recorder, id int16, inner block.Store) *StoreProbe {
	p := &StoreProbe{inner: inner, rec: rec, id: id}
	p.multi, _ = inner.(block.MultiStore)
	return p
}

var (
	_ block.MultiStore    = (*StoreProbe)(nil)
	_ block.PairStore     = (*StoreProbe)(nil)
	_ block.Claimer       = (*StoreProbe)(nil)
	_ block.EpochStore    = (*StoreProbe)(nil)
	_ block.UsageReporter = (*StoreProbe)(nil)
	_ block.StatsReporter = (*StoreProbe)(nil)
	_ block.TraceBinder   = (*StoreProbe)(nil)
)

func (p *StoreProbe) BlockSize() int { return p.inner.BlockSize() }

func (p *StoreProbe) Alloc(a block.Account, data []byte) (block.Num, error) {
	s, op := p.rec.begin()
	n, err := p.inner.Alloc(a, data)
	p.rec.end(p.id, "alloc", s, op, 1, 0, err)
	return n, err
}

func (p *StoreProbe) Free(a block.Account, n block.Num) error {
	s, op := p.rec.begin()
	err := p.inner.Free(a, n)
	p.rec.end(p.id, "free", s, op, 1, 0, err)
	return err
}

func (p *StoreProbe) Read(a block.Account, n block.Num) ([]byte, error) {
	s, op := p.rec.begin()
	d, err := p.inner.Read(a, n)
	p.rec.end(p.id, "read", s, op, 1, 0, err)
	return d, err
}

func (p *StoreProbe) Write(a block.Account, n block.Num, data []byte) error {
	s, op := p.rec.begin()
	err := p.inner.Write(a, n, data)
	p.rec.end(p.id, "write", s, op, 1, 0, err)
	return err
}

func (p *StoreProbe) Lock(a block.Account, n block.Num) error {
	s, op := p.rec.begin()
	err := p.inner.Lock(a, n)
	p.rec.end(p.id, "lock", s, op, 0, 0, err)
	return err
}

func (p *StoreProbe) Unlock(a block.Account, n block.Num) error {
	s, op := p.rec.begin()
	err := p.inner.Unlock(a, n)
	p.rec.end(p.id, "unlock", s, op, 0, 0, err)
	return err
}

func (p *StoreProbe) Recover(a block.Account) ([]block.Num, error) {
	s, op := p.rec.begin()
	ns, err := p.inner.Recover(a)
	p.rec.end(p.id, "recover", s, op, len(ns), 0, err)
	return ns, err
}

// The multi operations forward to the wrapped store's native ones; a
// wrapped store without them gets exactly the loop the layer above
// would have run against it unwrapped.

func (p *StoreProbe) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	s, op := p.rec.begin()
	var out [][]byte
	var err error
	if p.multi != nil {
		out, err = p.multi.ReadMulti(a, ns)
	} else {
		out, err = block.ReadMulti(p.inner, a, ns)
	}
	p.rec.end(p.id, "readMulti", s, op, len(ns), 0, err)
	return out, err
}

func (p *StoreProbe) WriteMulti(a block.Account, ns []block.Num, data [][]byte) error {
	s, op := p.rec.begin()
	var err error
	if p.multi != nil {
		err = p.multi.WriteMulti(a, ns, data)
	} else {
		err = block.WriteMulti(p.inner, a, ns, data)
	}
	p.rec.end(p.id, "writeMulti", s, op, len(ns), 0, err)
	return err
}

func (p *StoreProbe) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	s, op := p.rec.begin()
	var ns []block.Num
	var err error
	if p.multi != nil {
		ns, err = p.multi.AllocMulti(a, data)
	} else {
		ns, err = block.AllocMulti(p.inner, a, data)
	}
	p.rec.end(p.id, "allocMulti", s, op, len(data), 0, err)
	return ns, err
}

func (p *StoreProbe) FreeMulti(a block.Account, ns []block.Num) error {
	s, op := p.rec.begin()
	var err error
	if p.multi != nil {
		err = p.multi.FreeMulti(a, ns)
	} else {
		err = block.FreeMulti(p.inner, a, ns)
	}
	p.rec.end(p.id, "freeMulti", s, op, len(ns), 0, err)
	return err
}

func (p *StoreProbe) Claim(a block.Account, n block.Num) error {
	cl, ok := p.inner.(block.Claimer)
	if !ok {
		return errNoSurface
	}
	s, op := p.rec.begin()
	err := cl.Claim(a, n)
	p.rec.end(p.id, "claim", s, op, 1, 0, err)
	return err
}

func (p *StoreProbe) ClearLocks() {
	if cl, ok := p.inner.(interface{ ClearLocks() }); ok {
		cl.ClearLocks()
	}
}

func (p *StoreProbe) Epoch() (uint64, error) {
	es, ok := p.inner.(block.EpochStore)
	if !ok {
		return 0, errNoSurface
	}
	return es.Epoch()
}

func (p *StoreProbe) SetEpoch(e uint64) error {
	es, ok := p.inner.(block.EpochStore)
	if !ok {
		return errNoSurface
	}
	return es.SetEpoch(e)
}

func (p *StoreProbe) Usage() (block.Usage, error) {
	ur, ok := p.inner.(block.UsageReporter)
	if !ok {
		return block.Usage{}, errNoSurface
	}
	return ur.Usage()
}

func (p *StoreProbe) BlockStats() (block.Stats, error) {
	sr, ok := p.inner.(block.StatsReporter)
	if !ok {
		return block.Stats{}, errNoSurface
	}
	return sr.BlockStats()
}

func (p *StoreProbe) BindTrace(tc trace.Context) block.Store {
	return block.BindTrace(p.inner, tc)
}

// TransactorProbe times the caller side of an RPC hop.
type TransactorProbe struct {
	inner rpc.Transactor
	name  func(uint32) string
	rec   *Recorder
	id    int16
}

// ProbeTransactor wraps inner as registered probe id; name renders a
// command for span names.
func ProbeTransactor(rec *Recorder, id int16, inner rpc.Transactor, name func(uint32) string) *TransactorProbe {
	return &TransactorProbe{inner: inner, name: name, rec: rec, id: id}
}

func (p *TransactorProbe) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	s, op := p.rec.begin()
	resp, err := p.inner.Transact(port, req)
	if s >= 0 {
		bytes := len(req.Data)
		if resp != nil {
			bytes += len(resp.Data)
		}
		p.rec.end(p.id, p.name(req.Command), s, op, 0, bytes, err)
	}
	return resp, err
}

// ProbeHandler times the callee side of an RPC hop as registered probe id.
func ProbeHandler(rec *Recorder, id int16, inner rpc.Handler, name func(uint32) string) rpc.Handler {
	return func(req *rpc.Message) *rpc.Message {
		s, op := rec.begin()
		resp := inner(req)
		if s >= 0 {
			bytes := len(req.Data)
			var err error
			if resp != nil {
				bytes += len(resp.Data)
				err = resp.Err()
			}
			rec.end(id, name(req.Command), s, op, 0, bytes, err)
		}
		return resp
	}
}

// TableProbe times the file-table calls the servers and the collector
// make on server.Shared.Table.
type TableProbe struct {
	inner ftab.Table
	rec   *Recorder
	id    int16
}

// ProbeTable wraps inner as registered probe id.
func ProbeTable(rec *Recorder, id int16, inner ftab.Table) *TableProbe {
	return &TableProbe{inner: inner, rec: rec, id: id}
}

var _ ftab.Table = (*TableProbe)(nil)

func (p *TableProbe) Get(object uint32) (file.Entry, error) {
	s, op := p.rec.begin()
	e, err := p.inner.Get(object)
	p.rec.end(p.id, "get", s, op, 0, 0, err)
	return e, err
}

func (p *TableProbe) Put(object uint32, e file.Entry) {
	s, op := p.rec.begin()
	p.inner.Put(object, e)
	p.rec.end(p.id, "put", s, op, 0, 0, nil)
}

func (p *TableProbe) Advance(object uint32, committed block.Num) {
	s, op := p.rec.begin()
	p.inner.Advance(object, committed)
	p.rec.end(p.id, "advance", s, op, 0, 0, nil)
}

func (p *TableProbe) Retire(object uint32, committed block.Num) {
	s, op := p.rec.begin()
	p.inner.Retire(object, committed)
	p.rec.end(p.id, "retire", s, op, 0, 0, nil)
}

func (p *TableProbe) CommitCAS(object uint32, expect, next block.Num) block.Num {
	s, op := p.rec.begin()
	got := p.inner.CommitCAS(object, expect, next)
	p.rec.end(p.id, "commitCAS", s, op, 0, 0, nil)
	return got
}

func (p *TableProbe) MarkSuper(object uint32) {
	s, op := p.rec.begin()
	p.inner.MarkSuper(object)
	p.rec.end(p.id, "markSuper", s, op, 0, 0, nil)
}

func (p *TableProbe) Remove(object uint32) {
	s, op := p.rec.begin()
	p.inner.Remove(object)
	p.rec.end(p.id, "remove", s, op, 0, 0, nil)
}

func (p *TableProbe) Objects() []uint32 {
	s, op := p.rec.begin()
	out := p.inner.Objects()
	p.rec.end(p.id, "objects", s, op, 0, 0, nil)
	return out
}

func (p *TableProbe) Len() int { return p.inner.Len() }

func (p *TableProbe) Entries() map[uint32]file.Entry {
	s, op := p.rec.begin()
	out := p.inner.Entries()
	p.rec.end(p.id, "entries", s, op, 0, 0, nil)
	return out
}
