package block

import (
	"repro/internal/trace"
)

// TraceBinder is implemented by stores that can produce a per-request
// view bound to a trace context: operations on the view record spans
// attributed to that request's trace. The sharded facade binds each
// backend as a fan-out leg, the stable pair binds each half, the
// segstore binds its lane append+fsync, and the remote proxy attaches
// the context to its wire messages so the spans continue on the far
// machine.
//
// Binding is only done on sampled requests; the unbound store remains
// the shared, uninstrumented hot path.
type TraceBinder interface {
	BindTrace(tc trace.Context) Store
}

// BindTrace returns s bound to tc when s supports it and tc is sampled;
// otherwise s unchanged. The cheap no-op path is what keeps tracing
// free when disabled.
func BindTrace(s Store, tc trace.Context) Store {
	if !tc.Sampled() {
		return s
	}
	if b, ok := s.(TraceBinder); ok {
		return b.BindTrace(tc)
	}
	return s
}

// Traced wraps inner so every operation runs under a span (layer, with
// tag prefixed to the operation name) and — when inner supports further
// binding — continues the trace below with the span as parent. This is
// how a shard fan-out leg's span becomes the parent of the mirror-half
// and segstore spans beneath it.
func Traced(inner Store, tc trace.Context, layer, tag string) Store {
	return newTraced(inner, tc, layer, tag, true)
}

// TracedLeaf is Traced without downward rebinding: for stores whose
// internals are not trace-aware (or that would rebind to themselves).
func TracedLeaf(inner Store, tc trace.Context, layer, tag string) Store {
	return newTraced(inner, tc, layer, tag, false)
}

func newTraced(inner Store, tc trace.Context, layer, tag string, rebind bool) *traced {
	t := &traced{inner: inner, tc: tc, layer: layer, tag: tag, rebind: rebind}
	t.Scalar = Scalar{Multi: t}
	return t
}

type traced struct {
	Scalar     // a scalar call is a one-block vectored span
	inner      Store
	tc         trace.Context
	layer, tag string
	rebind     bool
}

// span opens the operation's span and resolves the store to run it on.
func (t *traced) span(op string) (*trace.Span, Store) {
	sp, ctx := t.tc.Start(t.layer, t.tag+" "+op)
	inner := t.inner
	if t.rebind {
		inner = BindTrace(inner, ctx)
	}
	return sp, inner
}

func (t *traced) BlockSize() int { return t.inner.BlockSize() }

func (t *traced) Lock(account Account, n Num) error {
	sp, st := t.span("lock")
	err := st.Lock(account, n)
	sp.End(err)
	return err
}

func (t *traced) Unlock(account Account, n Num) error {
	sp, st := t.span("unlock")
	err := st.Unlock(account, n)
	sp.End(err)
	return err
}

func (t *traced) Recover(account Account) ([]Num, error) {
	sp, st := t.span("recover")
	ns, err := st.Recover(account)
	sp.End(err)
	return ns, err
}

// The multi operations go through the package helpers, which exploit
// the bound store's MultiStore implementation when it has one and fall
// back to per-block loops otherwise — so wrapping never changes
// batching behaviour, only adds the span.

func (t *traced) ReadMulti(account Account, ns []Num) ([][]byte, error) {
	sp, st := t.span("readMulti")
	data, err := ReadMulti(st, account, ns)
	sp.End(err)
	return data, err
}

func (t *traced) WriteMulti(account Account, ns []Num, data [][]byte) error {
	sp, st := t.span("writeMulti")
	err := WriteMulti(st, account, ns, data)
	sp.End(err)
	return err
}

func (t *traced) AllocMulti(account Account, data [][]byte) ([]Num, error) {
	sp, st := t.span("allocMulti")
	ns, err := AllocMulti(st, account, data)
	sp.End(err)
	return ns, err
}

// Claim forwards the scalar companion claim, unspanned, so a bound view
// still serves a composition that claims number by number: a sharded
// facade's view, whose backends are these wrappers, under a mirror
// half's claim leg.
func (t *traced) Claim(account Account, n Num) error {
	cl, ok := t.inner.(Claimer)
	if !ok {
		return errNoClaim
	}
	return cl.Claim(account, n)
}

// ClaimMulti forwards the companion mirror leg, so a sampled request
// still reaches the native call below (one durable group) instead of
// the per-number adapter.
func (t *traced) ClaimMulti(account Account, ns []Num, data [][]byte) error {
	sp, st := t.span("claimMulti")
	err := ClaimMulti(st, account, ns, data)
	sp.End(err)
	return err
}

func (t *traced) FreeMulti(account Account, ns []Num) error {
	sp, st := t.span("freeMulti")
	err := FreeMulti(st, account, ns)
	sp.End(err)
	return err
}

var _ Store = (*traced)(nil)
var _ MultiStore = (*traced)(nil)
var _ Claimer = (*traced)(nil)
var _ ClaimMultiStore = (*traced)(nil)
