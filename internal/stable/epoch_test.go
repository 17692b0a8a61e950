package stable_test

import (
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/segstore"
	"repro/internal/stable"
)

// newMemPairStore builds an in-memory backend for a pair half.
func newMemPairStore(t *testing.T) *block.Server {
	t.Helper()
	return block.NewServer(disk.MustNew(disk.Geometry{Blocks: 1 << 10, BlockSize: 256}))
}

// TestBootTimeDivergenceDetection drives the epoch story end to end on
// durable halves: the survivor bumps its epoch when its companion dies,
// the whole pair process then dies too, and a FRESH pair over the same
// two directories — with no memory of the outage — detects by itself
// which half is stale and restores it by full copy, with no operator
// marking anything.
func TestBootTimeDivergenceDetection(t *testing.T) {
	base := t.TempDir()
	open := func(name string) *segstore.Store {
		st, err := segstore.Open(filepath.Join(base, name), segstore.Options{BlockSize: 256, Capacity: 1 << 10})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		return st
	}
	acct := block.Account(1)

	sa, sb := open("half-a"), open("half-b")
	p := stable.NewFailoverPair(sa, sb)
	if name, err := p.DetectStale(); err != nil || name != "" {
		t.Fatalf("fresh pair: stale=%q err=%v, want none", name, err)
	}
	var ns []block.Num
	n, err := p.Alloc(acct, []byte("before outage"))
	if err != nil {
		t.Fatal(err)
	}
	ns = append(ns, n)

	// Half B's machine dies; the pair keeps serving and the survivor's
	// epoch is bumped at the markdown.
	_, hb := p.Halves()
	hb.Crash()
	for i := 0; i < 3; i++ {
		n, err := p.Alloc(acct, []byte("during outage"))
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	ea, _ := sa.Epoch()
	eb, _ := sb.Epoch()
	if ea != 1 || eb != 0 {
		t.Fatalf("epochs after markdown: a=%d b=%d, want 1 and 0", ea, eb)
	}

	// The pair process dies too: no intentions record survives.
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh pair over the same directories must notice the divergence
	// itself.
	sa2, sb2 := open("half-a"), open("half-b")
	defer sa2.Close()
	defer sb2.Close()
	p2 := stable.NewFailoverPair(sa2, sb2)
	name, err := p2.DetectStale()
	if err != nil {
		t.Fatal(err)
	}
	if name != "B" {
		t.Fatalf("detected stale half %q, want B", name)
	}

	// The file service's boot-time recovery scan runs through the pair
	// (it is what tells the pair layer which accounts exist).
	if _, err := p2.Recover(acct); err != nil {
		t.Fatal(err)
	}

	// The heal loop restores B by full copy; afterwards B alone serves
	// every block, including the ones written during the outage.
	healed, err := p2.Heal()
	if err != nil {
		t.Fatalf("heal: %v", err)
	}
	if healed != 1 {
		t.Fatalf("healed %d halves, want 1", healed)
	}
	_, hb2 := p2.Halves()
	for _, n := range ns {
		if _, err := hb2.Read(acct, n); err != nil {
			t.Fatalf("block %d unreadable from restored half B: %v", n, err)
		}
	}
	ea2, _ := sa2.Epoch()
	eb2, _ := sb2.Epoch()
	if ea2 != eb2 {
		t.Fatalf("epochs not re-aligned after rejoin: a=%d b=%d", ea2, eb2)
	}
}

// TestEpochAlignsAfterTransportRejoin covers the in-memory/transport
// path: an automatic markdown (companion unreachable) bumps the
// survivor, and the rejoin levels both halves again.
func TestEpochAlignsAfterTransportRejoin(t *testing.T) {
	sa, sb := newMemPairStore(t), newMemPairStore(t)
	p := stable.NewFailoverPair(sa, sb)
	acct := block.Account(1)
	if _, err := p.Alloc(acct, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, hb := p.Halves()
	hb.Crash()
	if _, err := p.Alloc(acct, []byte("y")); err != nil {
		t.Fatal(err)
	}
	ea, _ := sa.Epoch()
	if ea != 1 {
		t.Fatalf("survivor epoch %d, want 1", ea)
	}
	if err := hb.Rejoin(); err != nil {
		t.Fatal(err)
	}
	ea, _ = sa.Epoch()
	eb, _ := sb.Epoch()
	if ea != eb {
		t.Fatalf("epochs differ after rejoin: a=%d b=%d", ea, eb)
	}
}

// TestNestedPairEpochForwarding composes a pair of pairs (RAID-10
// style) and checks the ROADMAP leftover this closes: the outer layer's
// survivor bump must reach persistent storage THROUGH the inner pairs,
// and a freshly built outer pair must detect the stale side from the
// forwarded epochs alone.
func TestNestedPairEpochForwarding(t *testing.T) {
	m1, m2 := newMemPairStore(t), newMemPairStore(t)
	m3, m4 := newMemPairStore(t), newMemPairStore(t)
	pa := stable.NewFailoverPair(m1, m2)
	pb := stable.NewFailoverPair(m3, m4)
	outer := stable.NewFailoverPair(pa, pb)
	acct := block.Account(1)

	if _, err := outer.Alloc(acct, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Outer half B (the whole second inner pair) goes down; the outer
	// survivor bump must land on BOTH backends of inner pair A.
	_, hb := outer.Halves()
	hb.Crash()
	if _, err := outer.Alloc(acct, []byte("y")); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*block.Server{m1, m2} {
		if e, _ := m.Epoch(); e != 1 {
			t.Fatalf("inner-A backend %d epoch %d, want 1", i, e)
		}
	}
	for i, m := range []*block.Server{m3, m4} {
		if e, _ := m.Epoch(); e != 0 {
			t.Fatalf("inner-B backend %d epoch %d, want 0", i, e)
		}
	}
	if e, err := pa.Epoch(); err != nil || e != 1 {
		t.Fatalf("inner pair A epoch %d err %v, want 1", e, err)
	}

	// A restarted composition over the same stores: the fresh outer
	// pair has no memory of the outage and must name B stale purely
	// from the epochs the inner pairs forward up.
	outer2 := stable.NewFailoverPair(stable.NewFailoverPair(m1, m2), stable.NewFailoverPair(m3, m4))
	name, err := outer2.DetectStale()
	if err != nil {
		t.Fatal(err)
	}
	if name != "B" {
		t.Fatalf("detected stale half %q, want B", name)
	}
}

// TestDegradedInnerPairEpoch: a pair's logical epoch is the max over
// its serving halves, so an inner pair serving on one half does not
// misreport the composition as stale.
func TestDegradedInnerPairEpoch(t *testing.T) {
	m1, m2 := newMemPairStore(t), newMemPairStore(t)
	p := stable.NewFailoverPair(m1, m2)
	if err := p.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*block.Server{m1, m2} {
		if e, _ := m.Epoch(); e != 3 {
			t.Fatalf("backend %d epoch %d, want 3", i, e)
		}
	}
	_, hb := p.Halves()
	hb.Crash()
	// The internal markdown bump raises the survivor past 3; the pair
	// reports the surviving half's view.
	e, err := p.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := m1.Epoch()
	if e != ea || e < 3 {
		t.Fatalf("degraded pair epoch %d, survivor holds %d", e, ea)
	}
}
