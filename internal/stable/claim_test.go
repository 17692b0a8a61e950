package stable_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/blocktest"
	"repro/internal/disk"
	"repro/internal/segstore"
	"repro/internal/shard"
	"repro/internal/stable"
)

// segPair is a pair over two segment logs with the lane count pinned,
// so fsync counts do not depend on the host's CPUs, and segments large
// enough that no rotation adds a sync.
func segPair(t *testing.T, lanes int) (*stable.Pair, [2]*segstore.Store) {
	t.Helper()
	var segs [2]*segstore.Store
	for i := range segs {
		seg, err := segstore.Open(t.TempDir(), segstore.Options{
			BlockSize: 256, Capacity: 512, SegmentRecords: 1024, LogShards: lanes,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
		segs[i] = seg
	}
	return stable.NewFailoverPair(segs[0], segs[1]), segs
}

// payloads returns n distinct payloads.
func payloads(n int, tag string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s-%d", tag, i))
	}
	return out
}

// requireHolds checks that seg holds data[i] in ns[i] for account 1.
func requireHolds(t *testing.T, what string, seg *segstore.Store, ns []block.Num, data [][]byte) {
	t.Helper()
	got, err := seg.ReadMulti(1, ns)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range ns {
		if !bytes.HasPrefix(got[i], data[i]) {
			t.Fatalf("%s: block %d = %q, want %q", what, ns[i], got[i][:len(data[i])], data[i])
		}
	}
}

// TestCompanionAllocMultiIsOneGroupPerLane: the companion's leg of a
// 65-block AllocMulti is one durable group per log lane — at most one
// fsync per lane — and leaves the companion holding every payload.
func TestCompanionAllocMultiIsOneGroupPerLane(t *testing.T) {
	p, segs := segPair(t, 2)
	data := payloads(65, "alloc")
	before := segs[1].Stats().Syncs
	ns, err := p.AllocMulti(1, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, lanes := segs[1].Stats().Syncs-before, segs[1].Lanes(); got > uint64(lanes) {
		t.Fatalf("companion made %d fsyncs for one %d-block AllocMulti, want <= %d (its lanes)", got, len(ns), lanes)
	}
	requireHolds(t, "companion", segs[1], ns, data)
	requireHolds(t, "serving half", segs[0], ns, data)
}

// TestRejoinReplaysOutageAllocsInOneGroupPerLane: a rejoin that replays
// 65 allocations made during the outage claims them with their data in
// one call — at most 2 x lanes + 2 fsyncs on the rejoining half.
func TestRejoinReplaysOutageAllocsInOneGroupPerLane(t *testing.T) {
	p, segs := segPair(t, 2)
	_, b := p.Halves()
	b.Crash()
	data := payloads(65, "outage")
	ns, err := p.AllocMulti(1, data)
	if err != nil {
		t.Fatal(err)
	}
	before := segs[1].Stats().Syncs
	if err := b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if got, limit := segs[1].Stats().Syncs-before, 2*segs[1].Lanes()+2; got > uint64(limit) {
		t.Fatalf("rejoin replaying %d allocations made %d fsyncs on the rejoining half, want <= %d", len(ns), got, limit)
	}
	requireHolds(t, "rejoined half", segs[1], ns, data)
}

// TestCompanionClaimRefusedMidVector: a number the companion already
// holds, in the middle of an AllocMulti's vector, is the §4 allocate
// collision — reported as ErrCollision at its index, with nothing of
// the vector left allocated on either half — over every backend mix.
func TestCompanionClaimRefusedMidVector(t *testing.T) {
	for _, mix := range mixes {
		t.Run(mix[0]+"+"+mix[1], func(t *testing.T) {
			_, dut := newPairDut(t, mix[0], mix[1], 64, 128)
			a, _ := dut.pair.Halves()
			// A fresh store allocates from block 1 up, so the serving
			// half picks 1, 2, 3; the companion already holds 2.
			if err := dut.stores[1].Claim(7, 2); err != nil {
				t.Fatal(err)
			}
			_, err := a.AllocMulti(1, payloads(3, "v"))
			if !errors.Is(err, block.ErrCollision) {
				t.Fatalf("AllocMulti over a taken companion number: err %v, want ErrCollision", err)
			}
			if at := block.MultiIndex(err, -1); at != 1 {
				t.Fatalf("collision reported at index %d, want 1 (%v)", at, err)
			}
			for i, st := range dut.stores {
				if ns, err := st.Recover(1); err != nil || len(ns) != 0 {
					t.Fatalf("half %d holds %v (%v) of the refused vector", i, ns, err)
				}
			}
			if ns, err := dut.stores[1].Recover(7); err != nil || len(ns) != 1 {
				t.Fatalf("the companion's own block: %v, %v", ns, err)
			}
		})
	}
}

// TestPairClaimMulti runs the claim suite through the pair front, which
// claims number by number on both halves (the adapter path), over every
// backend mix.
func TestPairClaimMulti(t *testing.T) {
	for _, mix := range mixes {
		_, dut := newPairDut(t, mix[0], mix[1], 64, 128)
		blocktest.ClaimSuite(t, "pair-"+mix[0]+"+"+mix[1], dut.pair, blocktest.ClaimOpts{Capacity: 64, Big: 16})
	}
}

// TestPairOverShardsUnderTrace: a pair whose halves are sharded facades
// mirrors an AllocMulti under a sampled trace — the companion's claim
// leg runs on the facade's trace-bound view, whose backends are span
// wrappers, and still reaches every shard.
func TestPairOverShardsUnderTrace(t *testing.T) {
	var halves [2]*shard.Store
	for i := range halves {
		var backends []block.Store
		for range 2 {
			backends = append(backends, block.NewServer(disk.MustNew(disk.Geometry{Blocks: 65, BlockSize: 128})))
		}
		st, err := shard.New(backends...)
		if err != nil {
			t.Fatal(err)
		}
		halves[i] = st
	}
	p := stable.NewFailoverPair(halves[0], halves[1])
	data := payloads(8, "sharded")
	ns, err := blocktest.TraceBound(t, p).AllocMulti(1, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range halves {
		got, err := h.ReadMulti(1, ns)
		if err != nil {
			t.Fatalf("half %d: %v", i, err)
		}
		for j := range ns {
			if !bytes.HasPrefix(got[j], data[j]) {
				t.Fatalf("half %d block %d = %q, want %q", i, ns[j], got[j][:len(data[j])], data[j])
			}
		}
	}
}
