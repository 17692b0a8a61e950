package core

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/rpc"
	"repro/internal/stable"
)

// TestMountRestoresHalfThatMissedWrites: no operator marks anything
// stale. Half B is unreachable while a previous mount of the pair runs
// degraded and takes writes, frees and allocations; that mount then
// dies with its intentions record. A fresh Mount over both halves must
// find B stale by its lower epoch, and a heal pass must restore it by
// full copy, block for block equal to A. The seg halves also reboot
// between the mounts, so their epochs must survive on disk.
func TestMountRestoresHalfThatMissedWrites(t *testing.T) {
	for _, kind := range []string{"mem", "seg"} {
		t.Run(kind, func(t *testing.T) {
			base := t.TempDir()
			net := rpc.NewNetwork()
			dial := func(...Endpoint) rpc.Transactor { return net }
			eps := []Endpoint{{Port: capability.NewPort().Public()}, {Port: capability.NewPort().Public()}}
			opened := make([]*Storage, 2)
			boot := func(i int) {
				st, err := OpenBackend(Backend{Kind: kind, Dir: filepath.Join(base, string(rune('a'+i))), Blocks: 256, BlockSize: 256})
				if err != nil {
					t.Fatal(err)
				}
				opened[i] = st
				if err := net.Register("", eps[i].Port, block.Serve(st.Stores[0])); err != nil {
					t.Fatal(err)
				}
			}
			boot(0)
			boot(1)
			t.Cleanup(func() { opened[0].Close(); opened[1].Close() })
			mount := func() *stable.Pair {
				_, pairs, err := Mount([][]Endpoint{eps}, dial, nil)
				if err != nil {
					t.Fatal(err)
				}
				return pairs[0]
			}
			const acct = block.Account(1)
			alloc := func(p *stable.Pair, data string) block.Num {
				n, err := p.Alloc(acct, []byte(data))
				if err != nil {
					t.Fatal(err)
				}
				return n
			}

			// Both halves up: three blocks land on both.
			p := mount()
			keep, gone, rewrite := alloc(p, "keep"), alloc(p, "gone"), alloc(p, "old")

			// B is unreachable; a new mount comes up degraded and runs
			// a while, then dies.
			net.Unregister(eps[1].Port)
			p = mount()
			if _, hb := p.Halves(); !hb.Down() {
				t.Fatal("unreachable half B mounted up")
			}
			if err := p.Write(acct, rewrite, []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := p.Free(acct, gone); err != nil {
				t.Fatal(err)
			}
			added := alloc(p, "added")

			if kind == "seg" {
				net.Unregister(eps[0].Port)
				for i := range opened {
					if err := opened[i].Close(); err != nil {
						t.Fatal(err)
					}
					boot(i)
				}
			} else {
				if err := net.Register("", eps[1].Port, block.Serve(opened[1].Stores[0])); err != nil {
					t.Fatal(err)
				}
			}

			// Both reachable again: the mount alone must spot B.
			p = mount()
			if _, hb := p.Halves(); !hb.Down() {
				t.Fatal("half B that missed writes mounted up, not stale")
			}
			// The file server's recovery scan runs through the pair and
			// announces the account the full copy walks.
			if _, err := p.Recover(acct); err != nil {
				t.Fatal(err)
			}
			Heal([]*stable.Pair{p}, nil)
			if _, hb := p.Halves(); hb.Down() {
				t.Fatal("heal pass left half B down")
			}

			a, b := opened[0].Stores[0], opened[1].Stores[0]
			nsA, err := a.Recover(acct)
			if err != nil {
				t.Fatal(err)
			}
			nsB, err := b.Recover(acct)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(nsA)
			slices.Sort(nsB)
			if !slices.Equal(nsA, nsB) {
				t.Fatalf("blocks of A %v, of B %v after heal", nsA, nsB)
			}
			if want := []block.Num{keep, rewrite, added}; !slices.Equal(nsA, slices.Sorted(slices.Values(want))) {
				t.Fatalf("blocks of A %v, want %v", nsA, want)
			}
			da, err := block.ReadMulti(a, acct, nsA)
			if err != nil {
				t.Fatal(err)
			}
			db, err := block.ReadMulti(b, acct, nsB)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range nsA {
				if !bytes.Equal(da[i], db[i]) {
					t.Errorf("block %d: A %q, B %q", n, da[i][:8], db[i][:8])
				}
			}
		})
	}
}
