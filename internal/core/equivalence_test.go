package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/ftab"
	"repro/internal/page"
	"repro/internal/rpc"
)

// tcpWire runs a cluster's processes over loopback TCP, one listener
// each, dialled the way the daemons dial.
func tcpWire(t *testing.T) wire {
	return wire{
		listen: func() (func(capability.Port, rpc.Handler), string) {
			srv, err := rpc.NewTCPServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return srv.Register, srv.Addr()
		},
		dial: TCPDialer(nil),
	}
}

// rigConfig is the benchmark rig's shape: two block shards, each an
// in-box mirrored pair of segment logs, served behind block.Serve and
// mounted behind the sharded facade by two file-service peers.
func rigConfig(dir string) Config {
	return Config{
		Peers:   2,
		Servers: 2,
		Retain:  2,
		Backend: Backend{Kind: "seg", Dir: dir, Shards: 2, Pair: true, Blocks: 1 << 12, BlockSize: 1024},
	}
}

// driveMix runs one seeded commit mix against the cluster from a single
// goroutine: every step picks a file, a page and the peer to go
// through, rewrites the page and commits; the push streams are drained
// between steps and the collector runs as a driver step, so the outcome
// depends on nothing but the seed. It returns every file's page
// contents as read back through each peer, and the tables' shape.
func driveMix(t *testing.T, c *Cluster, seed int64) (pages map[string][]byte, shape string) {
	t.Helper()
	const files, filePages, steps = 4, 3, 48
	rng := rand.New(rand.NewSource(seed))
	// Client i is homed on peer i, with the other peer as failover.
	ports := c.AllPorts()
	clients := []*client.Client{
		client.New(c.wire.dial(c.endpoints()...), ports[0], ports[1]),
		client.New(c.wire.dial(c.endpoints()...), ports[1], ports[0]),
	}

	var caps []capability.Capability
	for f := 0; f < files; f++ {
		fc, err := clients[f%2].CreateFile([]byte(fmt.Sprintf("file %d", f)))
		if err != nil {
			t.Fatal(err)
		}
		v, err := clients[f%2].Update(fc, client.UpdateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < filePages; p++ {
			if err := v.Insert(page.RootPath, p, []byte("0")); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		caps = append(caps, fc)
		c.FlushTables(30 * time.Second)
	}
	for step := 0; step < steps; step++ {
		f, p, via := rng.Intn(files), rng.Intn(filePages), rng.Intn(2)
		v, err := clients[via].Update(caps[f], client.UpdateOpts{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := v.Write(page.Path{p}, []byte(fmt.Sprintf("step %d via %d", step, via))); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := v.Commit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		c.FlushTables(30 * time.Second)
		if step%8 == 7 {
			// Every instance runs its collector; only the elected
			// sweeper's cycle does anything.
			for i, in := range c.Instances {
				if _, err := in.GC.Collect(); err != nil {
					t.Fatalf("step %d: collector %d: %v", step, i, err)
				}
			}
			c.FlushTables(30 * time.Second)
		}
	}

	pages = make(map[string][]byte)
	for f, fc := range caps {
		for via, cl := range clients {
			cur, err := cl.CurrentVersion(fc)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < filePages; p++ {
				data, _, err := cl.ReadCommitted(fc, cur, page.Path{p})
				if err != nil {
					t.Fatal(err)
				}
				pages[fmt.Sprintf("file %d page %d via %d", f, p, via)] = data
			}
		}
	}
	// The tables' shape — every object, its entry root and super flag —
	// leaves out only what each deployment draws at random: the owner
	// capabilities' ports and check fields.
	var b bytes.Buffer
	entries := c.Instances[0].Shared.Table.Entries()
	for _, obj := range c.Instances[0].Shared.Table.Objects() {
		fmt.Fprintf(&b, "%d:%d:%v ", obj, entries[obj].Entry, entries[obj].Super)
	}
	return pages, b.String()
}

// TestTransportEquivalence assembles the rig's shape twice from one
// spec — over rpc.Network and over loopback TCP — and drives both with
// the same seeded commit mix. The assembly is the same code either way
// (newCluster), so the transports must be indistinguishable: within
// each deployment the two peers' tables are byte-equal, and across the
// two the tables have the same shape and every page the same contents.
func TestTransportEquivalence(t *testing.T) {
	inproc, err := NewCluster(rigConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	overTCP, err := newCluster(rigConfig(t.TempDir()), tcpWire(t))
	if err != nil {
		t.Fatal(err)
	}
	defer overTCP.Close()

	const seed = 20
	pagesA, shapeA := driveMix(t, inproc, seed)
	pagesB, shapeB := driveMix(t, overTCP, seed)

	for name, c := range map[string]*Cluster{"in-proc": inproc, "tcp": overTCP} {
		if a, b := ftab.Fingerprint(c.Instances[0].Shared.Table), ftab.Fingerprint(c.Instances[1].Shared.Table); a != b {
			t.Errorf("%s: peers' tables diverged: %s vs %s", name, a, b)
		}
	}
	if shapeA != shapeB {
		t.Errorf("table shapes differ across transports:\n in-proc %s\n tcp     %s", shapeA, shapeB)
	}
	if len(pagesA) != len(pagesB) {
		t.Fatalf("read back %d pages in-proc, %d over tcp", len(pagesA), len(pagesB))
	}
	for k, a := range pagesA {
		if !bytes.Equal(a, pagesB[k]) {
			t.Errorf("%s: %q in-proc, %q over tcp", k, a, pagesB[k])
		}
	}
}
