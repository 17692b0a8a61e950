package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/occ"
	"repro/internal/page"
)

// TestPeersClusterEndToEnd drives the multi-instance cluster: two
// service instances ("machines") over one store with replicated file
// tables. A file created through instance 0 must be updatable through
// instance 1 — same capability, different machine — and commits from
// either side must land on one storage chain and one converged table.
func TestPeersClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Peers: 2, Servers: 2, Backend: Backend{Blocks: 1 << 14, BlockSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Instances) != 2 || c.Instances[0].Table == nil || c.Instances[1].Table == nil {
		t.Fatalf("want 2 instances with replicated tables, got %d", len(c.Instances))
	}
	// Each instance mints under its own port: nothing is agreed at boot.
	if a, b := c.Instances[0].Shared.Fact.Port(), c.Instances[1].Shared.Fact.Port(); a == b {
		t.Fatalf("both instances mint under port %v", a)
	}

	ports := c.AllPorts()
	cli0 := client.New(c.Net, ports[0], ports[1]) // prefers instance 0's server
	cli1 := client.New(c.Net, ports[1], ports[0]) // prefers instance 1's server

	fcap, err := cli0.CreateFile([]byte("created on machine 0"))
	if err != nil {
		t.Fatal(err)
	}
	// The create is acknowledged before it propagates; drain the async
	// push streams so instance 1 holds the entry.
	c.FlushTables(30 * time.Second)
	// Update through the OTHER machine: the replicated entry finds the
	// file, and its owner capability makes the capability verify there.
	v, err := cli1.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatalf("update via instance 1: %v", err)
	}
	got, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "created on machine 0" {
		t.Fatalf("read %q via instance 1", got)
	}
	if err := v.Write(page.RootPath, []byte("updated on machine 1")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	// And back: machine 0 serves the committed data.
	v0, err := cli0.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = v0.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	v0.Abort()
	if string(got) != "updated on machine 1" {
		t.Fatalf("instance 0 read %q", got)
	}
	c.FlushTables(30 * time.Second)
	if a, b := ftab.Fingerprint(c.Instances[0].Shared.Table), ftab.Fingerprint(c.Instances[1].Shared.Table); a != b {
		t.Fatalf("tables diverged: %s vs %s", a, b)
	}
}

// TestPeersVersionLostRedo: an update opened on a server that dies is
// redone against the surviving instance, signalled by ErrVersionLost
// (which wraps occ.ErrConflict so existing redo loops just work).
func TestPeersVersionLostRedo(t *testing.T) {
	c, err := NewCluster(Config{Peers: 2, Servers: 2, Backend: Backend{Blocks: 1 << 14, BlockSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	cli := c.Client()
	fcap, err := cli.CreateFile([]byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	c.FlushTables(30 * time.Second)
	v, err := cli.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// The serving server (instance 0) dies before the commit.
	c.CrashServer(0)
	err = v.Commit()
	if !errors.Is(err, client.ErrVersionLost) {
		t.Fatalf("want ErrVersionLost, got %v", err)
	}
	if !errors.Is(err, occ.ErrConflict) {
		t.Fatalf("ErrVersionLost must classify as a conflict for redo loops, got %v", err)
	}
	// Redo on the survivor: same capability, the peer instance.
	v2, err := cli.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatalf("redo update after failover: %v", err)
	}
	if err := v2.Write(page.RootPath, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Commit(); err != nil {
		t.Fatal(err)
	}
	v3, err := cli.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v3.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	v3.Abort()
	if string(got) != "redone" {
		t.Fatalf("read %q after redo", got)
	}
}

// TestAdoptTableIdempotent: two service instances racing the recovery
// scan over the same store adopt once — adoption is guarded, so the
// second adopter keeps what replication already gave it — and the
// adopted capability is the one the file was created with.
func TestAdoptTableIdempotent(t *testing.T) {
	// A store with one file from a previous life.
	seedCluster, err := NewCluster(Config{Servers: 1, Backend: Backend{Blocks: 1 << 14, BlockSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	seedCli := seedCluster.Client()
	survivor, err := seedCli.CreateFile([]byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	store := seedCluster.Instances[0].Shared.Store

	// A fresh two-instance service over the same store.
	c, err := NewCluster(Config{Peers: 2, Servers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	caps0, err := c.RecoverTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(caps0) != 1 || caps0[survivor.Object] != survivor {
		t.Fatalf("first adopter recovered %v, want %v", caps0, survivor)
	}
	c.FlushTables(30 * time.Second)
	// The second instance runs the same recovery; replication already
	// delivered the entry, so it must adopt nothing new.
	caps1, err := c.RecoverTableOn(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps1) != 0 {
		t.Fatalf("second adopter adopted %d files, want 0 (idempotent adoption)", len(caps1))
	}
	c.FlushTables(30 * time.Second)
	if a, b := ftab.Fingerprint(c.Instances[0].Shared.Table), ftab.Fingerprint(c.Instances[1].Shared.Table); a != b {
		t.Fatalf("tables diverged after racing adoption: %s vs %s", a, b)
	}
	// Repeating the first adoption is also a no-op.
	caps2, err := c.RecoverTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(caps2) != 0 {
		t.Fatalf("repeated adoption adopted %d files, want 0", len(caps2))
	}
}

// TestCollectorElectionAndPeerPins runs the deployed collector wiring
// in-proc — the sweep-leader gate and the peer-pin callback that only
// afs-server used to assemble. The non-leader's collector must stand
// by; the leader's must pin the version a client holds open on the
// OTHER instance (its uncommitted pages are garbage to any root the
// leader can see locally), and must skip the cycle outright when that
// instance cannot be asked.
func TestCollectorElectionAndPeerPins(t *testing.T) {
	c, err := NewCluster(Config{Peers: 2, Servers: 2, Retain: 1, Backend: Backend{Blocks: 1 << 14, BlockSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	ports := c.AllPorts()
	cli0 := client.New(c.Net, ports[0])
	cli1 := client.New(c.Net, ports[1]) // instance 1's server only

	fcap, err := cli0.CreateFile([]byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		v, err := cli0.Update(fcap, client.UpdateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Write(page.RootPath, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushTables(30 * time.Second)

	// An update open on instance 1, with an uncommitted page of its own.
	open, err := cli1.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := open.Insert(page.RootPath, 0, []byte("held open across two sweeps")); err != nil {
		t.Fatal(err)
	}

	// The non-leader stands by: its gate refuses before anything is
	// scanned, however much garbage there is.
	rep, err := c.Instances[1].GC.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 || rep.Retired != 0 || rep.Freed != 0 {
		t.Fatalf("non-leader collector ran a cycle: %+v", rep)
	}

	// The leader sweeps — twice, so condemned blocks are actually freed
	// — and retires the old versions, with the peer's open version among
	// its roots.
	var swept gc.Report
	for i := 0; i < 2; i++ {
		if swept, err = c.GC.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if swept.Scanned == 0 || swept.Freed == 0 {
		t.Fatalf("leader's collector did not sweep: %+v", swept)
	}
	own := len(c.Instances[0].live())
	if err := open.Commit(); err != nil {
		t.Fatalf("commit of the version the leader had to pin: %v", err)
	}
	c.FlushTables(30 * time.Second)
	cur, err := cli0.CurrentVersion(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if data, _, err := cli0.ReadCommitted(fcap, cur, page.Path{0}); err != nil || string(data) != "held open across two sweeps" {
		t.Fatalf("pinned page after two sweeps: %q, %v", data, err)
	}
	if own != 0 {
		t.Fatalf("instance 0 had %d open versions of its own; the pin must have come from the peer", own)
	}

	// Fail closed: with instance 1's table replica unreachable its open
	// versions cannot be pinned, so the leader skips the cycle.
	c.Net.Crash(ftab.PortFor(1).String())
	if rep, err = c.GC.Collect(); err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 {
		t.Fatalf("leader swept without the peer's pins: %+v", rep)
	}
}
