package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/page"
	"repro/internal/rpc"
)

// TestCapabilitiesSurviveRestart: an object's owner capability is stored
// with the object, so a crash and restart on the same store — a fresh
// process, a fresh minting port — keeps every capability a client holds:
// the owner capability and a restriction of it both still read, the
// restriction still conveys only its rights, and a forged check field
// still fails. A file removed before the crash stays removed, and when
// its object number is re-created the old capability is refused while
// the new one works, across one more restart.
func TestCapabilitiesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Peers: 2, Backend: Backend{Kind: "seg", Dir: dir}}
	life := func() (*Cluster, *client.Client) {
		t.Helper()
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Instances {
			if _, err := c.RecoverTableOn(i); err != nil {
				t.Fatal(err)
			}
		}
		c.FlushTables(30 * time.Second)
		return c, c.Client()
	}
	read := func(cl *client.Client, f capability.Capability) (string, error) {
		t.Helper()
		cur, err := cl.CurrentVersion(f)
		if err != nil {
			return "", err
		}
		data, _, err := cl.ReadCommitted(f, cur, page.RootPath)
		return string(data), err
	}
	refused := func(err error, status rpc.Status) bool {
		var se *rpc.StatusError
		return errors.As(err, &se) && se.Status == status
	}

	c, cl := life()
	owner, err := cl.CreateFile([]byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	gone, err := cl.CreateFile([]byte("removed"))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := capability.Restrict(owner, owner, capability.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	// A remove through the replicated table stamps the durable tombstone.
	c.Instances[0].Shared.Table.Remove(gone.Object)
	c.FlushTables(30 * time.Second)
	c.Abandon()

	c, cl = life()
	port := c.Instances[0].Shared.Fact.Port()
	if port == owner.Port {
		t.Fatal("the restarted instance mints under its old port")
	}
	for name, f := range map[string]capability.Capability{"owner": owner, "restricted": ro} {
		if got, err := read(cl, f); err != nil || got != "kept" {
			t.Fatalf("%s capability after the restart: %q, %v", name, got, err)
		}
	}
	if _, err := cl.Update(ro, client.UpdateOpts{}); !refused(err, rpc.StatusBadRights) {
		t.Fatalf("an update through the read-only capability: %v, want bad rights", err)
	}
	for _, f := range []capability.Capability{owner, ro} {
		forged := f
		forged.Check ^= 1 << 20
		if _, err := read(cl, forged); !refused(err, rpc.StatusBadCapability) {
			t.Fatalf("forged %v: %v, want bad capability", forged, err)
		}
	}
	if _, err := read(cl, gone); !refused(err, rpc.StatusBadCapability) {
		t.Fatalf("the removed file after the restart: %v, want bad capability", err)
	}
	// The removed number is the band's highest, so it comes back.
	again, err := cl.CreateFile([]byte("re-created"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Object != gone.Object {
		t.Fatalf("re-create took object %d, want the removed %d", again.Object, gone.Object)
	}
	if again.Port != port {
		t.Fatalf("re-created under port %v, want the instance's %v", again.Port, port)
	}
	v, err := cl.Update(owner, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("kept, second life")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	c.FlushTables(30 * time.Second)
	c.Abandon()

	c, cl = life()
	defer c.Close()
	if _, err := read(cl, gone); !refused(err, rpc.StatusBadCapability) {
		t.Fatalf("the removed file's capability on its re-created number: %v, want bad capability", err)
	}
	for f, want := range map[capability.Capability]string{owner: "kept, second life", ro: "kept, second life", again: "re-created"} {
		if got, err := read(cl, f); err != nil || got != want {
			t.Fatalf("%v after the second restart: %q, %v; want %q", f, got, err, want)
		}
	}
}
