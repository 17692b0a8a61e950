package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/server"
)

// service spins up a file service with n server processes on an
// in-process network.
type service struct {
	net     *rpc.Network
	shared  *server.Shared
	servers []*server.Server
}

func newTestService(t *testing.T, n int) (*service, *Client) {
	t.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 1 << 14, BlockSize: 1024})
	sh := server.NewShared(block.NewServer(d), 1)
	net := rpc.NewNetwork()
	svc := &service{net: net, shared: sh}
	var ports []capability.Port
	for i := 0; i < n; i++ {
		s := server.New(sh, nil)
		s.LockManager().Poll = 50 * time.Microsecond
		s.LockManager().Patience = 200 * time.Millisecond
		if err := net.Register(fmt.Sprintf("srv%d", i), s.Port(), s.Handler()); err != nil {
			t.Fatal(err)
		}
		svc.servers = append(svc.servers, s)
		ports = append(ports, s.Port())
	}
	return svc, New(net, ports...)
}

// crash takes server i down: process state gone, port dead.
func (svc *service) crash(i int) {
	svc.servers[i].Crash()
	svc.net.Crash(fmt.Sprintf("srv%d", i))
}

func TestClientEndToEnd(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, err := c.CreateFile([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, nrefs, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || nrefs != 0 {
		t.Fatalf("read %q/%d", data, nrefs)
	}
	if err := v.Insert(page.RootPath, 0, []byte("child")); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("hello2")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}

	v2, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ = v2.Read(page.Path{0})
	if string(data) != "child" {
		t.Fatalf("child read %q", data)
	}
	if err := v2.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestClientShapeCommands(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, _ := c.CreateFile([]byte("headtail"))
	v, _ := c.Update(fcap, UpdateOpts{})
	if err := v.Split(page.RootPath, 4); err != nil {
		t.Fatal(err)
	}
	if err := v.Insert(page.RootPath, 1, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if err := v.MakeHole(page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.FillHole(page.RootPath, 1, []byte("refill")); err != nil {
		t.Fatal(err)
	}
	if err := v.MakeHole(page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	// Move the tail page into the hole at index 1.
	if err := v.Move(page.RootPath, 0, page.RootPath, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.RemoveHole(page.RootPath, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	v2, _ := c.Update(fcap, UpdateOpts{})
	data, _, err := v2.Read(page.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "tail" {
		t.Fatalf("after shape ops, {0} = %q", data)
	}
}

func TestClientConflictAndRedo(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, _ := c.CreateFile(nil)
	setup, _ := c.Update(fcap, UpdateOpts{})
	setup.Insert(page.RootPath, 0, []byte("a"))
	setup.Insert(page.RootPath, 1, []byte("b"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	v1, _ := c.Update(fcap, UpdateOpts{})
	v2, _ := c.Update(fcap, UpdateOpts{})
	if _, _, err := v1.Read(page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := v1.Write(page.Path{1}, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Write(page.Path{0}, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Commit(); err != nil {
		t.Fatal(err)
	}
	err := v1.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want conflict", err)
	}
	// Redo pattern.
	v3, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v3.Read(page.Path{0}); err != nil {
		t.Fatal(err)
	}
	if err := v3.Write(page.Path{1}, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if err := v3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestClientFailover(t *testing.T) {
	svc, c := newTestService(t, 3)
	fcap, err := c.CreateFile([]byte("replicated service"))
	if err != nil {
		t.Fatal(err)
	}
	// Take down the first two servers; the client fails over.
	svc.crash(0)
	svc.crash(1)
	v, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatalf("update after crashes: %v", err)
	}
	data, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "replicated service" {
		t.Fatalf("read %q", data)
	}
	if err := v.Write(page.RootPath, []byte("survived")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("failover not recorded")
	}
	// All down: ErrNoServers.
	svc.crash(2)
	if _, err := c.Update(fcap, UpdateOpts{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

func TestClientRedoAfterServerCrashMidUpdate(t *testing.T) {
	svc, c := newTestService(t, 2)
	fcap, _ := c.CreateFile([]byte("v0"))
	v, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	lost := []byte("lost with its server")
	if err := v.Write(page.RootPath, lost); err != nil {
		t.Fatal(err)
	}
	// The managing server dies before commit: the uncommitted version
	// is gone; the file is consistent; the client redoes the update on
	// the surviving server. No rollback anywhere.
	svc.crash(0)
	if err := v.Commit(); !errors.Is(err, ErrVersionLost) {
		t.Fatalf("commit of version lost in crash: %v, want ErrVersionLost", err)
	}
	// The write waited in the dead server's buffer: no block holds it.
	nums, err := svc.shared.Store.Recover(svc.shared.Acct)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nums {
		if raw, err := svc.shared.Store.Read(svc.shared.Acct, n); err != nil || bytes.Contains(raw, lost) {
			t.Fatalf("block %d after the crash: holds the lost write or unreadable (%v)", n, err)
		}
	}
	redo, err := c.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := redo.Read(page.RootPath)
	if string(data) != "v0" {
		t.Fatalf("file inconsistent after crash: %q", data)
	}
	if err := redo.Write(page.RootPath, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if err := redo.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestClientCacheAvoidsDataTransfer(t *testing.T) {
	_, c := newTestService(t, 1)
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	fcap, _ := c.CreateFile(payload)

	v1, _ := c.Update(fcap, UpdateOpts{})
	if _, _, err := v1.Read(page.RootPath); err != nil {
		t.Fatal(err)
	}
	if err := v1.Abort(); err != nil {
		t.Fatal(err)
	}
	fetched := c.Stats().BytesFetched

	// Second update of the unshared file: validation is a null op and
	// the read is served from cache (flags-only round trip).
	v2, _ := c.Update(fcap, UpdateOpts{})
	data, _, err := v2.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(payload) || data[100] != payload[100] {
		t.Fatal("cached read returned wrong data")
	}
	st := c.Stats()
	if st.BytesFetched != fetched {
		t.Fatalf("cache hit still fetched %d bytes", st.BytesFetched-fetched)
	}
	if st.BytesSaved == 0 {
		t.Fatal("no bytes saved recorded")
	}
	cst := c.Cache.Stats()
	if cst.NullValidations == 0 {
		t.Fatal("unshared file validation was not a null op")
	}
}

func TestClientCacheInvalidatedBySharedWriter(t *testing.T) {
	_, c := newTestService(t, 1)
	other := New(c.tr, c.ports...) // a second client sharing the file
	fcap, _ := c.CreateFile(nil)
	setup, _ := c.Update(fcap, UpdateOpts{})
	setup.Insert(page.RootPath, 0, []byte("stable"))
	setup.Insert(page.RootPath, 1, []byte("volatile-1"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// Fill our cache.
	v, _ := c.Update(fcap, UpdateOpts{})
	v.Read(page.Path{0})
	v.Read(page.Path{1})
	v.Abort()

	// The other client rewrites page 1.
	ov, err := other.Update(fcap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Write(page.Path{1}, []byte("volatile-2")); err != nil {
		t.Fatal(err)
	}
	if err := ov.Commit(); err != nil {
		t.Fatal(err)
	}

	// Our next update validates: page 1 must be discarded, page 0 kept.
	v2, _ := c.Update(fcap, UpdateOpts{})
	d1, _, err := v2.Read(page.Path{1})
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != "volatile-2" {
		t.Fatalf("stale cache served: %q", d1)
	}
	d0, _, _ := v2.Read(page.Path{0})
	if string(d0) != "stable" {
		t.Fatalf("page 0 = %q", d0)
	}
	if c.Cache.Stats().Discards == 0 {
		t.Fatal("validation discarded nothing")
	}
}

func TestClientReadsOwnWrites(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, _ := c.CreateFile([]byte("orig"))
	v, _ := c.Update(fcap, UpdateOpts{})
	if err := v.Write(page.RootPath, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().Transactions
	data, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "mine" {
		t.Fatalf("own write read back %q", data)
	}
	if c.Stats().Transactions != before {
		t.Fatal("read-your-own-write went to the server")
	}
}

func TestClientHistoryAndTimeTravel(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, _ := c.CreateFile([]byte("rev0"))
	for i := 1; i <= 2; i++ {
		v, _ := c.Update(fcap, UpdateOpts{})
		v.Write(page.RootPath, []byte(fmt.Sprintf("rev%d", i)))
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := c.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history %v", hist)
	}
	for i, root := range hist {
		data, _, err := c.ReadCommitted(fcap, root, page.RootPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fmt.Sprintf("rev%d", i) {
			t.Fatalf("rev %d = %q", i, data)
		}
	}
	cur, err := c.CurrentVersion(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if cur != hist[len(hist)-1] {
		t.Fatal("current != last history entry")
	}
}

func TestClientSubFiles(t *testing.T) {
	_, c := newTestService(t, 1)
	fcap, _ := c.CreateFile([]byte("super"))
	v, _ := c.Update(fcap, UpdateOpts{})
	subCap, err := v.CreateSubFile(page.RootPath, 0, []byte("sub v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	// The sub-file is independently updatable.
	sv, err := c.Update(subCap, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := sv.Read(page.RootPath)
	if string(data) != "sub v1" {
		t.Fatalf("sub read %q", data)
	}
	if err := sv.Write(page.RootPath, []byte("sub v2")); err != nil {
		t.Fatal(err)
	}
	if err := sv.Commit(); err != nil {
		t.Fatal(err)
	}
	// And visible through the super-file.
	v2, _ := c.Update(fcap, UpdateOpts{})
	data, _, err = v2.Read(page.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "sub v2" {
		t.Fatalf("super sees %q", data)
	}
}

func TestClientPing(t *testing.T) {
	svc, c := newTestService(t, 2)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	svc.crash(0)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping with one live server: %v", err)
	}
	svc.crash(1)
	if err := c.Ping(); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
}
