package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/page"
)

func testConfig() Config {
	return Config{
		Servers: 3,
		Backend: Backend{Blocks: 1 << 14, BlockSize: 1024},
		Retain:  2,
	}
}

func TestClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, err := cl.CreateFile([]byte("cluster"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(c.Ports()) != 3 {
		t.Fatalf("live ports = %d", len(c.Ports()))
	}
}

func TestClusterCrashFailoverAndLockRecovery(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, _ := cl.CreateFile([]byte("v0"))

	// Open an update on some server — its update port now guards the
	// top hint on the current version page.
	v, err := cl.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("doomed")); err != nil {
		t.Fatal(err)
	}

	// Kill every server that might manage it (the client picked the
	// preferred = first live one).
	c.CrashServer(0)
	if len(c.Ports()) != 2 {
		t.Fatalf("live ports = %d", len(c.Ports()))
	}

	// A soft-locking update on a surviving server must detect the dead
	// holder and recover the hint rather than time out.
	v2, err := cl.Update(fcap, client.UpdateOpts{SoftLock: true})
	if err != nil {
		t.Fatalf("soft-lock update after crash: %v", err)
	}
	if err := v2.Write(page.RootPath, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old version died with its server.
	if err := v.Commit(); err == nil {
		t.Fatal("commit of version lost in crash succeeded")
	}
}

func TestClusterReplacementServer(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, _ := cl.CreateFile([]byte("before"))
	c.CrashServer(0)
	if _, err := cl.Update(fcap, client.UpdateOpts{}); !errors.Is(err, client.ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.AddServer(); err != nil {
		t.Fatal(err)
	}
	cl2 := c.Client()
	v, err := cl2.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "before" {
		t.Fatalf("replacement server reads %q", data)
	}
}

func TestClusterStablePairSurvivesDiskCrash(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Backend.Pair = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, _ := cl.CreateFile([]byte("mirrored"))

	a, _ := c.Pair().Halves()
	a.Crash()

	v, err := cl.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatalf("update with half the storage down: %v", err)
	}
	data, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "mirrored" {
		t.Fatalf("read %q", data)
	}
	if err := v.Write(page.RootPath, []byte("still-writable")); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rejoin(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterGCWhileWorking(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, _ := cl.CreateFile([]byte("gen0"))
	for i := 1; i <= 6; i++ {
		v, err := cl.Update(fcap, client.UpdateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Write(page.RootPath, []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GC.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := cl.History(fcap)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) > cfg.Retain+1 {
		t.Fatalf("history %d exceeds retention %d", len(hist), cfg.Retain)
	}
	v, _ := cl.Update(fcap, client.UpdateOpts{})
	data, _, err := v.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "gen6" {
		t.Fatalf("current after GC = %q", data)
	}
}

func TestClusterRebuildTable(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	fcap, _ := cl.CreateFile([]byte("persisted"))
	v, _ := cl.Update(fcap, client.UpdateOpts{})
	v.Write(page.RootPath, []byte("persisted-2"))
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}

	// Total service loss: wipe the table, rebuild from disk.
	for _, obj := range c.Instances[0].Shared.Table.Objects() {
		c.Instances[0].Shared.Table.Remove(obj)
	}
	if err := c.RebuildTable(); err != nil {
		t.Fatal(err)
	}
	v2, err := cl.Update(fcap, client.UpdateOpts{})
	if err != nil {
		t.Fatalf("update after rebuild: %v", err)
	}
	data, _, err := v2.Read(page.RootPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "persisted-2" {
		t.Fatalf("rebuilt state = %q", data)
	}
}

func TestConfigDefaults(t *testing.T) {
	c, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Servers) != 1 {
		t.Fatalf("default servers = %d", len(c.Servers))
	}
	if c.GC == nil || c.Cfg.Retain == 0 {
		t.Fatal("defaults not applied")
	}
}
