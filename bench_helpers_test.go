package main

import (
	"testing"

	"repro/internal/baseline/lockfs"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
)

// clientOpts is the default update options for bench clients.
func clientOpts() client.UpdateOpts { return client.UpdateOpts{} }

// newBenchClient wires a single-server cluster and one file, returning a
// connected client.
func newBenchClient(b *testing.B) (*client.Client, capability.Capability) {
	b.Helper()
	c, err := core.NewCluster(core.Config{Servers: 1, Backend: core.Backend{Blocks: 1 << 20, BlockSize: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	cl := c.Client()
	fcap, err := cl.CreateFile(make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	return cl, fcap
}

// newCrashableCluster returns a two-server cluster, a file, and a
// function that kills the preferred server.
func newCrashableCluster(b *testing.B) (*client.Client, capability.Capability, func()) {
	b.Helper()
	c, err := core.NewCluster(core.Config{Servers: 2, Backend: core.Backend{Blocks: 1 << 18, BlockSize: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	cl := c.Client()
	fcap, err := cl.CreateFile([]byte("crash-me"))
	if err != nil {
		b.Fatal(err)
	}
	return cl, fcap, func() { c.CrashServer(0) }
}

// newCrashedLockStore builds a locking store frozen mid-commit with n
// unapplied intentions and stale locks, ready for Recover.
func newCrashedLockStore(b *testing.B, n int) *lockfs.Store {
	b.Helper()
	d := disk.MustNew(disk.Geometry{Blocks: 1 << 16, BlockSize: 4096})
	st := lockfs.New(block.NewServer(d), 1)
	f, err := st.CreateFile(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.FreezeMidCommit(f, n); err != nil {
		b.Fatal(err)
	}
	return st
}
