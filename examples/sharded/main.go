// Command sharded demonstrates the sharded block service: three
// durable block-server "machines" (each a TCP listener over its own
// segment-log store directory), one file service mounting all three
// behind the sharded facade (internal/shard), and a client writing a
// file whose pages stripe across every machine.
//
// The demo then walks the failure story the facade is designed for:
//
//  1. One block machine crashes. Pages on the two surviving machines
//     are still served; only reads that need the dead machine fail,
//     with the transport's dead-port error naming the offending block.
//  2. The machine comes back (same store directory, same endpoint).
//     The segment log rebuilds its index by scanning, and the file
//     heals with no file-server restart.
//  3. The whole file service restarts from nothing but the three store
//     directories: the §4 recovery scan fans out to every shard, the
//     file table is rebuilt from the version pages found, and the file
//     is served again under the capability it was created with: the
//     owner capability is stored in its version pages.
//
// Run it with:
//
//	go run ./examples/sharded
//
// Real deployments get the same topology from the cmd tools: one
// `afs-block -store=seg -dir=D` per machine (or one process with
// -shards N for a single-machine stand-in), then
// `afs-server -blocks=P1@A1,P2@A2,P3@A3`. This demo builds it from the
// same pieces those binaries use (internal/core).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/shard"
)

// fileService is one afs-server in miniature: the block machines
// mounted behind the sharded facade, one file server on its own TCP
// listener, and a client connected to it.
type fileService struct {
	facade *shard.Store
	inst   *core.Instance
	tcp    *rpc.TCPServer
	client *client.Client
}

// startFileService mounts the machines and serves; with recover it runs
// the §4 recovery scan first, as a restarted afs-server does.
func startFileService(nodes []*core.BlockMachine, recover bool) (*fileService, error) {
	var mounts [][]core.Endpoint
	for _, nd := range nodes {
		mounts = append(mounts, nd.Endpoints)
	}
	store, _, err := core.Mount(mounts, core.TCPDialer(nil), nil)
	if err != nil {
		return nil, err
	}
	tcp, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(core.Service{
		Store:    store,
		Servers:  1,
		Retain:   4,
		Recover:  recover,
		Register: tcp.Register,
	})
	if err != nil {
		return nil, err
	}
	ep := core.Endpoint{Port: inst.Servers()[0].Port(), Addr: tcp.Addr()}
	return &fileService{
		facade: store.(*shard.Store),
		inst:   inst,
		tcp:    tcp,
		client: client.New(core.TCPDialer(nil)(ep), ep.Port),
	}, nil
}

func main() {
	base, err := os.MkdirTemp("", "afs-sharded-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// Three block machines, each with its own store directory.
	var nodes []*core.BlockMachine
	for i := 0; i < 3; i++ {
		nd, err := core.StartBlockMachine(core.Backend{
			Kind: "seg", Dir: filepath.Join(base, fmt.Sprintf("node%d", i)), Blocks: 1 << 12, BlockSize: 1024,
		}, "127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	fmt.Printf("3 block machines up (stores under %s)\n", base)

	// The file service mounts all three behind the sharded facade.
	fs, err := startFileService(nodes, false)
	if err != nil {
		log.Fatal(err)
	}

	// A client writes a file of eight pages and commits.
	c := fs.client
	fcap, err := c.CreateFile([]byte("root page"))
	if err != nil {
		log.Fatal(err)
	}
	v, err := c.Update(fcap, client.UpdateOpts{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := v.Insert(page.Path{}, i, []byte(fmt.Sprintf("page %d, striped", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed a file of 8 pages through the facade:")
	for _, st := range fs.facade.ShardStats() {
		fmt.Printf("  machine %d: %d blocks in use, %d writes, %d fsyncs\n",
			st.Shard, st.Usage.InUse, st.Stats.Writes, st.Stats.Syncs)
	}

	// --- act 1: one machine crashes ---
	nodes[1].Crash()
	fmt.Println("\nmachine 1 CRASHES")
	served, failed := readPages(c, fcap)
	fmt.Printf("pages on live machines still served: %d of 8 (%d need the dead machine)\n", served, failed)

	// --- act 2: the machine comes back ---
	if err := nodes[1].Restart(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmachine 1 REBOOTS at %s (same store directory, index rebuilt by scan)\n", nodes[1].Endpoints[0].Addr)
	served, failed = readPages(c, fcap)
	fmt.Printf("after reboot: %d of 8 pages served, %d failed — healed with no file-server restart\n", served, failed)

	// --- act 3: the whole file service restarts from the directories ---
	fs.tcp.Close()
	fs2, err := startFileService(nodes, true)
	if err != nil {
		log.Fatal(err)
	}
	defer fs2.tcp.Close()
	fmt.Printf("\nfile service RESTARTS: recovery scan over 3 shards found %d file(s)\n", len(fs2.inst.Recovered))
	if fs2.inst.Recovered[fcap.Object] != fcap {
		log.Fatalf("recovered %v, want the pre-restart capability %v", fs2.inst.Recovered, fcap)
	}
	data, err := readPage(fs2.client, fcap, page.Path{3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered file, read through its pre-restart capability: page /3 = %q\n", data)

	for i, nd := range nodes {
		fmt.Printf("machine %d final: %d blocks in use\n", i, nd.Segs[0].InUse())
		nd.Close()
	}
}

// readPages opens a throwaway version and reads each child page once,
// counting successes and failures (a fresh version per probe keeps a
// dead shard's error from poisoning the walk).
func readPages(c *client.Client, fcap capability.Capability) (served, failed int) {
	for i := 0; i < 8; i++ {
		if _, err := readPage(c, fcap, page.Path{i}); err != nil {
			failed++
			continue
		}
		served++
	}
	return served, failed
}

// readPage reads one committed page through a throwaway version.
func readPage(c *client.Client, fcap capability.Capability, p page.Path) ([]byte, error) {
	v, err := c.Update(fcap, client.UpdateOpts{})
	if err != nil {
		return nil, err
	}
	defer v.Abort()
	data, _, err := v.Read(p)
	return data, err
}
