// Command multiserver demonstrates the replicated file table
// (internal/ftab): TWO file-service machines — each with its own shared
// state, capability factory and object band — serving ONE file system
// over one sharded block store, exactly the §5.4.1 picture: "version
// access and file access can be guaranteed as long as one or more
// servers are operational."
//
// The demo walks the availability story end to end:
//
//  1. A file created through machine 0 is updatable through machine 1
//     as soon as the asynchronous push streams deliver it: the entry,
//     with the owner capability the capability is checked against,
//     rides the same batched stream every table update does (the demo
//     drains the stream with Flush — a real client simply retries).
//  2. Concurrent clients commit through BOTH machines at once. Every
//     table update is an OCC CAS serialised by the storage-level commit
//     reference, so no update is lost — verified against a
//     single-server oracle run of the same workload.
//  3. Machine 0 is killed mid-workload. Its clients fail over to
//     machine 1; in-flight updates surface ErrVersionLost (which
//     classifies as a conflict) and are redone there.
//  4. Machine 0 reboots over the same store: it pulls the table from
//     its peer, the §4 recovery scan adopts nothing new (everything is
//     already live), and both tables are byte-equal — compared by
//     fingerprint, the same check `GET /ftab` serves in a real
//     deployment.
//
// Run it with:
//
//	go run ./examples/multiserver
//
// Real deployments get the same topology from the cmd tools: two
// `afs-block -store=seg` machines, then on two hosts
//
//	afs-server -id=0 -peers=1@HOST_B:PORT -blocks=... -listen=HOST_A:PORT
//	afs-server -id=1 -peers=0@HOST_A:PORT -blocks=... -listen=HOST_B:PORT
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/ftab"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
)

const (
	workers       = 4 // concurrent clients, half per machine
	commitsPerWkr = 8
	blockShards   = 2 // durable block services behind the sharded facade
)

// machine is one file-service process (an afs-server in miniature): a
// service instance with its table replica and one file server behind
// one TCP listener.
type machine struct {
	*core.Instance
	tcp  *rpc.TCPServer
	addr string
}

// bootMachine starts (or reboots) a file-service machine the way
// afs-server does: mount the block nodes, join the table mesh, run the
// recovery scan, serve. peerAddrs names the siblings' listen addresses
// by replica ID; a not-yet-booted sibling is simply found down and
// joins when it pulls from us.
func bootMachine(id uint32, listen string, blocks []core.Endpoint, peerAddrs map[uint32]string) (*machine, error) {
	// Each machine dials the block services itself, like a real process.
	var mounts [][]core.Endpoint
	for _, ep := range blocks {
		mounts = append(mounts, []core.Endpoint{ep})
	}
	store, _, err := core.Mount(mounts, core.TCPDialer(nil), nil)
	if err != nil {
		return nil, err
	}
	tcp, err := rpc.NewTCPServer(listen)
	if err != nil {
		return nil, err
	}
	spec := core.Service{
		ID:       id,
		Store:    store,
		Servers:  1,
		Retain:   4,
		Recover:  true, // adopt whatever the mesh did not already give us
		Register: tcp.Register,
	}
	for pid, addr := range peerAddrs {
		spec.Peers = append(spec.Peers, core.Peer{ID: pid,
			Via: core.TCPDialer(nil)(core.Endpoint{Port: ftab.PortFor(pid), Addr: addr})})
	}
	inst, err := core.NewInstance(spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("machine %d up at %s: %d files live, %d adopted by scan\n",
		id, tcp.Addr(), inst.Shared.Table.Len(), len(inst.Recovered))
	return &machine{Instance: inst, tcp: tcp, addr: tcp.Addr()}, nil
}

// port is the machine's file-server port.
func (m *machine) port() capability.Port { return m.Servers()[0].Port() }

// kill simulates the machine's process dying.
func (m *machine) kill() { m.tcp.Close() }

// clientFor builds a client that prefers the given machine but knows
// both.
func clientFor(prefer, other *machine) *client.Client {
	dial := core.TCPDialer(nil)
	return client.New(dial(core.Endpoint{Port: prefer.port(), Addr: prefer.addr}, core.Endpoint{Port: other.port(), Addr: other.addr}),
		prefer.port(), other.port())
}

// runWorkload runs the no-lost-updates workload: each worker owns child
// page {w} of the shared file and drives its counter to commitsPerWkr,
// one increment per step, redoing on conflicts and on version loss
// after a failover. The returned counts are the final page values.
func runWorkload(clients []*client.Client, fcap capability.Capability, onHalfway func()) ([]int, error) {
	var done atomic.Int64
	half := int64(workers*commitsPerWkr) / 2
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for k := 1; k <= commitsPerWkr; k++ {
				if err := ensure(c, fcap, w, k); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if done.Add(1) == half && onHalfway != nil {
					once.Do(onHalfway)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	// Read the final counters through the last client.
	c := clients[len(clients)-1]
	out := make([]int, workers)
	v, err := c.Update(fcap, client.UpdateOpts{})
	if err != nil {
		return nil, err
	}
	defer v.Abort()
	for w := 0; w < workers; w++ {
		data, _, err := v.Read(page.Path{w})
		if err != nil {
			return nil, err
		}
		out[w], _ = strconv.Atoi(string(data))
	}
	return out, nil
}

// ensure drives worker w's counter (private to this worker) up to
// target with one read-modify-write commit, redoing on conflict or
// version loss. The re-read before every attempt is what makes the redo
// idempotent: a commit that LANDED but whose acknowledgement died with
// the server (the ambiguous outcome of a mid-commit kill) is visible on
// re-read and not applied twice. That pairing — "clients must be
// prepared to redo the updates in a version" plus an idempotence check
// in the redo — is exactly how the paper expects OCC clients to handle
// server loss.
func ensure(c *client.Client, fcap capability.Capability, w, target int) error {
	for attempt := 0; attempt < 60; attempt++ {
		v, err := c.Update(fcap, client.UpdateOpts{})
		if err != nil {
			if errors.Is(err, occ.ErrConflict) {
				continue
			}
			return err
		}
		data, _, err := v.Read(page.Path{w})
		if err != nil {
			v.Abort()
			if errors.Is(err, occ.ErrConflict) {
				continue
			}
			return err
		}
		n, _ := strconv.Atoi(string(data))
		if n >= target {
			v.Abort()
			return nil // the "failed" previous attempt had landed
		}
		if err := v.Write(page.Path{w}, []byte(strconv.Itoa(n+1))); err != nil {
			v.Abort()
			if errors.Is(err, occ.ErrConflict) {
				continue
			}
			return err
		}
		if err := v.Commit(); err != nil {
			if errors.Is(err, occ.ErrConflict) {
				continue
			}
			return err
		}
		return nil
	}
	return fmt.Errorf("counter %d stuck below %d after 60 attempts", w, target)
}

// oracleRun replays the workload against a lone single-machine service
// over a fresh in-memory store: the baseline state the two-machine run
// must match exactly.
func oracleRun() ([]int, error) {
	oracle, err := core.NewCluster(core.Config{Backend: core.Backend{Blocks: 1 << 12, BlockSize: 1024}})
	if err != nil {
		return nil, err
	}
	fcap, err := counterFile(oracle.Client())
	if err != nil {
		return nil, err
	}
	clients := make([]*client.Client, workers)
	for i := range clients {
		clients[i] = oracle.Client()
	}
	return runWorkload(clients, fcap, nil)
}

// counterFile creates the shared file with one zeroed page per worker.
func counterFile(c *client.Client) (capability.Capability, error) {
	fcap, err := c.CreateFile([]byte("counters"))
	if err != nil {
		return capability.Nil, err
	}
	v, err := c.Update(fcap, client.UpdateOpts{})
	if err != nil {
		return capability.Nil, err
	}
	for w := 0; w < workers; w++ {
		if err := v.Insert(page.Path{}, w, []byte("0")); err != nil {
			return capability.Nil, err
		}
	}
	return fcap, v.Commit()
}

func main() {
	base, err := os.MkdirTemp("", "afs-multiserver-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// One sharded durable block store, shared by both machines.
	blocks, err := core.StartBlockMachine(core.Backend{
		Kind: "seg", Dir: base, Shards: blockShards, Blocks: 1 << 12, BlockSize: 1024,
	}, "127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer blocks.Close()
	fmt.Printf("%d block services up (one sharded store under %s)\n\n", blockShards, base)

	// Two file-service machines, a mutual mesh. Machine 1's address must
	// be known before either boots (the -peers flag of a real
	// deployment): reserve it.
	addr1, err := reserveAddr()
	if err != nil {
		log.Fatal(err)
	}
	m0, err := bootMachine(0, "127.0.0.1:0", blocks.Endpoints, map[uint32]string{1: addr1})
	if err != nil {
		log.Fatal(err)
	}
	m1, err := bootMachine(1, addr1, blocks.Endpoints, map[uint32]string{0: m0.addr})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("both machines up\n\n")

	// --- act 1: create through machine 0, update through machine 1 ---
	c0, c1 := clientFor(m0, m1), clientFor(m1, m0)
	fcap, err := counterFile(c0)
	if err != nil {
		log.Fatal(err)
	}
	// The create was acknowledged after local durability only; drain
	// machine 0's push streams so machine 1 holds the entry (and the
	// owner capability the capability is checked against) before we
	// present it there.
	m0.Table.Flush(10 * time.Second)
	v, err := c1.Update(fcap, client.UpdateOpts{})
	if err != nil {
		log.Fatalf("machine 1 refuses the capability machine 0 minted: %v", err)
	}
	v.Abort()
	fmt.Println("file created via machine 0; capability verifies and resolves via machine 1")

	// --- act 2+3: concurrent commits from both fronts; machine 0 is
	// killed halfway through, clients fail over and redo ---
	clients := []*client.Client{c0, c1, clientFor(m0, m1), clientFor(m1, m0)}
	counts, err := runWorkload(clients, fcap, func() {
		fmt.Println("machine 0 KILLED mid-workload (its clients fail over to machine 1 and redo)")
		m0.kill()
	})
	if err != nil {
		log.Fatal(err)
	}
	lost := 0
	for w, got := range counts {
		if got != commitsPerWkr {
			fmt.Printf("  worker %d: %d of %d commits survived\n", w, got, commitsPerWkr)
			lost += commitsPerWkr - got
		}
	}
	if lost > 0 {
		log.Fatalf("%d updates lost — the OCC CAS table failed", lost)
	}
	fmt.Printf("%d concurrent commits through two machines, one killed mid-run: 0 updates lost\n", workers*commitsPerWkr)

	// The single-server oracle: the same workload against one lone
	// server must end in exactly the same state.
	oracleCounts, err := oracleRun()
	if err != nil {
		log.Fatalf("oracle run: %v", err)
	}
	for w := range counts {
		if counts[w] != oracleCounts[w] {
			log.Fatalf("two-server result diverges from the single-server oracle: %v vs %v", counts, oracleCounts)
		}
	}
	fmt.Printf("single-server oracle run agrees: every counter at %d\n\n", oracleCounts[0])

	// --- act 4: machine 0 reboots and catches up ---
	m0b, err := bootMachine(0, m0.addr, blocks.Endpoints, map[uint32]string{1: m1.addr})
	if err != nil {
		log.Fatal(err)
	}
	f0, f1 := ftab.Fingerprint(m0b.Shared.Table), ftab.Fingerprint(m1.Shared.Table)
	if f0 != f1 {
		log.Fatalf("tables diverged after catch-up: %s vs %s", f0, f1)
	}
	fmt.Printf("machine 0 REBOOTED and caught up: table fingerprints byte-equal (%s)\n", f0)

	// And it serves: a fresh client against the rebooted machine reads
	// the final counters.
	cb := clientFor(m0b, m1)
	vb, err := cb.Update(fcap, client.UpdateOpts{})
	if err != nil {
		log.Fatal(err)
	}
	data, _, err := vb.Read(page.Path{0})
	vb.Abort()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebooted machine serves the file: counter 0 = %s\n", data)

	m0b.kill()
	m1.kill()
}

// reserveAddr picks a free loopback address by binding and releasing it.
func reserveAddr() (string, error) {
	tcp, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer tcp.Close()
	return tcp.Addr(), nil
}
