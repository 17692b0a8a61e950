// Command failover demonstrates the paper's two availability stories on
// real storage: the §3.1/§5.4.1 crash story for file servers and the §4
// companion-pair story for block storage — here over two DURABLE
// segment-log stores served across TCP, the "two block servers on two
// different disk drives" of §4 with actual disks under them.
//
//	"Server crashes have no serious consequences: the file system is
//	always in a consistent state, so there is no rollback, clients need
//	only redo the update that remained unfinished because of the crash."
//
// The walkthrough:
//
//  1. A file server is killed mid-update; the client redoes the update
//     through a surviving server. No recovery work at all.
//  2. Media corruption: block machine A's segment log rots on disk.
//     Reads fall back to companion B over the wire (block.ErrCorrupt
//     crosses it) and repair A's copies in place; a scrub pass over the
//     account repairs the rest.
//  3. Machine B is killed. The transport failure marks it down
//     automatically; writes continue on A alone, each recorded on the
//     §4 intentions list. B reboots at the same endpoint and the pair
//     heals: the outage is REPLAYED onto B's store.
//  4. Total loss: B dies again (missing an update), and then the file
//     service machine itself goes down, taking the intentions list with
//     it. A fresh service recovers its file table from the mirrored
//     store, and B — now stale with no list to replay — "compares notes
//     with its companion and restores its disk" by FULL COPY. Killing A
//     afterwards proves B's restored copy carries the whole file system.
//
// Run it with:
//
//	go run ./examples/failover
//
// Real deployments get the same topology from the cmd tools: one
// `afs-block -store=seg -dir=D -listen=H:P -port=HEX` per machine, then
// `afs-server -mirror=PORTA@ADDRA+PORTB@ADDRB`.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/stable"
)

const blockSize = 1024

// startMachine boots one block-server box: a durable segstore behind a
// TCP listener. A restarted box comes back at the same endpoint.
func startMachine(dir string) *core.BlockMachine {
	m, err := core.StartBlockMachine(core.Backend{Kind: "seg", Dir: dir, Blocks: 1 << 12, BlockSize: blockSize}, "127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// mountPair dials the two machines as one §4 companion pair, exactly as
// `afs-server -mirror` does: fail-fast transports, so a dead half lands
// on the intentions list instead of stalling writes.
func mountPair(ma, mb *core.BlockMachine) *stable.Pair {
	_, pairs, err := core.Mount([][]core.Endpoint{{ma.Endpoints[0], mb.Endpoints[0]}}, core.TCPDialer(nil), nil)
	if err != nil {
		log.Fatal(err)
	}
	return pairs[0]
}

func main() {
	base, err := os.MkdirTemp("", "afs-failover-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	ma := startMachine(filepath.Join(base, "a"))
	mb := startMachine(filepath.Join(base, "b"))

	cluster, err := core.NewCluster(core.Config{Servers: 3, Store: mountPair(ma, mb)})
	if err != nil {
		log.Fatal(err)
	}
	hA, hB := cluster.Pair().Halves()
	c := cluster.Client()
	fmt.Printf("file service up: 3 servers over a mirrored pair of segstores (under %s)\n", base)

	f, err := c.CreateFile([]byte("balance: 100"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("file created:", "balance: 100")

	// --- act 1: a file server dies mid-update ---
	v, err := c.Update(f, client.UpdateOpts{})
	if err != nil {
		log.Fatal(err)
	}
	if err := v.Write(page.RootPath, []byte("balance: 150")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nupdate in flight: balance -> 150 (uncommitted)")
	cluster.CrashServer(0)
	fmt.Printf("file server 0 CRASHES; %d servers remain\n", len(cluster.Ports()))
	if err := v.Commit(); err == nil {
		log.Fatal("commit of a version lost in the crash succeeded")
	} else {
		fmt.Printf("commit of the lost version fails as expected: %.60s...\n", err)
	}
	if got := readFile(c, f); got != "balance: 100" {
		log.Fatalf("file inconsistent after crash: %q", got)
	}
	fmt.Println("file state with zero recovery work: \"balance: 100\"")
	writeFile(c, f, "balance: 150")
	fmt.Printf("redone through a surviving server: %q\n", readFile(c, f))

	// --- act 2: media corruption on machine A ---
	rotSegments(filepath.Join(base, "a"))
	fmt.Println("\nmachine A's segment log ROTS on disk (every record's CRC now fails)")
	if got := readFile(c, f); got != "balance: 150" {
		log.Fatalf("read over corrupt medium: %q", got)
	}
	sA := hA.Stats()
	fmt.Printf("read still serves %q — %d corrupt reads fell back to B over the wire, %d copies repaired\n",
		readFile(c, f), sA.CorruptFallbacks, sA.Repairs)
	// A scrub pass reads every block of the service's account through
	// the pair, so the copies nobody happened to read are repaired too
	// before A is ever the only good half.
	blocks, err := cluster.Pair().Recover(cluster.Instances[0].Shared.Acct)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.Pair().ReadMulti(cluster.Instances[0].Shared.Acct, blocks); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub over %d blocks: %d copies repaired in all\n", len(blocks), hA.Stats().Repairs)

	// --- act 3: machine B dies; writes continue; reboot + heal ---
	mb.Crash()
	fmt.Println("\nmachine B is KILLED (no fault-injection call: the pair notices the dead transport)")
	writeFile(c, f, "balance: 175")
	fmt.Printf("write lands on A alone: %q (B down=%v, auto-markdowns=%d, intents kept=%d)\n",
		readFile(c, f), hB.Down(), hB.Stats().AutoMarkdowns, hA.Stats().IntentionsKept)
	if err := mb.Restart(); err != nil {
		log.Fatal(err)
	}
	if healed, err := cluster.Pair().Heal(); healed != 1 {
		log.Fatalf("heal rejoined %d halves, want 1 (err=%v)", healed, err)
	}
	fmt.Printf("machine B REBOOTS and the pair heals: %d mutations replayed from the intentions list\n",
		hA.Stats().Replayed)

	// --- act 4: total loss and full-copy rejoin ---
	mb.Crash()
	writeFile(c, f, "balance: 200")
	fmt.Println("\nmachine B dies AGAIN and misses an update (balance -> 200);")
	fmt.Println("then the file-service machine goes down too — the intentions list dies with it")

	// A fresh service process: new mounts, new pair, no memory — but
	// the survivor bumped its persisted epoch when B went down, so the
	// fresh pair finds B lagging at mount time and holds it down.
	if err := mb.Restart(); err != nil {
		log.Fatal(err)
	}
	cluster2, err := core.NewCluster(core.Config{Servers: 2, Store: mountPair(ma, mb)})
	if err != nil {
		log.Fatal(err)
	}
	caps, err := cluster2.RecoverTable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh service recovers %d file(s) from the mirrored store\n", len(caps))
	var f2 capability.Capability
	for _, cp := range caps {
		f2 = cp
	}
	_, hB2 := cluster2.Pair().Halves()
	// Rejoin it. With no intentions list anywhere, §4's "compares notes
	// with its companion" runs as a full copy of every block A holds.
	if err := hB2.Rejoin(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("half B restored by FULL COPY: %d blocks copied from A\n", hB2.Stats().FullCopied)

	c2 := cluster2.Client()
	if got := readFile(c2, f2); got != "balance: 200" {
		log.Fatalf("after recovery: %q", got)
	}
	ma.Crash()
	fmt.Printf("machine A killed after the copy; B alone serves %q — the mirror is whole again\n",
		readFile(c2, f2))

	mb.Crash()
}

// readFile reads the root page of the file's current version.
func readFile(c *client.Client, f capability.Capability) string {
	cur, err := c.CurrentVersion(f)
	if err != nil {
		log.Fatal(err)
	}
	data, _, err := c.ReadCommitted(f, cur, page.RootPath)
	if err != nil {
		log.Fatal(err)
	}
	return string(data)
}

// writeFile replaces the root page in one update, redoing on conflict
// or a crashed server exactly as the paper's clients do.
func writeFile(c *client.Client, f capability.Capability, content string) {
	for {
		v, err := c.Update(f, client.UpdateOpts{})
		if err != nil {
			log.Fatal(err)
		}
		if err := v.Write(page.RootPath, []byte(content)); err != nil {
			log.Fatal(err)
		}
		err = v.Commit()
		if err == nil {
			return
		}
		if errors.Is(err, stable.ErrBothDown) {
			log.Fatal(err)
		}
	}
}

// rotSegments flips a payload byte in every record of every segment
// file of every log lane under dir, behind the running store's back:
// media decay. Record layout per segstore/segment.go: 32-byte header +
// blockSize payload.
func rotSegments(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, "log-*", "seg-*.log"))
	if err != nil || len(matches) == 0 {
		log.Fatalf("no segments under %s: %v", dir, err)
	}
	for _, path := range matches {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			log.Fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		const recSize = 32 + blockSize
		for off := int64(32); off < info.Size(); off += recSize {
			if _, err := f.WriteAt([]byte{0xDE, 0xAD}, off); err != nil {
				log.Fatal(err)
			}
		}
		f.Close()
	}
}
