// Command crashrecovery demonstrates the durable backend: a file
// written through the Amoeba File Service on top of the segment-log
// block store (internal/segstore) survives a process crash.
//
// The demo runs the service twice against the same store directory.
// The first life writes a file and then "crashes" — the cluster is
// abandoned without any shutdown, exactly as a killed process would
// leave it (acknowledged writes are already group-committed to disk,
// so there is nothing to flush). The second life starts from nothing
// but the directory: it reopens the log, which rebuilds the block
// index by scanning the segments, runs the §4 recovery scan to rebuild
// the file table from the version pages it finds, and serves the old
// contents again — through the very capability the first life handed
// out, because a file's owner capability is stored in its version
// pages.
//
//	go run ./examples/crashrecovery            # both lives, fresh temp dir
//	go run ./examples/crashrecovery -dir d -phase write    # first life only
//	go run ./examples/crashrecovery -dir d -phase recover  # second life only
//
// The two-process form (-phase write, then -phase recover) shows the
// same thing across real process boundaries: the capability life 1
// prints is among those life 2 recovers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/afs"
)

func main() {
	dir := flag.String("dir", "", "store directory (default: a fresh temp dir)")
	phase := flag.String("phase", "both", "write, recover, or both")
	flag.Parse()

	if *dir == "" {
		d, err := os.MkdirTemp("", "afs-crashrecovery-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		*dir = d
	}
	fmt.Printf("store directory: %s\n", *dir)

	var pre afs.Capability
	if *phase == "write" || *phase == "both" {
		pre = write(*dir)
	}
	if *phase == "recover" || *phase == "both" {
		recover(*dir, pre)
	}
}

// write is the first life: create a file, update it, crash. It returns
// the file's capability.
func write(dir string) afs.Capability {
	cluster, err := afs.Start(afs.Options{Servers: 2, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	c := cluster.NewClient()

	f, err := c.CreateFile([]byte("draft"))
	if err != nil {
		log.Fatal(err)
	}
	v, err := c.Update(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := v.Write(afs.Root, []byte("the committed state")); err != nil {
		log.Fatal(err)
	}
	if err := v.Insert(afs.Root, 0, []byte("and a child page")); err != nil {
		log.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("life 1: created file %v (capability %s), committed an update\n", f, f.Text())

	// Crash. No Close, no flush: Abandon drops the store's file
	// handles (and its single-writer directory lock) exactly as a
	// killed process would — run the two-process form (-phase) to see
	// the same thing with a real process boundary. Every acknowledged
	// write is already fsynced (group commit), so the disk state is
	// complete.
	cluster.Abandon()
	fmt.Println("life 1: CRASH (process state gone, store directory remains)")
	return f
}

// recover is the second life: nothing survives but the directory — and
// the capability pre the first life handed out, when it ran in this
// process.
func recover(dir string, pre afs.Capability) {
	cluster, err := afs.Start(afs.Options{Servers: 2, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Rebuild the file table from the §4 recovery scan: list the
	// account's blocks, find the version pages, pick each file's
	// committed version. Each file keeps the owner capability its
	// version pages carry.
	caps, err := cluster.RecoverFiles()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("life 2: recovered %d file(s) from the store\n", len(caps))

	c := cluster.NewClient()
	if !pre.IsNil() {
		// The capability the crashed life handed out still works.
		data, err := c.ReadFile(pre)
		if err != nil {
			log.Fatalf("life 2: read through the pre-crash capability: %v", err)
		}
		if len(caps) != 1 || caps[0] != pre {
			log.Fatalf("life 2: recovered %v, want the pre-crash capability %v", caps, pre)
		}
		fmt.Printf("life 2: the pre-crash capability %s reads %q\n", pre.Text(), data)
	}
	for _, f := range caps {
		root, err := c.ReadFile(f)
		if err != nil {
			log.Fatal(err)
		}
		v, err := c.Update(f)
		if err != nil {
			log.Fatal(err)
		}
		child, _, err := v.Read(afs.Path{0})
		if err != nil {
			log.Fatal(err)
		}
		v.Abort()
		fmt.Printf("life 2: file %d root = %q, page /0 = %q\n", f.Object, root, child)

		// The recovered file is fully live: commit another update.
		if err := c.WriteFile(f, append(root, " + post-crash update"...)); err != nil {
			log.Fatal(err)
		}
		round, _ := c.ReadFile(f)
		fmt.Printf("life 2: after new commit, root = %q\n", round)
	}
}
