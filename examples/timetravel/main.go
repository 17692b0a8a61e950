// Command timetravel demonstrates the content-addressed archive tier:
// committed versions the garbage collector would delete are demoted
// into a write-once archive instead — deduplicated and hash-verified —
// and every archived version stays openable, read-only, forever.
//
// The demo commits a handful of versions of one file, lets the
// collector retire all but the newest, and then:
//
//   - lists the archived snapshots and reads each one back, checking
//     the content is exactly what was committed at that point;
//
//   - archives two files with an identical child page and shows the
//     archive stored that page once (dedup across files);
//
//   - "crashes" the process, restarts over the same directories, and
//     reads an archived version again — snapshots are durable;
//
//   - flips one byte of an archived block underneath the service and
//     shows the read fail loudly with block.ErrCorrupt, naming the
//     damaged block, instead of returning silently wrong bytes.
//
//     go run ./examples/timetravel
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/afs"
	"repro/internal/archive"
	"repro/internal/block"
)

func main() {
	dir, err := os.MkdirTemp("", "afs-timetravel-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	archDir, err := os.MkdirTemp("", "afs-timetravel-archive-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(archDir)
	fmt.Printf("store %s\narchive %s\n\n", dir, archDir)

	cluster, err := afs.Start(afs.Options{
		Servers:        2,
		Dir:            dir,
		ArchiveDir:     archDir,
		RetainVersions: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := cluster.NewClient()

	// A file, edited four times: five committed versions.
	contents := []string{
		"v1: the first draft",
		"v2: the second draft",
		"v3: the third draft",
		"v4: the fourth draft",
		"v5: the final text",
	}
	f, err := c.CreateFile([]byte(contents[0]))
	if err != nil {
		log.Fatal(err)
	}
	for _, text := range contents[1:] {
		if err := c.WriteFile(f, []byte(text)); err != nil {
			log.Fatal(err)
		}
	}

	// The collector retires everything behind the newest version —
	// and, with an archive configured, demotes instead of deleting.
	rep, err := cluster.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collect: %d versions demoted to the archive, %d retired\n", rep.Demoted, rep.Retired)
	if rep.Demoted != len(contents)-1 {
		log.Fatalf("demoted %d versions, want %d", rep.Demoted, len(contents)-1)
	}

	// Time travel: every superseded version is still there, read-only.
	seqs, err := c.Snapshots(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshots of the file: %v\n", seqs)
	for i, seq := range seqs {
		snap, err := c.VersionAt(f, seq)
		if err != nil {
			log.Fatal(err)
		}
		got, err := snap.ReadFile()
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, []byte(contents[i])) {
			log.Fatalf("snapshot %d reads %q, want %q", seq, got, contents[i])
		}
		fmt.Printf("  seq %d: %q\n", seq, got)
	}
	if live, err := c.ReadFile(f); err != nil || string(live) != contents[len(contents)-1] {
		log.Fatalf("live read: %q, %v", live, err)
	}

	// Dedup: two files carrying an identical child page. Once both are
	// archived the page is stored once; content addressing makes the
	// second copy a pure index hit.
	shared := bytes.Repeat([]byte("shared payload "), 64)
	var pair [2]afs.Capability
	for i := range pair {
		cap, err := c.CreateFile([]byte(fmt.Sprintf("carrier %d", i)))
		if err != nil {
			log.Fatal(err)
		}
		v, err := c.Update(cap)
		if err != nil {
			log.Fatal(err)
		}
		if err := v.Insert(afs.Root, 0, shared); err != nil {
			log.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			log.Fatal(err)
		}
		// One more commit so the version holding the page retires.
		if err := c.WriteFile(cap, []byte(fmt.Sprintf("carrier %d, emptied", i))); err != nil {
			log.Fatal(err)
		}
		pair[i] = cap
	}
	before := cluster.Internal().Instances[0].Shared.Archive.Stats()
	if _, err := cluster.Collect(); err != nil {
		log.Fatal(err)
	}
	after := cluster.Internal().Instances[0].Shared.Archive.Stats()
	if after.DedupHits <= before.DedupHits {
		log.Fatalf("no dedup hits archiving identical pages (%d -> %d)", before.DedupHits, after.DedupHits)
	}
	fmt.Printf("\ndedup: archiving two files sharing a page: %d blocks stored, %d dedup hits\n",
		after.Stored-before.Stored, after.DedupHits-before.DedupHits)

	// Crash and restart over the same directories: the archive is
	// content on disk, not state in a process.
	object := f.Object
	cluster.Abandon()
	cluster, err = afs.Start(afs.Options{
		Servers:        2,
		Dir:            dir,
		ArchiveDir:     archDir,
		RetainVersions: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	recovered, err := cluster.RecoverFiles()
	if err != nil {
		log.Fatal(err)
	}
	f = afs.Capability{}
	for _, cap := range recovered {
		if cap.Object == object {
			f = cap
		}
	}
	if f.Object != object {
		log.Fatalf("file %d not recovered (got %d files)", object, len(recovered))
	}
	c = cluster.NewClient()
	seqs, err = c.Snapshots(f)
	if err != nil {
		log.Fatal(err)
	}
	if len(seqs) != len(contents)-1 {
		log.Fatalf("snapshots after restart: %v, want %d entries", seqs, len(contents)-1)
	}
	snap, err := c.VersionAt(f, seqs[0])
	if err != nil {
		log.Fatal(err)
	}
	got, err := snap.ReadFile()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, []byte(contents[0])) {
		log.Fatalf("snapshot %d after restart reads %q, want %q", seqs[0], got, contents[0])
	}
	fmt.Printf("\nafter restart: %d snapshots survive; seq %d still reads %q\n", len(seqs), seqs[0], got)

	// Integrity: flip one payload byte of an archived block underneath
	// the service. The next read of that snapshot must refuse loudly —
	// the per-block score no longer matches — and name the block.
	arch := cluster.Internal().Instances[0].Shared.Archive
	entry, ok := arch.Snapshot(object, seqs[0])
	if !ok {
		log.Fatalf("snapshot %d vanished", seqs[0])
	}
	raw, err := arch.Backing().Read(arch.Account(), entry.Root)
	if err != nil {
		log.Fatal(err)
	}
	raw[archive.FrameOverhead] ^= 0x01
	if err := arch.Backing().Write(arch.Account(), entry.Root, raw); err != nil {
		log.Fatal(err)
	}
	_, err = snap.ReadFile()
	if !errors.Is(err, block.ErrCorrupt) {
		log.Fatalf("read of damaged snapshot: %v, want block.ErrCorrupt", err)
	}
	if want := fmt.Sprintf("block %d", entry.Root); !strings.Contains(err.Error(), want) {
		log.Fatalf("corruption error %q does not name %q", err, want)
	}
	fmt.Printf("\ncorrupted block %d detected on read:\n  %v\n", entry.Root, err)
	fmt.Println("\ntime travel works: superseded versions are archived, deduplicated, durable and hash-verified")
}
