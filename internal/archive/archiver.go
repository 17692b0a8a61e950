package archive

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/version"
)

// Archiver demotes superseded committed versions out of the mutable
// front tier: it rewrites a version's page tree into canonical
// hash-addressed form (version.Tree.WalkArchive), deduplicating every
// page the archive has already seen, and records the result in the
// snapshot log. The front-tier copies are then free to fall to the
// garbage collector's sweep — demote-instead-of-delete.
//
// Demotion is idempotent: rewriting the same version is a pure dedup
// pass that reproduces the same snapshot score, and the log refuses
// duplicates — so two servers demoting the same retired root (the
// multi-server GC hazard) converge on one snapshot instead of
// conflicting. Because a sibling process sharing the archive appends
// behind this process's back, Demote refreshes the store's index from
// the backing medium before checking the log and assigning a sequence.
// The refresh closes the window for sequential demoters (the common
// crash-and-takeover case); two servers demoting the same root at the
// same instant can still each append a record — same score, different
// Seq — which is harmless: the blocks dedup and either record opens
// the same tree.
type Archiver struct {
	// Front reads the mutable tier the versions are demoted from.
	Front *version.Store
	// Store is the archive the canonical blocks land in.
	Store *Store
	// Acct is the account archived blocks are owned by.
	Acct block.Account
	// Ratio, when set, observes the dedup-hit fraction of every demote
	// (ObserveValue in [0, 1]; exposed on /metrics).
	Ratio *metrics.Histogram

	demotes atomic.Uint64
	skipped atomic.Uint64
	pages   atomic.Uint64
	deduped atomic.Uint64
}

// ArchiverStats is a snapshot of the archiver's counters.
type ArchiverStats struct {
	Demotes uint64 // versions rewritten and logged
	Skipped uint64 // rewrites that matched an existing snapshot (no new log entry)
	Pages   uint64 // pages presented to the archive
	Deduped uint64 // pages answered by existing archive blocks
}

// Stats snapshots the counters.
func (a *Archiver) Stats() ArchiverStats {
	return ArchiverStats{
		Demotes: a.demotes.Load(),
		Skipped: a.skipped.Load(),
		Pages:   a.pages.Load(),
		Deduped: a.deduped.Load(),
	}
}

// snapDomain separates snapshot scores from block scores: a snapshot
// score hashes this tag, the root payload, and the children's snapshot
// scores recursively — a Merkle hash covering the entire tree, so one
// 32-byte score vouches for every byte of the snapshot.
const snapDomain = 0x05

// zeroScore stands in for a hole's child score.
var zeroScore Score

// snapScore combines one page's stored payload with its children's
// snapshot scores (zeroScore for holes), in reference order.
func snapScore(payload []byte, children []Score) Score {
	h := sha256.New()
	h.Write([]byte{snapDomain})
	var n [4]byte
	n[0] = byte(len(payload) >> 24)
	n[1] = byte(len(payload) >> 16)
	n[2] = byte(len(payload) >> 8)
	n[3] = byte(len(payload))
	h.Write(n[:])
	h.Write(payload)
	for _, c := range children {
		h.Write(c[:])
	}
	var s Score
	h.Sum(s[:0])
	return s
}

// kindOf classifies a canonical page for the archive's typed hash tree.
func kindOf(p page.Path, pg *page.Page) byte {
	switch {
	case p.IsRoot():
		return KindRoot
	case len(pg.Refs) > 0:
		return KindPointer
	default:
		return KindData
	}
}

// Demote rewrites the committed version rooted at root (a front-tier
// block) into the archive and records it as the next snapshot of the
// given file object. It returns the snapshot entry and whether a new
// log entry was written — false means the version (or a byte-identical
// one) was already archived, which is a harmless no-op.
func (a *Archiver) Demote(object uint32, root block.Num) (Entry, bool, error) {
	// Pick up anything a sibling process demoted into the shared
	// archive since our index was built, so the idempotency check and
	// the Seq assignment below see its snapshots (and the rewrite
	// dedups onto its blocks).
	if err := a.Store.Refresh(); err != nil {
		return Entry{}, false, fmt.Errorf("archive: demote object %d: %w", object, err)
	}
	tree := &version.Tree{St: a.Front, Root: root}
	vscores := make(map[block.Num]Score)
	var pages, dedup uint64
	archRoot, err := tree.WalkArchive(func(p page.Path, canon *page.Page) (block.Num, error) {
		payload, err := canon.Encode(a.Store.BlockSize())
		if err != nil {
			return block.NilNum, fmt.Errorf("archive: demote object %d: encode %v: %w", object, p, err)
		}
		// Hash the stored form: the store pads payloads to its block
		// size, and VerifySnapshot recomputes the snapshot score from
		// what reads hand back.
		payload = a.Store.pad(payload)
		n, hit, err := a.Store.Put(a.Acct, kindOf(p, canon), payload)
		if err != nil {
			return block.NilNum, fmt.Errorf("archive: demote object %d: store %v: %w", object, p, err)
		}
		children := make([]Score, len(canon.Refs))
		for i, r := range canon.Refs {
			if r.IsNil() {
				children[i] = zeroScore
				continue
			}
			children[i] = vscores[r.Block]
		}
		vscores[n] = snapScore(payload, children)
		pages++
		if hit {
			dedup++
		}
		return n, nil
	})
	if err != nil {
		return Entry{}, false, err
	}
	a.pages.Add(pages)
	a.deduped.Add(dedup)
	if a.Ratio != nil && pages > 0 {
		a.Ratio.ObserveValue(float64(dedup) / float64(pages))
	}
	score := vscores[archRoot]
	if e, ok := a.Store.SnapshotByScore(object, score); ok {
		a.skipped.Add(1)
		return e, false, nil
	}
	e := Entry{Object: object, Seq: a.Store.LastSeq(object) + 1, Root: archRoot, Score: score}
	if err := a.Store.AppendSnapshot(a.Acct, e); err != nil {
		return Entry{}, false, err
	}
	a.demotes.Add(1)
	return e, true, nil
}

// VerifySnapshot re-walks an archived snapshot: every block is re-read
// through the score check, and the Merkle snapshot score is recomputed
// from the leaves up and compared against the log entry. Any damage —
// a flipped payload byte, a swapped block, a tampered log record —
// surfaces as an error satisfying errors.Is(err, block.ErrCorrupt).
func VerifySnapshot(st *Store, account block.Account, e Entry) error {
	got, err := verifyTree(st, account, e.Root)
	if err != nil {
		return err
	}
	if got != e.Score {
		return block.MarkCorrupt(fmt.Errorf("archive: snapshot %d of object %d: tree score %s, log records %s", e.Seq, e.Object, got, e.Score))
	}
	return nil
}

func verifyTree(st *Store, account block.Account, n block.Num) (Score, error) {
	payload, err := st.Read(account, n)
	if err != nil {
		return Score{}, err
	}
	pg, err := page.Decode(payload)
	if err != nil {
		return Score{}, block.MarkCorrupt(fmt.Errorf("archive: block %d: %w", n, err))
	}
	children := make([]Score, len(pg.Refs))
	for i, r := range pg.Refs {
		if r.IsNil() {
			continue
		}
		c, err := verifyTree(st, account, r.Block)
		if err != nil {
			return Score{}, err
		}
		children[i] = c
	}
	return snapScore(payload, children), nil
}

// Collect is the archive tier's metrics collector: the
// content-addressed store's counters and this archiver's demotions.
func (a *Archiver) Collect(e *metrics.Emitter) {
	st := a.Store.Stats()
	e.Counters("afs_archive_ops_total", "Archive-tier content-addressed store events by kind.", "op", map[string]uint64{
		"put": st.Puts, "stored": st.Stored, "dedup_hit": st.DedupHits,
		"read": st.Reads, "corrupt_read": st.CorruptReads,
	})
	const bytesHelp = "Archive payload bytes; dedup saves logical minus stored."
	e.Gauge("afs_archive_bytes", bytesHelp, float64(st.BytesLogical), "form", "logical")
	e.Gauge("afs_archive_bytes", bytesHelp, float64(st.BytesStored), "form", "stored")
	e.Gauge("afs_archive_snapshots", "Snapshot-log records held.", float64(st.Snapshots))
	for _, kind := range slices.Sorted(maps.Keys(st.BlocksByKind)) {
		e.Gauge("afs_archive_blocks", "Archive blocks by kind.", float64(st.BlocksByKind[kind]), "kind", kind)
	}
	as := a.Stats()
	e.Counters("afs_archive_demote_total", "Archiver demotion events by kind.", "event", map[string]uint64{
		"demoted": as.Demotes, "skipped": as.Skipped, "pages": as.Pages, "page_dedup": as.Deduped,
	})
	if a.Ratio != nil {
		e.Histogram("afs_archive_dedup_ratio", "Per-demote fraction of pages answered by existing archive blocks.", a.Ratio.Snapshot())
	}
}
