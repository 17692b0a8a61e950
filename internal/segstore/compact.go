package segstore

import (
	"fmt"
	"os"
	"time"

	"repro/internal/block"
)

// The compactor reclaims the space of superseded records. Like the
// paper's §5.4 garbage collector it runs "independent of, and in
// parallel with" normal operation: it never blocks the write path,
// because relocations travel through the owning lane's appender like
// ordinary writes and carry a location guard — if a client write
// supersedes a record between the compactor reading it and the appender
// copying it, the guard no longer matches and the stale copy is simply
// skipped. Reclaimed segment files are not deleted but recycled into
// the lane's free pool (up to maxPool), so a steady-state workload
// reuses the same few files via pwrite at offset 0 instead of paying
// file creation and extension metadata churn for every segment.

// compactLoop runs a compaction pass at the configured interval until
// Close, round-robining across lanes so every lane's garbage gets
// attention even when one lane is the churn hotspot.
func (s *Store) compactLoop() {
	defer s.compactWG.Done()
	t := time.NewTicker(s.opt.CompactEvery)
	defer t.Stop()
	next := 0
	for {
		select {
		case <-s.stopCompact:
			return
		case <-t.C:
			for i := 0; i < len(s.lanes); i++ {
				li := (next + i) % len(s.lanes)
				if s.compactLane(li) {
					next = (li + 1) % len(s.lanes)
					break
				}
			}
		}
	}
}

// compactLane runs one background pass over a lane, recording the
// outcome: the loop has no caller to return an error to, and a read
// error during victim snapshotting leaves the victim in place — the
// compactor would otherwise retry forever in silence. The error lands
// in Stats().CompactErrors and LastCompactError, cleared again by the
// next pass that reclaims a segment.
func (s *Store) compactLane(li int) bool {
	did, err := s.compact(li)
	s.mu.Lock()
	if err != nil {
		s.stats.CompactErrors++
		s.compactErr = err
	} else if did {
		s.compactErr = nil
	}
	s.mu.Unlock()
	return did
}

// compactMinGarbage is the fraction of a sealed segment's records that
// must be dead before it is an eligible compaction victim.
const compactMinGarbage = 0.5

// CompactOnce picks the sealed segment with the most garbage across all
// lanes (dead records ≥ compactMinGarbage of its records), copies its
// live records to the owning lane's log tail, and recycles the file
// into that lane's free pool. It reports whether a segment was
// reclaimed.
func (s *Store) CompactOnce() (bool, error) { return s.compact(-1) }

// compact runs one compaction pass over lane laneIdx, or over every
// lane when laneIdx is negative. Passes are serialised: two concurrent
// passes could elect the same victim and reclaim it twice.
func (s *Store) compact(laneIdx int) (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	type liveRec struct {
		num  uint32
		at   loc
		data []byte
	}

	s.mu.Lock()
	if s.closed || s.failed != nil {
		s.mu.Unlock()
		return false, s.failed
	}
	var victim *segment
	var victimLane *lane
	var garbage int
	for _, l := range s.lanes {
		if laneIdx >= 0 && l.id != laneIdx {
			continue
		}
		for id, seg := range l.segs {
			if seg == l.active || seg.records == 0 {
				continue
			}
			g := seg.records - s.idx.live[segKey{lane: l.id, seg: id}]
			if g == 0 || float64(g) < float64(seg.records)*compactMinGarbage {
				continue
			}
			if victim == nil || g > garbage {
				victim, victimLane, garbage = seg, l, g
			}
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return false, nil
	}
	// Snapshot the victim's live records while holding the lock: the
	// lane syncers cannot move the index under us here, so data and
	// guard location are consistent.
	var lives []liveRec
	for n, e := range s.idx.entries {
		if e.loc.lane != victimLane.id || e.loc.seg != victim.id {
			continue
		}
		data, err := s.readRecord(n, e.loc)
		if err != nil {
			s.mu.Unlock()
			return false, fmt.Errorf("compact lane %d segment %d: %w", victimLane.id, victim.id, err)
		}
		lives = append(lives, liveRec{num: uint32(n), at: e.loc, data: data})
	}
	s.mu.Unlock()

	// Relocate through the owning lane's appender (guarded), as batched
	// request groups so group commit folds them into few fsyncs. The
	// block numbers all hash to victimLane, so the whole relocation
	// rides that one lane's pipeline.
	reqs := make([]*writeReq, len(lives))
	for i, lr := range lives {
		at := lr.at
		r := getReq()
		r.kind, r.num, r.onlyIf, r.data = recData, block.Num(lr.num), &at, lr.data
		reqs[i] = r
	}
	_, err := s.submitMany(reqs)
	for _, r := range reqs {
		putReq(r)
	}
	if err != nil {
		return false, err
	}

	// Retire the victim. Everything — including the file operations —
	// happens under s.mu so Close cannot close the file out from under
	// the rename, and a pool insert cannot race closeFiles.
	key := segKey{lane: victimLane.id, seg: victim.id}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.idx.live[key] != 0 {
		// A nonzero live count means a guard skipped a record that was
		// superseded mid-flight and its replacement lives elsewhere —
		// or genuinely still here. Leave the victim for the next round.
		return false, nil
	}
	delete(victimLane.segs, victim.id)
	delete(s.idx.live, key)
	s.stats.Compactions++
	s.stats.SegmentsReclaimed++

	if len(victimLane.pool) < maxPool {
		// Recycle: park the file under a pool- name, keeping its id so
		// pool names never collide (segment ids are never reused while
		// the file exists — nextSeg accounts for pool ids too). The
		// stale bytes inside are harmless: reuse pwrites from offset 0
		// and truncates, and the on-open scan's sequence-monotonicity
		// rule cuts any remnant of a crash-orphaned pool file.
		if err := os.Rename(segPath(victimLane.dir, victim.id), poolPath(victimLane.dir, victim.id)); err != nil {
			victim.f.Close()
			return false, err
		}
		if s.opt.Sync != SyncNone {
			if err := victimLane.dirf.Sync(); err != nil {
				victim.f.Close()
				return false, err
			}
		}
		victim.records = 0
		victimLane.pool = append(victimLane.pool, victim)
		return true, nil
	}
	// Pool full: actually delete.
	victim.f.Close()
	if err := os.Remove(segPath(victimLane.dir, victim.id)); err != nil {
		return false, err
	}
	if s.opt.Sync != SyncNone {
		if err := victimLane.dirf.Sync(); err != nil {
			return false, err
		}
	}
	return true, nil
}
