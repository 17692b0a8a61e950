// Package disk simulates the raw disks underneath the block servers.
//
// This is the *simulated* backend: blocks live in RAM and vanish with
// the process, which is what makes the crash and corruption faults
// below cheap to inject and deterministic to test against. The durable
// backend — a persistent segment-log block store on the real OS
// filesystem — is internal/segstore; it implements the same block.Store
// interface, so every layer above runs on either.
//
// The paper's block service (§4) assumes disks whose writes are atomic and
// acknowledged only once the data is on the platter, which "do not usually
// lose their information in a crash, but it does happen occasionally" and
// which may become "at least temporarily inaccessible". This package
// reproduces exactly that behaviour for a laptop-scale reproduction:
//
//   - fixed-size blocks, atomic write-with-ack;
//   - crash simulation: a crash discards writes that were issued but not
//     yet acknowledged, and takes the disk offline until repaired;
//   - corruption injection: individual blocks can be damaged so that reads
//     return ErrCorrupt, which is what drives the companion-server read
//     fallback in the stable-storage layer.
//
// The zero Disk is not usable; create disks with New.
package disk

import (
	"errors"
	"fmt"
	"sync"
)

// Common failure modes of the simulated hardware.
var (
	// ErrOffline reports that the disk has crashed or been taken offline
	// and is not serving requests.
	ErrOffline = errors.New("disk: offline")
	// ErrCorrupt reports that the stored block failed its checksum, as
	// after a partial write or media decay.
	ErrCorrupt = errors.New("disk: block corrupt")
	// ErrBadBlock reports an out-of-range block number.
	ErrBadBlock = errors.New("disk: block number out of range")
	// ErrBadSize reports a write whose payload does not fit the block.
	ErrBadSize = errors.New("disk: bad write size")
)

// Geometry describes a simulated disk.
type Geometry struct {
	// Blocks is the number of addressable blocks.
	Blocks int
	// BlockSize is the size of each block in bytes. The paper's pages
	// are at most 32 KiB (one transaction message), so block servers
	// built on this disk typically use 32 KiB or smaller blocks.
	BlockSize int
}

// DefaultGeometry is a small, fast disk suitable for tests.
func DefaultGeometry() Geometry {
	return Geometry{Blocks: 4096, BlockSize: 4096}
}

// Stats counts operations served since the disk was created. Reads and
// writes rejected with an error are not counted.
type Stats struct {
	Reads     uint64
	Writes    uint64
	Crashes   uint64
	BadReads  uint64 // reads that returned ErrCorrupt
	SyncLoss  uint64 // blocks lost to crash while unacknowledged
	Corrupted uint64 // blocks damaged by InjectCorruption
}

// Disk is one simulated drive. All methods are safe for concurrent use.
type Disk struct {
	geo Geometry

	mu      sync.Mutex
	data    [][]byte // nil entry = never written
	bad     map[int]bool
	offline bool
	stats   Stats

	// pending holds writes issued while the disk is in "unsafe" window;
	// used only through WriteUnacked + Sync to model crash loss.
	pending map[int][]byte
}

// New creates a disk with the given geometry.
func New(geo Geometry) (*Disk, error) {
	if geo.Blocks <= 0 {
		return nil, fmt.Errorf("disk: geometry needs at least one block, got %d", geo.Blocks)
	}
	if geo.BlockSize <= 0 {
		return nil, fmt.Errorf("disk: geometry needs positive block size, got %d", geo.BlockSize)
	}
	return &Disk{
		geo:     geo,
		data:    make([][]byte, geo.Blocks),
		bad:     make(map[int]bool),
		pending: make(map[int][]byte),
	}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(geo Geometry) *Disk {
	d, err := New(geo)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// Stats returns a snapshot of the operation counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Disk) checkBlock(n int) error {
	if n < 0 || n >= d.geo.Blocks {
		return fmt.Errorf("block %d of %d: %w", n, d.geo.Blocks, ErrBadBlock)
	}
	return nil
}

// Read returns a copy of block n. Reading a never-written block returns a
// zeroed block, as raw disks do.
func (d *Disk) Read(n int) ([]byte, error) {
	if err := d.checkBlock(n); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.offline {
		d.mu.Unlock()
		return nil, ErrOffline
	}
	if d.bad[n] {
		d.stats.BadReads++
		d.mu.Unlock()
		return nil, fmt.Errorf("block %d: %w", n, ErrCorrupt)
	}
	buf := make([]byte, d.geo.BlockSize)
	copy(buf, d.data[n])
	d.stats.Reads++
	d.mu.Unlock()
	return buf, nil
}

// Write stores p in block n atomically and acknowledges only after the
// data is durable (survives a subsequent Crash). p may be shorter than the
// block; the remainder is zero-filled. This is the §4 "atomic action, with
// an acknowledgement that is returned after the block has been stored".
func (d *Disk) Write(n int, p []byte) error {
	if err := d.checkBlock(n); err != nil {
		return err
	}
	if len(p) > d.geo.BlockSize {
		return fmt.Errorf("%d bytes into %d-byte block: %w", len(p), d.geo.BlockSize, ErrBadSize)
	}
	d.mu.Lock()
	if d.offline {
		d.mu.Unlock()
		return ErrOffline
	}
	buf := make([]byte, d.geo.BlockSize)
	copy(buf, p)
	d.data[n] = buf
	delete(d.bad, n) // a full overwrite repairs media corruption
	d.stats.Writes++
	d.mu.Unlock()
	return nil
}

// WriteUnacked stages a write that is NOT yet durable: a Crash before Sync
// loses it. The block-server layer uses acknowledged writes for committed
// state and unacked writes to model in-flight updates cut down by a crash.
func (d *Disk) WriteUnacked(n int, p []byte) error {
	if err := d.checkBlock(n); err != nil {
		return err
	}
	if len(p) > d.geo.BlockSize {
		return fmt.Errorf("%d bytes into %d-byte block: %w", len(p), d.geo.BlockSize, ErrBadSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.offline {
		return ErrOffline
	}
	buf := make([]byte, d.geo.BlockSize)
	copy(buf, p)
	d.pending[n] = buf
	return nil
}

// Sync makes all staged writes durable.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.offline {
		return ErrOffline
	}
	for n, buf := range d.pending {
		d.data[n] = buf
		delete(d.bad, n)
		d.stats.Writes++
	}
	d.pending = make(map[int][]byte)
	return nil
}

// Crash takes the disk offline, discarding staged (unacknowledged) writes.
// Durable blocks survive; that is the §4 observation that disks "do not
// usually lose their information in a crash".
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.offline = true
	d.stats.Crashes++
	d.stats.SyncLoss += uint64(len(d.pending))
	d.pending = make(map[int][]byte)
}

// Repair brings a crashed disk back online.
func (d *Disk) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.offline = false
}

// Offline reports whether the disk is serving requests.
func (d *Disk) Offline() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.offline
}

// InjectCorruption damages block n so subsequent reads fail with
// ErrCorrupt until the block is rewritten. It models media decay and the
// "block on its disk is corrupted" case that forces a block server to
// consult its companion (§4).
func (d *Disk) InjectCorruption(n int) error {
	if err := d.checkBlock(n); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bad[n] = true
	d.stats.Corrupted++
	return nil
}

// Snapshot returns a deep copy of all written blocks, for test assertions
// and for modelling an operator imaging a drive.
func (d *Disk) Snapshot() map[int][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int][]byte, len(d.data))
	for n, b := range d.data {
		if b == nil {
			continue
		}
		cp := make([]byte, len(b))
		copy(cp, b)
		out[n] = cp
	}
	return out
}
