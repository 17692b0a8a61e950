package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/page"
)

// Fileset is the benchmark's view of the files it created: their
// capabilities and, per page, how many acknowledged commits have
// rewritten it. Every rewrite carries the page's previous counter plus
// one and conflicting read-modify-writes are redone, so under
// serialisable commits the stored counter must equal the model exactly —
// including on a page both clients hammer.
type Fileset struct {
	spec  Spec
	caps  []capability.Capability
	model [][]atomic.Uint64 // [file][page] acknowledged rewrites
}

func newFileset(spec Spec) *Fileset {
	fs := &Fileset{spec: spec, caps: make([]capability.Capability, spec.Files), model: make([][]atomic.Uint64, spec.Files)}
	for f := range fs.model {
		fs.model[f] = make([]atomic.Uint64, spec.Pages)
	}
	return fs
}

// Acked returns the total number of acknowledged page rewrites.
func (fs *Fileset) Acked() uint64 {
	var n uint64
	for f := range fs.model {
		for p := range fs.model[f] {
			n += fs.model[f][p].Load()
		}
	}
	return n
}

// Preload creates the files: clients[i] creates file f when f%len(clients)
// == i, each as a root page with spec.Pages children holding counter 0.
// Clients run concurrently, as they do under load.
func (fs *Fileset) Preload(clients []*client.Client) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for f := i; f < fs.spec.Files; f += len(clients) {
				if err := fs.createFile(c, i, f); err != nil {
					errs[i] = fmt.Errorf("preload file %d: %w", f, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (fs *Fileset) createFile(c *client.Client, ci, f int) error {
	fcap, err := c.CreateFile([]byte(fmt.Sprintf("bench file %d", f)))
	if err != nil {
		return err
	}
	v, err := c.Update(fcap, client.UpdateOpts{})
	if err != nil {
		return err
	}
	for p := 0; p < fs.spec.Pages; p++ {
		data := EncodePayload(Payload{File: uint32(f), Page: uint32(p), Client: uint32(ci)})
		if err := v.Insert(page.RootPath, p, data); err != nil {
			v.Abort()
			return err
		}
	}
	if err := v.Commit(); err != nil {
		return err
	}
	fs.caps[f] = fcap
	return nil
}

// AwaitVisible blocks until every client can open every file through
// its home peer: creates are acknowledged before the file table entry
// reaches the sibling peer.
func (fs *Fileset) AwaitVisible(clients []*client.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for _, c := range clients {
		for f := 0; f < fs.spec.Files; f++ {
			for {
				_, err := c.CurrentVersion(fs.caps[f])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("file %d not visible at every peer after %v: %w", f, patience, err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// Verify reads every page of every file through c and checks identity,
// checksum and counter against the model. It returns the number of pages
// that failed (an unreadable file counts all its pages).
func (fs *Fileset) Verify(c *client.Client, caps []capability.Capability) (bad int, first error) {
	return fs.verifySubset(c, caps, func(int) bool { return true })
}

// verifySubset is Verify over the files pick selects.
func (fs *Fileset) verifySubset(c *client.Client, caps []capability.Capability, pick func(f int) bool) (bad int, first error) {
	note := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	for f := 0; f < fs.spec.Files; f++ {
		if !pick(f) {
			continue
		}
		// Committed-state reads: no version is opened, so the check itself
		// writes nothing (a read inside an update sets access flags).
		root, err := c.CurrentVersion(caps[f])
		if err != nil {
			bad += fs.spec.Pages - 1
			note(fmt.Errorf("verify open file %d: %w", f, err))
			continue
		}
		for p := 0; p < fs.spec.Pages; p++ {
			data, _, err := c.ReadCommitted(caps[f], root, page.RootPath.Child(p))
			if err != nil {
				note(fmt.Errorf("verify read file %d page %d: %w", f, p, err))
				continue
			}
			got, err := DecodePayload(data)
			want := fs.model[f][p].Load()
			switch {
			case err != nil:
				note(fmt.Errorf("verify file %d page %d: %w", f, p, err))
			case got.File != uint32(f) || got.Page != uint32(p):
				note(fmt.Errorf("verify file %d page %d: holds file %d page %d", f, p, got.File, got.Page))
			case got.Counter != want:
				note(fmt.Errorf("verify file %d page %d: counter %d, %d commits acknowledged", f, p, got.Counter, want))
			}
		}
	}
	return bad, first
}

// OpResult is what one executed operation reports.
type OpResult struct {
	Kind     OpKind
	Attempts int
	Redo     time.Duration // time spent in attempts that ended in a conflict
	Err      error         // non-nil: the operation failed (errored or redos exhausted)
	BadPages int           // pages that failed the in-flight identity/checksum check
}

// Worker is one closed-loop client: it executes operations one at a time
// against its home peer.
type Worker struct {
	ID int
	C  *client.Client
	FS *Fileset
}

// Do runs op to completion, redoing on serialisability conflicts.
func (w *Worker) Do(op Op) OpResult {
	res := OpResult{Kind: op.Kind}
	for res.Attempts < maxAttempts {
		res.Attempts++
		start := time.Now()
		bad, err := w.attempt(op)
		res.BadPages += bad
		if err == nil {
			return res
		}
		if !errors.Is(err, client.ErrConflict) {
			res.Err = err
			return res
		}
		res.Redo += time.Since(start)
	}
	res.Err = fmt.Errorf("%v: %d attempts all conflicted", op, maxAttempts)
	return res
}

// attempt runs one try of op.
func (w *Worker) attempt(op Op) (bad int, err error) {
	tx, err := w.Begin(op)
	if err != nil {
		return 0, err
	}
	if err := tx.ReadWrite(); err != nil {
		tx.Abort()
		return tx.bad, err
	}
	return tx.bad, tx.Finish()
}

// Tx is one attempt of an operation, split into phases so a single
// driver goroutine can interleave two of them (the traced commit_hot
// run) and take the conflict path deterministically.
type Tx struct {
	w   *Worker
	op  Op
	v   *client.Version
	bad int
	// wrote lists the pages this attempt rewrote; they enter the model
	// only once the commit is acknowledged.
	wrote []int
}

// Begin opens the version.
func (w *Worker) Begin(op Op) (*Tx, error) {
	v, err := w.C.Update(w.FS.caps[op.File], client.UpdateOpts{})
	if err != nil {
		return nil, err
	}
	return &Tx{w: w, op: op, v: v}, nil
}

// ReadWrite performs the attempt's page reads and writes.
func (tx *Tx) ReadWrite() error {
	op := tx.op
	if op.Kind == OpBulk {
		for p := 0; p < tx.w.FS.spec.Pages; p++ {
			next := tx.w.FS.model[op.File][p].Load() + 1
			data := EncodePayload(Payload{File: uint32(op.File), Page: uint32(p), Client: uint32(tx.w.ID), Counter: next})
			if err := tx.v.Write(page.RootPath.Child(p), data); err != nil {
				return err
			}
			tx.wrote = append(tx.wrote, p)
		}
		return nil
	}
	for _, p := range op.Pages {
		data, _, err := tx.v.Read(page.RootPath.Child(p))
		if err != nil {
			return err
		}
		got, err := DecodePayload(data)
		if err != nil || got.File != uint32(op.File) || got.Page != uint32(p) {
			tx.bad++
		}
		if op.Kind != OpRMW {
			continue
		}
		next := EncodePayload(Payload{File: uint32(op.File), Page: uint32(p), Client: uint32(tx.w.ID), Counter: got.Counter + 1})
		if err := tx.v.Write(page.RootPath.Child(p), next); err != nil {
			return err
		}
		tx.wrote = append(tx.wrote, p)
	}
	return nil
}

// Finish commits (or, for a read, aborts) and on acknowledgement
// advances the model.
func (tx *Tx) Finish() error {
	if tx.op.Kind == OpRead {
		return tx.v.Abort()
	}
	if err := tx.v.Commit(); err != nil {
		return err
	}
	for _, p := range tx.wrote {
		tx.w.FS.model[tx.op.File][p].Add(1)
	}
	return nil
}

// Abort abandons the attempt.
func (tx *Tx) Abort() { tx.v.Abort() }

// Sample is one completed operation as the closed loop saw it.
type Sample struct {
	Kind    OpKind
	Latency time.Duration
}

// LoadResult is one client's record of a load window.
type LoadResult struct {
	Samples  []Sample
	Failed   int // operations that errored or exhausted their redos
	BadPages int
	FirstErr error
}

// RunClosedLoop drives every worker from its own generator in its own
// goroutine until the deadline; an operation in flight at the deadline
// runs to completion and is counted.
func RunClosedLoop(workers []*Worker, gens []*Gen, d time.Duration) []LoadResult {
	out := make([]LoadResult, len(workers))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &out[i]
			r.Samples = make([]Sample, 0, 1<<14)
			for time.Now().Before(deadline) {
				op := gens[i].Next()
				start := time.Now()
				res := workers[i].Do(op)
				lat := time.Since(start)
				r.BadPages += res.BadPages
				if res.Err != nil {
					r.Failed++
					if r.FirstErr == nil {
						r.FirstErr = res.Err
					}
					continue
				}
				r.Samples = append(r.Samples, Sample{Kind: res.Kind, Latency: lat})
			}
		}(i)
	}
	wg.Wait()
	return out
}
