package occ

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/capability"
	"repro/internal/page"
	"repro/internal/version"
)

// TestSerialisabilityOracle is the safety net for the whole §5.2
// mechanism: for many random pairs of concurrent updates (B, C) of the
// same base file, C commits first and B validates against it. Whenever
// B's commit is ALLOWED, the resulting file state must equal the state
// produced by executing C then B serially — B re-reading its inputs from
// C's output and reapplying its writes. False conflicts cost a redo;
// false commits would corrupt data, and this test hunts exactly those.
func TestSerialisabilityOracle(t *testing.T) {
	const (
		pages  = 8
		trials = 400
	)
	rng := rand.New(rand.NewSource(20260610))

	type op struct {
		read bool
		pg   int
	}
	// randomOps builds a random access script: reads and read-dependent
	// or blind writes.
	randomOps := func() []op {
		n := 1 + rng.Intn(4)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{read: rng.Intn(2) == 0, pg: rng.Intn(pages)}
		}
		return ops
	}

	for trial := 0; trial < trials; trial++ {
		f := newFixture(t)
		base := f.newFile(t, pages)

		bOps, cOps := randomOps(), randomOps()
		// The value written to page p by update u at step k encodes
		// reads-so-far so that "derived" writes differ when reads do:
		// this makes a wrongly allowed commit visible in the data.
		apply := func(tr *version.Tree, ops []op, tag string) (bool, error) {
			sum := 0
			for k, o := range ops {
				if o.read {
					data, _, err := tr.ReadPage(page.Path{o.pg})
					if err != nil {
						return false, err
					}
					sum += len(data)
					continue
				}
				val := fmt.Sprintf("%s-%d-%d", tag, k, sum)
				if err := tr.WritePage(page.Path{o.pg}, []byte(val)); err != nil {
					return false, err
				}
			}
			return true, nil
		}

		// Concurrent run: both based on base; C commits first.
		vb := f.newVersion(t, base.Root)
		vc := f.newVersion(t, base.Root)
		if _, err := apply(vb, bOps, "B"); err != nil {
			t.Fatal(err)
		}
		if _, err := apply(vc, cOps, "C"); err != nil {
			t.Fatal(err)
		}
		if err := f.com.Commit(vc, capability.NilPort); err != nil {
			t.Fatalf("trial %d: C commit: %v", trial, err)
		}
		err := f.com.Commit(vb, capability.NilPort)
		allowed := err == nil
		if err != nil && !errors.Is(err, ErrConflict) {
			t.Fatalf("trial %d: B commit: %v", trial, err)
		}
		if !allowed {
			continue // a conflict is always safe (possibly wasteful)
		}

		// Serial oracle on an identical fresh file: C then B.
		g := newFixture(t)
		gBase := g.newFile(t, pages)
		sc := g.newVersion(t, gBase.Root)
		if _, err := apply(sc, cOps, "C"); err != nil {
			t.Fatal(err)
		}
		if err := g.com.Commit(sc, capability.NilPort); err != nil {
			t.Fatal(err)
		}
		sb := g.newVersion(t, sc.Root)
		if _, err := apply(sb, bOps, "B"); err != nil {
			t.Fatal(err)
		}
		if err := g.com.Commit(sb, capability.NilPort); err != nil {
			t.Fatalf("trial %d: serial B commit: %v", trial, err)
		}

		// Both current states must agree page for page... with one
		// caveat: B's derived values embed the LENGTHS of what B read,
		// and the §5.2 rule admits B only when its read set is
		// untouched by C — so B's writes must be byte-identical in
		// both runs, and pages B did not write must carry C's (or the
		// base's) value identically.
		cur := f.mustCurrent(t, base.Root)
		oracle := g.mustCurrent(t, gBase.Root)
		for p := 0; p < pages; p++ {
			got, err := cur.PeekPage(page.Path{p})
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.PeekPage(page.Path{p})
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Data) != string(want.Data) {
				t.Fatalf("trial %d page %d: concurrent=%q serial=%q\nbOps=%+v\ncOps=%+v",
					trial, p, got.Data, want.Data, bOps, cOps)
			}
		}
	}
}
