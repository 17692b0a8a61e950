// Package blocktest is the backend-agnostic contract harness for
// block.Store / block.MultiStore implementations. It drives a reference
// store and a store under test through identical operation sequences in
// lockstep and requires identical outcomes: same success/failure
// classification (by sentinel error), same data, same allocation
// success, same recovery-scan sizes. Whatever the file service layers
// can observe through block.Store must not distinguish the backends.
//
// The canonical reference is the in-memory block.Server; segstore and
// the sharded facade each run the same scripts (and fuzz corpus)
// against it from their own contract tests.
package blocktest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/trace"
)

// Op is one step of a scripted sequence.
type Op struct {
	Op    string // alloc, write, rewrite, read, free, lock, unlock, recover, *multi
	Acct  block.Account
	N     int    // index into previously allocated blocks (out of range: bogus block)
	Data  string // payload for alloc/write
	Check func(t *testing.T, err error)
}

// Classify reduces an error to the contract-visible sentinel.
func Classify(err error) error {
	for _, s := range []error{block.ErrNoSpace, block.ErrNotAllocated, block.ErrNotOwner,
		block.ErrLocked, block.ErrNotLocked} {
		if errors.Is(err, s) {
			return s
		}
	}
	if err != nil {
		return errors.New("other")
	}
	return nil
}

// bogusNum is a block number the scripts never allocate, used for
// out-of-range indices so ownership and allocation violations get
// exercised on both stores.
const bogusNum = block.Num(4000)

// RunScript applies ops to both stores in lockstep, comparing outcomes.
// ref is the reference implementation, dut the store under test.
func RunScript(t *testing.T, ref, dut block.MultiStore, ops []Op) {
	t.Helper()
	var refBlocks, dutBlocks []block.Num
	pick := func(blocks []block.Num, i int) block.Num {
		if i < 0 || i >= len(blocks) {
			return bogusNum
		}
		return blocks[i]
	}
	for i, op := range ops {
		var refErr, dutErr error
		var refData, dutData []byte
		switch op.Op {
		case "alloc":
			var rn, dn block.Num
			rn, refErr = ref.Alloc(op.Acct, []byte(op.Data))
			dn, dutErr = dut.Alloc(op.Acct, []byte(op.Data))
			if (refErr == nil) != (dutErr == nil) {
				t.Fatalf("op %d alloc: ref err %v, dut err %v", i, refErr, dutErr)
			}
			if refErr == nil {
				refBlocks = append(refBlocks, rn)
				dutBlocks = append(dutBlocks, dn)
			}
		case "write":
			refErr = ref.Write(op.Acct, pick(refBlocks, op.N), []byte(op.Data))
			dutErr = dut.Write(op.Acct, pick(dutBlocks, op.N), []byte(op.Data))
		case "rewrite":
			// Write a block's current content back to it. On an ordinary
			// store this is a plain overwrite; on a write-once store it
			// is the only write that may succeed (an idempotent dedup
			// hit), so both classify identically. The reference copy is
			// the source of truth; if the block is unreadable (bogus or
			// foreign) fall back to op.Data so both stores still see the
			// same payload.
			payload := []byte(op.Data)
			if data, err := ref.Read(op.Acct, pick(refBlocks, op.N)); err == nil {
				payload = data
			}
			refErr = ref.Write(op.Acct, pick(refBlocks, op.N), payload)
			dutErr = dut.Write(op.Acct, pick(dutBlocks, op.N), payload)
		case "read":
			refData, refErr = ref.Read(op.Acct, pick(refBlocks, op.N))
			dutData, dutErr = dut.Read(op.Acct, pick(dutBlocks, op.N))
		case "free":
			refErr = ref.Free(op.Acct, pick(refBlocks, op.N))
			dutErr = dut.Free(op.Acct, pick(dutBlocks, op.N))
		case "lock":
			refErr = ref.Lock(op.Acct, pick(refBlocks, op.N))
			dutErr = dut.Lock(op.Acct, pick(dutBlocks, op.N))
		case "unlock":
			refErr = ref.Unlock(op.Acct, pick(refBlocks, op.N))
			dutErr = dut.Unlock(op.Acct, pick(dutBlocks, op.N))
		case "recover":
			var rr, dr []block.Num
			rr, refErr = ref.Recover(op.Acct)
			dr, dutErr = dut.Recover(op.Acct)
			if len(rr) != len(dr) {
				t.Fatalf("op %d recover(%d): ref %d blocks, dut %d blocks", i, op.Acct, len(rr), len(dr))
			}
		case "readmulti", "writemulti", "freemulti":
			// Three consecutive indices (some possibly bogus) exercise
			// the partial-failure contract on both stores at once.
			var refNs, dutNs []block.Num
			for k := 0; k < 3; k++ {
				refNs = append(refNs, pick(refBlocks, op.N+k))
				dutNs = append(dutNs, pick(dutBlocks, op.N+k))
			}
			switch op.Op {
			case "readmulti":
				var rd, dd [][]byte
				rd, refErr = ref.ReadMulti(op.Acct, refNs)
				dd, dutErr = dut.ReadMulti(op.Acct, dutNs)
				if refErr == nil && dutErr == nil {
					for k := range rd {
						if !bytes.Equal(rd[k], dd[k]) {
							t.Fatalf("op %d readmulti: entry %d disagrees", i, k)
						}
					}
				}
			case "writemulti":
				payloads := [][]byte{[]byte(op.Data + "-0"), []byte(op.Data + "-1"), []byte(op.Data + "-2")}
				refErr = ref.WriteMulti(op.Acct, refNs, payloads)
				dutErr = dut.WriteMulti(op.Acct, dutNs, payloads)
			case "freemulti":
				refErr = ref.FreeMulti(op.Acct, refNs)
				dutErr = dut.FreeMulti(op.Acct, dutNs)
			}
		case "allocmulti":
			payloads := [][]byte{[]byte(op.Data + "-a"), []byte(op.Data + "-b")}
			var rn, dn []block.Num
			rn, refErr = ref.AllocMulti(op.Acct, payloads)
			dn, dutErr = dut.AllocMulti(op.Acct, payloads)
			if (refErr == nil) != (dutErr == nil) {
				t.Fatalf("op %d allocmulti: ref err %v, dut err %v", i, refErr, dutErr)
			}
			if refErr == nil {
				refBlocks = append(refBlocks, rn...)
				dutBlocks = append(dutBlocks, dn...)
			}
		default:
			t.Fatalf("op %d: unknown op %q", i, op.Op)
		}
		if rc, dc := Classify(refErr), Classify(dutErr); !errors.Is(rc, dc) && (rc != nil || dc != nil) {
			t.Fatalf("op %d %s: ref %v, dut %v", i, op.Op, refErr, dutErr)
		}
		if op.Op == "read" && refErr == nil && !bytes.Equal(refData, dutData) {
			t.Fatalf("op %d read: backends disagree on contents (%q vs %q)", i, refData[:8], dutData[:8])
		}
		if op.Check != nil {
			op.Check(t, dutErr)
		}
	}
}

// ScriptOps decodes a fuzz input into an operation script: low nibble
// selects the operation, high nibble the block index (for alloc: the
// payload seed; the account alternates with the index so ownership
// violations get exercised too).
func ScriptOps(script []byte) []Op {
	if len(script) > 256 {
		script = script[:256]
	}
	var ops []Op
	for i, b := range script {
		idx := int(b >> 4)
		acct := block.Account(1 + idx%2)
		switch b & 0x0F {
		case 0, 1:
			ops = append(ops, Op{Op: "alloc", Acct: acct, Data: fmt.Sprintf("p%d-%d", i, idx)})
		case 2:
			ops = append(ops, Op{Op: "write", Acct: acct, N: idx, Data: fmt.Sprintf("w%d", i)})
		case 3:
			ops = append(ops, Op{Op: "read", Acct: acct, N: idx})
		case 4:
			ops = append(ops, Op{Op: "free", Acct: acct, N: idx})
		case 5:
			ops = append(ops, Op{Op: "lock", Acct: acct, N: idx})
		case 6:
			ops = append(ops, Op{Op: "unlock", Acct: acct, N: idx})
		case 7:
			ops = append(ops, Op{Op: "readmulti", Acct: acct, N: idx})
		case 8:
			ops = append(ops, Op{Op: "writemulti", Acct: acct, N: idx, Data: fmt.Sprintf("m%d", i)})
		case 9:
			ops = append(ops, Op{Op: "freemulti", Acct: acct, N: idx})
		case 10:
			ops = append(ops, Op{Op: "allocmulti", Acct: acct, Data: fmt.Sprintf("b%d-%d", i, idx)})
		default:
			ops = append(ops, Op{Op: "recover", Acct: acct})
		}
	}
	return ops
}

// WriteOnceOps decodes a fuzz input into a script that stays within the
// write-once subset of the contract, so an in-memory block.Server can
// serve as the lockstep reference for a content-addressed store. The
// differences from ScriptOps are forced by write-once semantics, not
// convenience: every op runs as account 1 (a content-addressed store
// dedups identical payloads across accounts, which would diverge from
// per-account ownership on the reference); alloc payloads are unique
// per op (duplicates dedup to one block on the archive but two on the
// reference, diverging recover-scan sizes); and the mutating ops —
// free, freemulti, write with fresh data, writemulti — are replaced by
// rewrite, which both stores accept.
func WriteOnceOps(script []byte) []Op {
	if len(script) > 256 {
		script = script[:256]
	}
	var ops []Op
	for i, b := range script {
		idx := int(b >> 4)
		switch b & 0x0F {
		case 0, 1, 2:
			ops = append(ops, Op{Op: "alloc", Acct: 1, Data: fmt.Sprintf("p%d-%d", i, idx)})
		case 3, 4:
			ops = append(ops, Op{Op: "read", Acct: 1, N: idx})
		case 5:
			ops = append(ops, Op{Op: "lock", Acct: 1, N: idx})
		case 6:
			ops = append(ops, Op{Op: "unlock", Acct: 1, N: idx})
		case 7:
			ops = append(ops, Op{Op: "readmulti", Acct: 1, N: idx})
		case 8, 9:
			ops = append(ops, Op{Op: "rewrite", Acct: 1, N: idx, Data: fmt.Sprintf("r%d", i)})
		case 10:
			ops = append(ops, Op{Op: "allocmulti", Acct: 1, Data: fmt.Sprintf("b%d-%d", i, idx)})
		default:
			ops = append(ops, Op{Op: "recover", Acct: 1})
		}
	}
	return ops
}

// ShardCounts is the set of log-lane counts a sharded-log backend's
// contract tests run the whole suite at: the single-lane degenerate
// case (the old layout), a two-lane split, and a wider spread. The
// contract must be invisible to lane count.
func ShardCounts() []int { return []int{1, 2, 4} }

// FuzzSeeds returns the shared seed corpus for contract fuzzing.
func FuzzSeeds() [][]byte {
	return [][]byte{
		{0x00, 0x10, 0x21, 0x32, 0x43, 0x04, 0x15},
		{0x00, 0x00, 0x00, 0x50, 0x50, 0x30, 0x30, 0x60},
		{0x00, 0x41, 0x41, 0x11, 0x21, 0x31, 0x01, 0x51, 0x11},
		{0x0a, 0x1a, 0x37, 0x48, 0x59, 0x2a, 0x07, 0x19, 0x3a},
	}
}

// MultiOpSuite drives the four multi-block operations through st,
// checking the partial-failure semantics of the MultiStore contract:
// WriteMulti/FreeMulti apply per-block and report the first error,
// ReadMulti is all-or-nothing, AllocMulti rolls back on failure.
// capacity is st's total allocatable block count (used to force an
// exhaustion failure).
func MultiOpSuite(t *testing.T, name string, st block.MultiStore, capacity int) {
	t.Helper()
	mine, err := st.AllocMulti(1, [][]byte{[]byte("a0"), []byte("a1"), []byte("a2"), []byte("a3")})
	if err != nil {
		t.Fatalf("%s: alloc: %v", name, err)
	}
	theirs, err := st.Alloc(2, []byte("theirs"))
	if err != nil {
		t.Fatalf("%s: foreign alloc: %v", name, err)
	}

	// ReadMulti round trip, then all-or-nothing on a foreign block.
	got, err := st.ReadMulti(1, mine)
	if err != nil {
		t.Fatalf("%s: read multi: %v", name, err)
	}
	for i := range got {
		want := fmt.Sprintf("a%d", i)
		if string(got[i][:2]) != want {
			t.Fatalf("%s: block %d = %q", name, i, got[i][:2])
		}
	}
	if _, err := st.ReadMulti(1, []block.Num{mine[0], theirs}); !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("%s: foreign read err = %v", name, err)
	}

	// WriteMulti with a foreign block in the middle: first error is
	// ErrNotOwner, the other two blocks are written regardless.
	err = st.WriteMulti(1,
		[]block.Num{mine[0], theirs, mine[2]},
		[][]byte{[]byte("w0"), []byte("xx"), []byte("w2")})
	if !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("%s: partial write err = %v", name, err)
	}
	if idx := block.MultiIndex(err, -1); idx != 1 {
		t.Fatalf("%s: partial write failing index = %d, want 1", name, idx)
	}
	for _, c := range []struct {
		n    block.Num
		want string
	}{{mine[0], "w0"}, {mine[1], "a1"}, {mine[2], "w2"}} {
		got, err := st.Read(1, c.n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got[:2]) != c.want {
			t.Fatalf("%s: block %d = %q, want %q", name, c.n, got[:2], c.want)
		}
	}
	if got, _ := st.Read(2, theirs); string(got[:6]) != "theirs" {
		t.Fatalf("%s: foreign block clobbered", name)
	}

	// AllocMulti beyond capacity: all-or-nothing rollback.
	over := make([][]byte, capacity)
	for i := range over {
		over[i] = []byte{byte(i)}
	}
	if _, err := st.AllocMulti(1, over); !errors.Is(err, block.ErrNoSpace) {
		t.Fatalf("%s: overflow err = %v", name, err)
	}
	before, _ := st.Recover(1)

	// FreeMulti with a foreign block: first error reported, the
	// caller's blocks still freed.
	err = st.FreeMulti(1, []block.Num{mine[0], theirs, mine[1]})
	if !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("%s: partial free err = %v", name, err)
	}
	if idx := block.MultiIndex(err, -1); idx != 1 {
		t.Fatalf("%s: partial free failing index = %d, want 1", name, idx)
	}
	if _, err := st.Read(1, mine[0]); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("%s: mine[0] survived: %v", name, err)
	}
	if _, err := st.Read(1, mine[1]); !errors.Is(err, block.ErrNotAllocated) {
		t.Fatalf("%s: mine[1] survived: %v", name, err)
	}
	if _, err := st.Read(2, theirs); err != nil {
		t.Fatalf("%s: foreign block freed: %v", name, err)
	}
	after, _ := st.Recover(1)
	if len(after) != len(before)-2 {
		t.Fatalf("%s: recover(1) %d blocks after freeing 2 of %d", name, len(after), len(before))
	}
}

// WriteOnceSuite checks the write-once contract of a content-addressed
// store: allocating identical content twice dedups to the same block,
// rewriting a block with its current content is an idempotent no-op,
// and every destructive operation — a write with different content,
// Free, FreeMulti — fails with the store's refusal sentinel (refuse,
// e.g. archive.ErrImmutable) while leaving the content intact.
func WriteOnceSuite(t *testing.T, name string, st block.MultiStore, refuse error) {
	t.Helper()
	payload := []byte("write-once payload")
	n, err := st.Alloc(1, payload)
	if err != nil {
		t.Fatalf("%s: alloc: %v", name, err)
	}
	again, err := st.Alloc(1, payload)
	if err != nil {
		t.Fatalf("%s: realloc: %v", name, err)
	}
	if again != n {
		t.Fatalf("%s: identical content allocated twice: block %d then %d", name, n, again)
	}

	if err := st.Write(1, n, payload); err != nil {
		t.Fatalf("%s: idempotent rewrite refused: %v", name, err)
	}
	if err := st.Write(1, n, []byte("different content")); !errors.Is(err, refuse) {
		t.Fatalf("%s: mutating write err = %v, want %v", name, err, refuse)
	}
	if err := st.Free(1, n); !errors.Is(err, refuse) {
		t.Fatalf("%s: free err = %v, want %v", name, err, refuse)
	}
	if err := st.FreeMulti(1, []block.Num{n}); !errors.Is(err, refuse) {
		t.Fatalf("%s: freemulti err = %v, want %v", name, err, refuse)
	}

	got, err := st.Read(1, n)
	if err != nil {
		t.Fatalf("%s: read after refused mutations: %v", name, err)
	}
	if len(got) < len(payload) || !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("%s: content changed despite write-once contract: %q", name, got)
	}
}

// ScalarOpts adapts ScalarSuite to one backend.
type ScalarOpts struct {
	// Capacity is the store's total allocatable block count, used to
	// force ErrNoSpace; 0 skips the exhaustion scenario (a store too
	// large to fill).
	Capacity int
	// Refuse, when set, selects the write-once variant: Free and a
	// Write of different content must fail with this sentinel, and the
	// only write that succeeds rewrites a block's current content.
	Refuse error
	// Stats reports the counters the scalar and the vectored call must
	// move identically; nil uses the store itself when it implements
	// block.StatsReporter (a trace-bound view passes the unbound store).
	Stats block.StatsReporter
	// Corrupt damages the store's copy of block n so the next read of
	// it hits block.ErrCorrupt or a companion repair; nil skips the
	// scenario. It is called before each of the two reads, since a
	// mirrored store repairs the damage while serving the first.
	Corrupt func(n block.Num)
	// Collide stages a companion-pair collision on block n, so writes
	// of it fail with block.ErrCollision until release is called; nil
	// skips the scenario.
	Collide func(n block.Num) (release func())
}

// ScalarSuite checks that the scalar Alloc/Free/Read/Write of st are
// exactly its vectored operations at length one — the single data path
// of the block spine. Every scenario runs the scalar call and the
// one-element vectored call from equivalent states and requires the
// same data, the same sentinel (which must also be what the in-memory
// block.Server reference reports for the scenario, where it has an
// equivalent), the same block.Stats movement, and that the scalar's
// error is never a *block.MultiError while the vectored one always is:
// a vector of one unwraps to the plain per-block error.
func ScalarSuite(t *testing.T, name string, st block.MultiStore, o ScalarOpts) {
	t.Helper()
	sentinels := []error{block.ErrNotAllocated, block.ErrNotOwner, block.ErrLocked,
		block.ErrNotLocked, block.ErrCorrupt, block.ErrCollision, block.ErrNoSpace}
	if o.Refuse != nil {
		sentinels = append(sentinels, o.Refuse)
	}
	other := errors.New("other")
	classify := func(err error) error {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return s
			}
		}
		if err != nil {
			return other
		}
		return nil
	}
	stats := o.Stats
	if stats == nil {
		stats, _ = st.(block.StatsReporter)
	}
	snap := func() block.Stats {
		t.Helper()
		if stats == nil {
			return block.Stats{}
		}
		s, err := stats.BlockStats()
		if err != nil {
			t.Fatalf("%s: stats: %v", name, err)
		}
		return s
	}
	moved := func(a, b block.Stats) block.Stats {
		return block.Stats{Allocs: b.Allocs - a.Allocs, Frees: b.Frees - a.Frees,
			Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes, Locks: b.Locks - a.Locks,
			Unlocks: b.Unlocks - a.Unlocks, LockConflicts: b.LockConflicts - a.LockConflicts,
			Syncs: b.Syncs - a.Syncs}
	}
	// check runs the scalar and the vectored form of one scenario and
	// compares everything observable; want is the reference's verdict.
	type call func() ([]byte, error)
	check := func(what string, want error, scalar, vector call) {
		t.Helper()
		s0 := snap()
		sd, serr := scalar()
		s1 := snap()
		vd, verr := vector()
		s2 := snap()
		var me *block.MultiError
		if errors.As(serr, &me) {
			t.Fatalf("%s: %s: scalar error is a MultiError: %v", name, what, serr)
		}
		if verr != nil && !errors.As(verr, &me) {
			t.Fatalf("%s: %s: vectored error carries no MultiError index: %v", name, what, verr)
		}
		if classify(serr) != classify(verr) {
			t.Fatalf("%s: %s: scalar %v, vector-of-one %v", name, what, serr, verr)
		}
		if classify(serr) != want {
			t.Fatalf("%s: %s: got %v, reference says %v", name, what, serr, want)
		}
		if !bytes.Equal(sd, vd) {
			t.Fatalf("%s: %s: scalar and vector-of-one disagree on data", name, what)
		}
		if d1, d2 := moved(s0, s1), moved(s1, s2); d1 != d2 {
			t.Fatalf("%s: %s: stats moved %+v by the scalar, %+v by the vector of one", name, what, d1, d2)
		}
	}
	read := func(acct block.Account, n block.Num) (scalar, vector call) {
		return func() ([]byte, error) { return st.Read(acct, n) },
			func() ([]byte, error) {
				out, err := st.ReadMulti(acct, []block.Num{n})
				if err != nil {
					return nil, err
				}
				return out[0], nil
			}
	}
	write := func(acct block.Account, n block.Num, payload string) (scalar, vector call) {
		return func() ([]byte, error) { return nil, st.Write(acct, n, []byte(payload)) },
			func() ([]byte, error) {
				return nil, st.WriteMulti(acct, []block.Num{n}, [][]byte{[]byte(payload)})
			}
	}
	// alloc and free take one block per form: the operation consumes it.
	var allocated []block.Num
	alloc := func(a, b string) (scalar, vector call) {
		return func() ([]byte, error) {
				n, err := st.Alloc(1, []byte(a))
				allocated = append(allocated, n)
				return nil, err
			}, func() ([]byte, error) {
				ns, err := st.AllocMulti(1, [][]byte{[]byte(b)})
				allocated = append(allocated, ns...)
				return nil, err
			}
	}
	free := func(a, b block.Num) (scalar, vector call) {
		return func() ([]byte, error) { return nil, st.Free(1, a) },
			func() ([]byte, error) { return nil, st.FreeMulti(1, []block.Num{b}) }
	}

	// The reference replays the plain scenarios to say which sentinel
	// each must produce.
	ref := block.NewServer(disk.MustNew(disk.Geometry{Blocks: 64, BlockSize: st.BlockSize()}))
	setup := func(s block.Store, acct block.Account, payload string) block.Num {
		t.Helper()
		n, err := s.Alloc(acct, []byte(payload))
		if err != nil {
			t.Fatalf("%s: setup alloc: %v", name, err)
		}
		return n
	}
	const content = "scalar-mine"
	mine, rmine := setup(st, 1, content), setup(ref, 1, content)
	theirs, rtheirs := setup(st, 2, "scalar-theirs"), setup(ref, 2, "scalar-theirs")

	// Distinct payloads: a content-addressed store would turn a repeat
	// into a dedup hit, a different counter movement.
	s, v := alloc("scalar-a", "scalar-b")
	check("alloc", nil, s, v)

	for _, c := range []struct {
		what   string
		n, ref block.Num
	}{{"own block", mine, rmine}, {"foreign block", theirs, rtheirs}, {"unallocated block", bogusNum, bogusNum}} {
		_, rerr := ref.Read(1, c.ref)
		s, v = read(1, c.n)
		check("read "+c.what, classify(rerr), s, v)
		// Rewriting the current content is the one write every store,
		// write-once included, accepts.
		s, v = write(1, c.n, content)
		check("write "+c.what, classify(ref.Write(1, c.ref, []byte(content))), s, v)
		if c.n != mine { // a refused free leaves the block for the next form
			want := classify(ref.Free(1, c.ref))
			if o.Refuse != nil {
				want = o.Refuse
			}
			s, v = free(c.n, c.n)
			check("free "+c.what, want, s, v)
		}
	}
	if o.Refuse != nil {
		s, v = write(1, mine, "different content")
		check("write of different content", o.Refuse, s, v)
	}

	// Data operations ignore the advisory lock bit: a locked block
	// reads and rewrites exactly like an unlocked one, both ways.
	if err := st.Lock(1, mine); err != nil {
		t.Fatalf("%s: lock: %v", name, err)
	}
	s, v = read(1, mine)
	check("read locked block", nil, s, v)
	s, v = write(1, mine, content)
	check("write locked block", nil, s, v)
	if err := st.Unlock(1, mine); err != nil {
		t.Fatalf("%s: unlock: %v", name, err)
	}

	if o.Collide != nil {
		release := o.Collide(mine)
		s, v = write(1, mine, content)
		check("write under a companion collision", block.ErrCollision, s, v)
		release()
	}

	if o.Corrupt != nil {
		// A plain store refuses with ErrCorrupt, a mirror repairs and
		// serves: the backend's own tests pin which; here only that
		// both forms do the same.
		damaged := func(c call) call {
			return func() ([]byte, error) {
				o.Corrupt(mine)
				return c()
			}
		}
		s, v = read(1, mine)
		_, err := damaged(s)()
		check("read corrupt block", classify(err), damaged(s), damaged(v))
	}

	s, v = free(allocated[0], allocated[1])
	check("free own block", o.Refuse, s, v)

	// Exhaustion: fill the store, then one more each way.
	if o.Capacity > 0 {
		for i := 0; ; i++ {
			if i > o.Capacity {
				t.Fatalf("%s: %d allocations into a %d-block store all succeeded", name, i, o.Capacity)
			}
			if _, err := st.Alloc(1, []byte(fmt.Sprintf("scalar-fill-%d", i))); err != nil {
				break
			}
		}
		s, v = alloc("scalar-over-a", "scalar-over-b")
		check("alloc on a full store", block.ErrNoSpace, s, v)
	}
}

// TraceBound returns st's view bound to a sampled trace context (what a
// traced request runs against); the trace ends with the test. The bound
// views are stores in their own right — the shard and mirror
// views carry their own scalar adapter — so the contract suites run on
// them too.
func TraceBound(t *testing.T, st block.Store) block.MultiStore {
	t.Helper()
	sp, ctx := trace.New(1, 0, 4).Start("test", "contract")
	t.Cleanup(func() { sp.End(nil) })
	if !ctx.Sampled() {
		t.Fatal("blocktest: trace context not sampled")
	}
	bound, ok := block.BindTrace(st, ctx).(block.MultiStore)
	if !ok {
		t.Fatalf("blocktest: trace-bound view of %T lost the vectored surface", st)
	}
	return bound
}

// ClaimOpts adapts ClaimSuite to one backend.
type ClaimOpts struct {
	// Capacity is the store's highest block number (numbers run
	// 1..Capacity); the suite claims free numbers from the top down.
	Capacity int
	// Big is the length of a vector of full-block payloads claimed in
	// one call (0 skips the step). Over the wire, pick it so the vector
	// overflows one rpc.MaxData frame.
	Big int
	// Syncs, when set, reads the fsync counter that the Big claim may
	// move by at most MaxSyncs: proof that the call reached the native
	// one-group path rather than one durable claim per number.
	Syncs    func() uint64
	MaxSyncs uint64
}

// ClaimSuite checks the block.ClaimMulti contract on st: claimed blocks
// read back their payloads and belong to the claimer; a vector with a
// number that is taken, out of range or listed twice is refused whole —
// nothing stays claimed, a taken block keeps its owner and data — and
// the refusal is reported at that number's index.
func ClaimSuite(t *testing.T, name string, st block.Store, o ClaimOpts) {
	t.Helper()
	held, err := st.Alloc(2, []byte("held"))
	if err != nil {
		t.Fatalf("%s: alloc: %v", name, err)
	}
	used := map[block.Num]bool{}
	for _, acct := range []block.Account{1, 2} {
		ns, err := st.Recover(acct)
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		for _, n := range ns {
			used[n] = true
		}
	}
	var free []block.Num
	for n := block.Num(o.Capacity); n > block.NilNum && len(free) < 3+o.Big; n-- {
		if !used[n] {
			free = append(free, n)
		}
	}
	if len(free) < 3+o.Big {
		t.Fatalf("%s: %d free numbers, the suite needs %d", name, len(free), 3+o.Big)
	}
	some := free[:3]
	data := [][]byte{[]byte("claim-0"), []byte("claim-1"), []byte("claim-2")}
	unclaimed := func(what string, ns ...block.Num) {
		t.Helper()
		for _, n := range ns {
			if _, err := st.Read(1, n); !errors.Is(err, block.ErrNotAllocated) {
				t.Fatalf("%s: %s: block %d is claimed after the refusal (read err %v)", name, what, n, err)
			}
		}
	}
	for _, c := range []struct {
		what string
		ns   []block.Num
	}{
		{"taken number", []block.Num{some[0], held, some[1]}},
		{"out-of-range number", []block.Num{some[0], block.Num(o.Capacity + 1), some[1]}},
		{"number listed twice", []block.Num{some[0], some[0], some[1]}},
	} {
		err := block.ClaimMulti(st, 1, c.ns, data)
		if err == nil {
			t.Fatalf("%s: claim of a vector with a %s succeeded", name, c.what)
		}
		if at := block.MultiIndex(err, -1); at != 1 {
			t.Fatalf("%s: %s: refusal at index %d, want 1 (%v)", name, c.what, at, err)
		}
		unclaimed(c.what, some[0], some[1])
	}
	if got, err := st.Read(2, held); err != nil || !bytes.HasPrefix(got, []byte("held")) {
		t.Fatalf("%s: the taken block after the refusals: %q, %v", name, got, err)
	}

	if err := block.ClaimMulti(st, 1, some, data); err != nil {
		t.Fatalf("%s: claim: %v", name, err)
	}
	got, err := block.ReadMulti(st, 1, some)
	if err != nil {
		t.Fatalf("%s: read claimed: %v", name, err)
	}
	for i := range some {
		if !bytes.HasPrefix(got[i], data[i]) {
			t.Fatalf("%s: claimed block %d reads %q, want %q", name, some[i], got[i], data[i])
		}
	}
	if _, err := st.Read(2, some[0]); !errors.Is(err, block.ErrNotOwner) {
		t.Fatalf("%s: claimed block read by another account: err %v, want ErrNotOwner", name, err)
	}

	if o.Big > 0 {
		big := free[3 : 3+o.Big]
		payloads := make([][]byte, len(big))
		for i := range payloads {
			payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, st.BlockSize())
		}
		var before uint64
		if o.Syncs != nil {
			before = o.Syncs()
		}
		if err := block.ClaimMulti(st, 1, big, payloads); err != nil {
			t.Fatalf("%s: claim of %d full blocks: %v", name, len(big), err)
		}
		if o.Syncs != nil {
			if moved := o.Syncs() - before; moved > o.MaxSyncs {
				t.Fatalf("%s: claim of %d blocks made %d fsyncs, want <= %d", name, len(big), moved, o.MaxSyncs)
			}
		}
		got, err := block.ReadMulti(st, 1, big)
		if err != nil {
			t.Fatalf("%s: read %d claimed blocks: %v", name, len(big), err)
		}
		for i := range big {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("%s: claimed block %d of %d does not read back its payload", name, i, len(big))
			}
		}
		if err := block.FreeMulti(st, 1, big); err != nil {
			t.Fatalf("%s: free: %v", name, err)
		}
	}
	if err := block.FreeMulti(st, 1, some); err != nil {
		t.Fatalf("%s: free: %v", name, err)
	}
	if err := st.Free(2, held); err != nil {
		t.Fatalf("%s: free: %v", name, err)
	}
}
