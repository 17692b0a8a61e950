package block

import (
	"errors"
	"fmt"
)

// Multi-block operations. Every page touch in the file service is one
// block operation, and over a network transport one operation is one
// framed round trip; a copy-on-write flush of an N-page subtree costs
// O(N) trips. MultiStore collapses that to O(1) operations (chunked by
// the transport's frame limit where one applies).
//
// The vectored operations are the native data path of every store in
// this repo (the in-memory Server, segstore, the RPC proxy, the sharded
// facade, the mirrored pairs, the archive): each implements exactly
// these four bodies and derives the scalar Alloc/Free/Read/Write from
// them through the embedded Scalar adapter below. MultiStore stays an
// optional interface for foreign stores that forward only the eight
// block.Store methods: the package-level adapter functions fall back to
// a per-block loop with identical semantics for those. Consumers
// therefore never type-assert — they call block.ReadMulti(st, ...) and
// friends on any Store.
//
// The partial-failure contract, which native implementations and the
// loop adapters must agree on (the mem-vs-seg contract tests enforce
// it):
//
//   - ReadMulti is all-or-nothing: it returns the contents of every
//     listed block, or (nil, err) for the first (lowest-index) failure.
//     Reads modify no per-block state either way.
//   - WriteMulti attempts every block in order; each block's write
//     succeeds or fails independently, exactly as a lone Write would.
//     The returned error is the first failure (identifying its block);
//     blocks whose write succeeded hold their new contents even when
//     the operation overall reports an error.
//   - AllocMulti is all-or-nothing: either every payload is stored in a
//     fresh block (numbers returned in payload order) or no new blocks
//     remain allocated — allocations made before the failure are freed
//     (best effort) before the error returns.
//   - FreeMulti is like WriteMulti: every block is attempted in order,
//     the first error is returned, and the other listed blocks are
//     still freed.
type MultiStore interface {
	Store
	// ReadMulti returns the contents of the listed blocks, in order.
	ReadMulti(account Account, ns []Num) ([][]byte, error)
	// WriteMulti replaces the contents of the listed blocks, in order.
	WriteMulti(account Account, ns []Num, data [][]byte) error
	// AllocMulti allocates one fresh block per payload, in order.
	AllocMulti(account Account, data [][]byte) ([]Num, error)
	// FreeMulti releases the listed blocks, in order.
	FreeMulti(account Account, ns []Num) error
}

// ErrMultiShape reports mismatched argument slices.
var errMultiShape = fmt.Errorf("block: multi op with mismatched slice lengths")

// ClaimMultiStore is the optional native form of a §4 companion's
// mirror leg: claim the partner's chosen block numbers and store their
// payloads in one operation, so a durable backend commits the whole
// vector as one group (one fsync per log lane) instead of one claim
// record per number. It sits beside Claimer rather than in PairStore,
// so a PairStore that only claims one number at a time still qualifies;
// callers go through the ClaimMulti adapter, which falls back for it.
type ClaimMultiStore interface {
	// ClaimMulti allocates the listed numbers for account and writes
	// data[i] into ns[i], all or nothing: a number that is taken or out
	// of range refuses the whole call — nothing stays claimed — and is
	// reported as a MultiError at its index. A nil data claims without
	// writing; the blocks read as zeroes or as the backend's stale
	// content until written.
	ClaimMulti(account Account, ns []Num, data [][]byte) error
}

// MultiError reports the first failure of a multi-block operation: the
// position in the caller's argument order that failed, and why. Every
// native MultiStore implementation and the loop adapters return their
// first failure as (or wrapped around) a MultiError, so callers — most
// importantly the sharded facade, which must merge failures from
// concurrent per-shard sub-operations back into the caller's index
// space — can attribute a failure to a block without parsing error
// text. errors.Is still reaches the sentinel underneath via Unwrap.
type MultiError struct {
	// Op names the operation: "read", "write", "alloc", "claim" or
	// "free".
	Op string
	// Index is the failing position in the caller's argument slices.
	Index int
	// N is the length of the caller's argument slices.
	N int
	// Err is the underlying per-block error.
	Err error
}

// Error implements error.
func (e *MultiError) Error() string {
	return fmt.Sprintf("multi %s %d/%d: %v", e.Op, e.Index, e.N, e.Err)
}

// Unwrap exposes the per-block error to errors.Is/As.
func (e *MultiError) Unwrap() error { return e.Err }

// multiErr builds the standard first-failure error of a multi op.
func multiErr(op string, index, n int, err error) error {
	return &MultiError{Op: op, Index: index, N: n, Err: err}
}

// MultiIndex extracts the failing caller-order index from a multi-op
// error, or fallback when err carries no index.
func MultiIndex(err error, fallback int) int {
	var me *MultiError
	if errors.As(err, &me) {
		return me.Index
	}
	return fallback
}

// Scalar derives the four scalar data operations block.Store requires —
// Alloc, Free, Read, Write — from a store's vectored ones, as a vector
// of one. Every store in the spine implements only the vectored bodies
// natively and embeds a Scalar bound to itself:
//
//	s := &Store{...}
//	s.Scalar = block.Scalar{Multi: s}
//
// so there is one data path per layer. A one-element MultiError is
// unwrapped back to the per-block error it carries, so a scalar call
// reports exactly what a hand-written scalar would (same sentinel under
// errors.Is, same message, never a *MultiError).
//
// Middleware that embeds a concrete store and overrides a vectored
// operation must embed its own Scalar bound to itself as well; the
// shallower embedding wins, so scalar calls reach the override instead
// of bypassing it through the inner store's adapter.
type Scalar struct {
	// Multi is the store whose vectored operations the scalars run.
	Multi MultiStore
}

// scalarErr unwraps the first-failure wrapper of a one-element multi op.
func scalarErr(err error) error {
	if me, ok := err.(*MultiError); ok {
		return me.Err
	}
	return err
}

// Alloc implements Store as AllocMulti of one payload.
func (s Scalar) Alloc(account Account, data []byte) (Num, error) {
	ns, err := s.Multi.AllocMulti(account, [][]byte{data})
	if err != nil {
		return NilNum, scalarErr(err)
	}
	return ns[0], nil
}

// Free implements Store as FreeMulti of one block.
func (s Scalar) Free(account Account, n Num) error {
	return scalarErr(s.Multi.FreeMulti(account, []Num{n}))
}

// Read implements Store as ReadMulti of one block.
func (s Scalar) Read(account Account, n Num) ([]byte, error) {
	out, err := s.Multi.ReadMulti(account, []Num{n})
	if err != nil {
		return nil, scalarErr(err)
	}
	return out[0], nil
}

// Write implements Store as WriteMulti of one block.
func (s Scalar) Write(account Account, n Num, data []byte) error {
	return scalarErr(s.Multi.WriteMulti(account, []Num{n}, [][]byte{data}))
}

// ReadMulti reads the listed blocks from st, using the native multi
// operation when st has one and a per-block loop otherwise.
func ReadMulti(st Store, account Account, ns []Num) ([][]byte, error) {
	if len(ns) == 0 {
		return nil, nil
	}
	if ms, ok := st.(MultiStore); ok {
		return ms.ReadMulti(account, ns)
	}
	out := make([][]byte, len(ns))
	for i, n := range ns {
		data, err := st.Read(account, n)
		if err != nil {
			return nil, multiErr("read", i, len(ns), err)
		}
		out[i] = data
	}
	return out, nil
}

// WriteMulti writes the listed blocks on st per the MultiStore contract.
func WriteMulti(st Store, account Account, ns []Num, data [][]byte) error {
	if len(ns) != len(data) {
		return errMultiShape
	}
	if len(ns) == 0 {
		return nil
	}
	if ms, ok := st.(MultiStore); ok {
		return ms.WriteMulti(account, ns, data)
	}
	var first error
	for i, n := range ns {
		if err := st.Write(account, n, data[i]); err != nil && first == nil {
			first = multiErr("write", i, len(ns), err)
		}
	}
	return first
}

// AllocMulti allocates one block per payload on st per the MultiStore
// contract (all-or-nothing).
func AllocMulti(st Store, account Account, data [][]byte) ([]Num, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if ms, ok := st.(MultiStore); ok {
		return ms.AllocMulti(account, data)
	}
	out := make([]Num, 0, len(data))
	for i, d := range data {
		n, err := st.Alloc(account, d)
		if err != nil {
			for _, got := range out {
				_ = st.Free(account, got) // best-effort rollback
			}
			return nil, multiErr("alloc", i, len(data), err)
		}
		out = append(out, n)
	}
	return out, nil
}

// FreeMulti frees the listed blocks on st per the MultiStore contract.
func FreeMulti(st Store, account Account, ns []Num) error {
	if len(ns) == 0 {
		return nil
	}
	if ms, ok := st.(MultiStore); ok {
		return ms.FreeMulti(account, ns)
	}
	var first error
	for i, n := range ns {
		if err := st.Free(account, n); err != nil && first == nil {
			first = multiErr("free", i, len(ns), err)
		}
	}
	return first
}

// errNoClaim reports a store that cannot claim a caller-chosen number.
var errNoClaim = errors.New("block: store does not support claim")

// ClaimMulti claims ns for account on st and writes their payloads per
// the ClaimMultiStore contract (all-or-nothing). A store without the
// native call but with Claimer gets one Claim per number, then one
// WriteMulti: a refused number rolls back the claims made before it
// and is reported at its index, and a failed write releases them all.
func ClaimMulti(st Store, account Account, ns []Num, data [][]byte) error {
	if data != nil && len(data) != len(ns) {
		return errMultiShape
	}
	if len(ns) == 0 {
		return nil
	}
	if cs, ok := st.(ClaimMultiStore); ok {
		return cs.ClaimMulti(account, ns, data)
	}
	cl, ok := st.(Claimer)
	if !ok {
		return multiErr("claim", 0, len(ns), errNoClaim)
	}
	return claimEach(st, cl, account, ns, data)
}

// claimEach is ClaimMulti for a store that claims one number at a time.
func claimEach(st Store, cl Claimer, account Account, ns []Num, data [][]byte) error {
	for i, n := range ns {
		if err := cl.Claim(account, n); err != nil {
			_ = FreeMulti(st, account, ns[:i]) // best-effort rollback
			return multiErr("claim", i, len(ns), err)
		}
	}
	if data == nil {
		return nil
	}
	if err := WriteMulti(st, account, ns, data); err != nil {
		_ = FreeMulti(st, account, ns) // best-effort rollback
		return multiErr("claim", MultiIndex(err, 0), len(ns), scalarErr(err))
	}
	return nil
}
