// Package shard implements the sharded block service facade: one
// block.Store + block.MultiStore that partitions the block-number space
// across N backend stores, so aggregate storage bandwidth scales with
// the number of block servers — the paper's assumption ("storage
// capacity can grow with the number of block servers") that a single
// store cannot honour.
//
// # Placement
//
// Placement is a fixed, documented function of the block number and the
// backend count, never of load or luck, so a deployment can be stopped
// and reopened over the same backends *in the same order* and find
// every block where it left it:
//
//	shard(n)  = n mod N
//	local(n)  = n div N
//	global(l, s) = l*N + s
//
// Backend-local block numbers are never exposed: every number a caller
// sees is global, and every number a backend sees is local. Changing N
// or reordering the backend list is a relayout, not a reopen; the
// facade cannot detect it (block stores carry no name), so deployment
// tooling must keep the order stable (afs-server's -blocks flag order).
//
// # Allocation
//
// A backend chooses its own local numbers, so the facade only chooses
// the shard: power-of-two-choices over advisory per-shard free-count
// estimates (seeded from block.UsageReporter at construction, adjusted
// as allocations and frees flow through). Estimates steer placement but
// never decide failure: a shard that answers ErrNoSpace — or is
// unreachable — is routed around, and allocation fails only when every
// shard has refused. A multi-block allocation spreads its payloads
// across shards in proportion to free space, which stripes a commit's
// shadow-page chain over all spindles.
//
// # Multi-block operations and partial failure
//
// ReadMulti, WriteMulti and FreeMulti split the request by shard and
// fan out concurrently — one batched call per shard, which over a TCP
// mount means one batched RPC stream per block server — then reassemble
// results in caller order. The block.MultiStore partial-failure
// contract is preserved exactly: each shard reports its first failure
// as a block.MultiError, the facade maps those back into the caller's
// index space, and the lowest caller-order failure wins, which is the
// same error a sequential pass would have returned (reads have no side
// effects, and writes/frees are attempted per-block on every shard
// regardless of failures elsewhere).
//
// When one shard's server is down, operations touching only other
// shards are unaffected; a multi-op spanning the dead shard fails with
// the transport error for the lowest-indexed block routed there, while
// its other blocks are still served (WriteMulti/FreeMulti) per the
// contract.
//
// # Recovery and statistics
//
// Recover fans the §4 recovery scan out to every shard concurrently and
// merges the translated results, so a file server rebuilds its table
// with one scan per block server. ShardStats exposes each backend's
// usage and counter snapshot (fsyncs included, fetched over the wire
// for remote shards via the cmdStats proxy), and BlockStats/Usage
// aggregate them, so the E-experiments can see per-shard behaviour.
package shard

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// defaultFreeEstimate seeds the advisory free count of a backend that
// does not report usage. It only steers placement; correctness never
// depends on it.
const defaultFreeEstimate = 1 << 20

// Store is the sharded facade. All methods are safe for concurrent use
// (assuming the backends are, as every block.Store implementation in
// this repo is).
type Store struct {
	// Scalar derives Alloc/Free/Read/Write from the fan-out operations.
	block.Scalar
	backends []block.Store
	size     int
	// free holds the advisory per-shard free-count estimates the
	// allocation heuristic reads. They drift under partial failures and
	// are never trusted for correctness.
	free []atomic.Int64
	// pick is the placement tie-break source, shared with trace-bound
	// views.
	pick *picker
}

// picker is the facade's own power-of-two-choices sample source: a PCG
// stream with a fixed seed rather than the process-global generator, so
// identically built facades replaying the same allocation script place
// every block identically (repeatable fsync and RPC counts), and a
// future fault simulator can replay a run.
type picker struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (p *picker) intN(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.r.IntN(n)
}

// New builds a facade over the given backends, in placement order. All
// backends must agree on the block size. Free-count estimates are
// seeded from each backend's block.UsageReporter when it has one.
func New(backends ...block.Store) (*Store, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: need at least one backend")
	}
	size := backends[0].BlockSize()
	for i, b := range backends {
		if b.BlockSize() != size {
			return nil, fmt.Errorf("shard: backend %d has block size %d, backend 0 has %d",
				i, b.BlockSize(), size)
		}
	}
	s := &Store{backends: backends, size: size, free: make([]atomic.Int64, len(backends)),
		pick: &picker{r: rand.New(rand.NewPCG(0x5eed, 0xb10c))}}
	s.Scalar = block.Scalar{Multi: s}
	for i, b := range backends {
		est := int64(defaultFreeEstimate)
		if ur, ok := b.(block.UsageReporter); ok {
			if u, err := ur.Usage(); err == nil {
				est = int64(u.Capacity - u.InUse)
			}
		}
		s.free[i].Store(est)
	}
	return s, nil
}

// BindTrace implements block.TraceBinder: a per-request view whose
// backends each record a fan-out-leg span per operation and pass the
// trace context onward, so a leg's span becomes the parent of the
// mirror-half and segstore spans beneath it. The view shares the
// facade's free estimates — only the span plumbing differs.
func (s *Store) BindTrace(tc trace.Context) block.Store {
	v := &Store{backends: make([]block.Store, len(s.backends)), size: s.size, free: s.free, pick: s.pick}
	v.Scalar = block.Scalar{Multi: v}
	for i, b := range s.backends {
		v.backends[i] = block.Traced(b, tc, "shard", fmt.Sprintf("leg-%d", i))
	}
	return v
}

// NumShards returns the number of backends.
func (s *Store) NumShards() int { return len(s.backends) }

// Backend returns shard i's store, for tests and operational tooling.
func (s *Store) Backend(i int) block.Store { return s.backends[i] }

// Locate returns the shard index and the backend-local block number of
// global block n — the placement function.
func (s *Store) Locate(n block.Num) (int, block.Num) {
	nShards := block.Num(len(s.backends))
	return int(n % nShards), n / nShards
}

// global maps shard sh's local block number back to the global number.
// Overflow means the backend's number space is too large to address
// through the facade's 28-bit global numbers; deployments bound each
// backend's capacity to block.MaxNum/N to avoid it.
func (s *Store) global(sh int, local block.Num) (block.Num, error) {
	g := uint64(local)*uint64(len(s.backends)) + uint64(sh)
	if g > uint64(block.MaxNum) {
		return block.NilNum, fmt.Errorf("shard %d: local block %d exceeds the global number space", sh, local)
	}
	return block.Num(g), nil
}

// shardErr tags a backend error with its shard, keeping errors.Is
// classification intact.
func shardErr(sh int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("shard %d: %w", sh, err)
}

// BlockSize implements block.Store.
func (s *Store) BlockSize() int { return s.size }

// p2cPick samples two distinct shards and returns them with the one
// holding the larger free estimate first — the power-of-two-choices
// step. free is indexed by shard; n = len(free) must be ≥ 2.
func (s *Store) p2cPick(free func(int) int64, n int) (winner, loser int) {
	a := s.pick.intN(n)
	b := s.pick.intN(n - 1)
	if b >= a {
		b++
	}
	if free(b) > free(a) {
		a, b = b, a
	}
	return a, b
}

// allocOrder returns the shard order an allocation tries: the
// power-of-two-choices winner first, the loser second, then the rest
// (the fallback tail only matters near exhaustion or under failures).
func (s *Store) allocOrder() []int {
	n := len(s.backends)
	order := make([]int, 0, n)
	if n == 1 {
		return append(order, 0)
	}
	a, b := s.p2cPick(func(i int) int64 { return s.free[i].Load() }, n)
	order = append(order, a, b)
	for i := 0; i < n; i++ {
		if i != a && i != b {
			order = append(order, i)
		}
	}
	return order
}

// penalize floors a shard's free estimate at zero after a failure, so
// power-of-two-choices stops steering the allocation hot path into a
// dead or broken shard (and paying its transport retry cost every
// time). The shard stays reachable through the fallback tail and its
// frees still raise the estimate, so a healed shard works immediately;
// estimates re-seed from Usage on the next mount.
func (s *Store) penalize(sh int) {
	for {
		cur := s.free[sh].Load()
		if cur <= 0 || s.free[sh].CompareAndSwap(cur, 0) {
			return
		}
	}
}

// allocOne is AllocMulti's retry step for a payload whose batched shard
// refused: each shard in allocOrder is asked for one block, and its
// local number is translated to the global number space. Full,
// unreachable or unaddressable shards are routed around; only when
// every shard refuses does it fail — with ErrNoSpace if space was the
// only problem, otherwise with the first non-space error seen.
func (s *Store) allocOne(account block.Account, data []byte) (block.Num, error) {
	var firstErr error
	for _, sh := range s.allocOrder() {
		local, err := s.backends[sh].Alloc(account, data)
		if err == nil {
			g, gerr := s.global(sh, local)
			if gerr == nil {
				s.free[sh].Add(-1)
				return g, nil
			}
			// The shard's numbers have outgrown the global space
			// (capacity above block.MaxNum/N): give the block back and
			// treat it like any other refusing shard.
			_ = s.backends[sh].Free(account, local)
			s.penalize(sh)
			if firstErr == nil {
				firstErr = gerr // already names the shard
			}
			continue
		}
		if !errors.Is(err, block.ErrNoSpace) {
			s.penalize(sh)
			if firstErr == nil {
				firstErr = shardErr(sh, err)
			}
		}
	}
	if firstErr != nil {
		return block.NilNum, firstErr
	}
	return block.NilNum, fmt.Errorf("all %d shards full: %w", len(s.backends), block.ErrNoSpace)
}

// Lock implements block.Store: the lock bit lives on the shard owning
// the block, so the §5.2 commit critical section spans exactly one
// block server, as in the single-store deployment.
func (s *Store) Lock(account block.Account, n block.Num) error {
	sh, local := s.Locate(n)
	return shardErr(sh, s.backends[sh].Lock(account, local))
}

// Unlock implements block.Store.
func (s *Store) Unlock(account block.Account, n block.Num) error {
	sh, local := s.Locate(n)
	return shardErr(sh, s.backends[sh].Unlock(account, local))
}

// Claim implements the companion-pair operation (block.Claimer) when
// the owning shard's backend supports it.
func (s *Store) Claim(account block.Account, n block.Num) error {
	sh, local := s.Locate(n)
	cl, ok := s.backends[sh].(block.Claimer)
	if !ok {
		return fmt.Errorf("shard %d: store does not support claim", sh)
	}
	if err := cl.Claim(account, local); err != nil {
		return shardErr(sh, err)
	}
	s.free[sh].Add(-1)
	return nil
}

// Recover implements block.Store: the §4 recovery scan, fanned out to
// every shard concurrently and merged.
func (s *Store) Recover(account block.Account) ([]block.Num, error) {
	locals := make([][]block.Num, len(s.backends))
	errs := make([]error, len(s.backends))
	var wg sync.WaitGroup
	for sh := range s.backends {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			locals[sh], errs[sh] = s.backends[sh].Recover(account)
		}(sh)
	}
	wg.Wait()
	var out []block.Num
	for sh, ns := range locals {
		if errs[sh] != nil {
			return nil, shardErr(sh, errs[sh])
		}
		for _, local := range ns {
			g, err := s.global(sh, local)
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ClearLocks drops lock bits on every backend that supports it (lock
// bits are volatile commit-section state; see block.Server.ClearLocks).
func (s *Store) ClearLocks() {
	for _, b := range s.backends {
		if cl, ok := b.(interface{ ClearLocks() }); ok {
			cl.ClearLocks()
		}
	}
}

// Epoch implements block.EpochStore so a sharded store can sit under a
// stable-storage half (pairs-under-shards, RAID-10 style) and still
// support boot-time stale detection. The facade's epoch is the minimum
// over its backends: a write counted by the outer layer only counts if
// every shard saw the bump, so a shard that missed writes drags the
// whole side down to "stale" — the conservative answer, triggering a
// full copy rather than trusting divergent data. Every backend must
// track epochs; otherwise the composition cannot answer.
func (s *Store) Epoch() (uint64, error) {
	var e uint64
	for sh, b := range s.backends {
		es, ok := b.(block.EpochStore)
		if !ok {
			return 0, fmt.Errorf("shard %d: store does not track epochs", sh)
		}
		be, err := es.Epoch()
		if err != nil {
			return 0, shardErr(sh, err)
		}
		if sh == 0 || be < e {
			e = be
		}
	}
	return e, nil
}

// SetEpoch implements block.EpochStore, fanning the new epoch out to
// every backend.
func (s *Store) SetEpoch(e uint64) error {
	for sh, b := range s.backends {
		es, ok := b.(block.EpochStore)
		if !ok {
			return fmt.Errorf("shard %d: store does not track epochs", sh)
		}
		if err := es.SetEpoch(e); err != nil {
			return shardErr(sh, err)
		}
	}
	return nil
}

var _ block.Store = (*Store)(nil)
var _ block.MultiStore = (*Store)(nil)
var _ block.Claimer = (*Store)(nil)
var _ block.PairStore = (*Store)(nil)
var _ block.UsageReporter = (*Store)(nil)
var _ block.StatsReporter = (*Store)(nil)
var _ block.EpochStore = (*Store)(nil)

// --- the multi-block operations ---

// subOp is one shard's slice of a multi-op: the backend-local numbers
// and, in lockstep, each entry's position in the caller's argument
// order.
type subOp struct {
	locals []block.Num
	orig   []int
}

// split partitions caller-order block numbers by shard (the result is
// indexed by shard; untouched shards stay empty), preserving relative
// order within each shard, so a shard's first failure is also the
// lowest caller-order failure it holds.
func (s *Store) split(ns []block.Num) []subOp {
	parts := make([]subOp, len(s.backends))
	for i, n := range ns {
		sh, local := s.Locate(n)
		parts[sh].locals = append(parts[sh].locals, local)
		parts[sh].orig = append(parts[sh].orig, i)
	}
	return parts
}

// firstFailure reduces concurrent per-shard failures to the error a
// sequential pass would have returned: each shard's block.MultiError
// index is translated to caller order, and the lowest one wins.
func firstFailure(op string, total int, parts []subOp, errs []error) error {
	bestIdx := total
	var best error
	for sh, err := range errs {
		if err == nil {
			continue
		}
		p := &parts[sh]
		idx := p.orig[0]
		var me *block.MultiError
		if errors.As(err, &me) && me.Index >= 0 && me.Index < len(p.orig) {
			idx = p.orig[me.Index]
			err = me.Err
		}
		if best == nil || idx < bestIdx {
			bestIdx, best = idx, shardErr(sh, err)
		}
	}
	if best == nil {
		return nil
	}
	return &block.MultiError{Op: op, Index: bestIdx, N: total, Err: best}
}

// fanOut runs fn once per non-empty shard part and collects the errors
// by shard — concurrently when more than one shard is touched.
func fanOut(parts []subOp, fn func(sh int, p *subOp) error) []error {
	errs := make([]error, len(parts))
	touched := 0
	for sh := range parts {
		if len(parts[sh].orig) > 0 {
			touched++
		}
	}
	var wg sync.WaitGroup
	for sh := range parts {
		p := &parts[sh]
		switch {
		case len(p.orig) == 0:
		case touched == 1:
			errs[sh] = fn(sh, p)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[sh] = fn(sh, p)
			}()
		}
	}
	wg.Wait()
	return errs
}

// ReadMulti implements block.MultiStore: one batched read per shard,
// concurrently; all-or-nothing per the contract.
func (s *Store) ReadMulti(account block.Account, ns []block.Num) ([][]byte, error) {
	parts := s.split(ns)
	out := make([][]byte, len(ns))
	errs := fanOut(parts, func(sh int, p *subOp) error {
		datas, err := block.ReadMulti(s.backends[sh], account, p.locals)
		if err != nil {
			return err
		}
		for i, d := range datas {
			out[p.orig[i]] = d
		}
		return nil
	})
	if err := firstFailure("read", len(ns), parts, errs); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteMulti implements block.MultiStore: one batched write per shard,
// concurrently. Per-block independence holds across shards — a failure
// on one shard never stops the writes routed to another — and the
// reported error is the lowest caller-order failure.
func (s *Store) WriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("shard: multi write with %d blocks, %d payloads", len(ns), len(data))
	}
	parts := s.split(ns)
	errs := fanOut(parts, func(sh int, p *subOp) error {
		datas := make([][]byte, len(p.orig))
		for i, idx := range p.orig {
			datas[i] = data[idx]
		}
		return block.WriteMulti(s.backends[sh], account, p.locals, datas)
	})
	return firstFailure("write", len(ns), parts, errs)
}

// FreeMulti implements block.MultiStore: one batched free per shard,
// concurrently, with WriteMulti's independence semantics.
func (s *Store) FreeMulti(account block.Account, ns []block.Num) error {
	parts := s.split(ns)
	errs := fanOut(parts, func(sh int, p *subOp) error {
		err := block.FreeMulti(s.backends[sh], account, p.locals)
		if err == nil {
			s.free[sh].Add(int64(len(p.locals)))
		}
		return err
	})
	return firstFailure("free", len(ns), parts, errs)
}

// AllocMulti implements block.MultiStore: payloads are spread across
// shards in proportion to estimated free space (so a commit's shadow
// chain stripes over every spindle) and allocated with one batched call
// per shard. Payloads whose shard refuses — full or unreachable — are
// retried through single-block allocation, which routes around the
// refusing shard; the operation is all-or-nothing, rolling back on
// final failure per the contract.
func (s *Store) AllocMulti(account block.Account, data [][]byte) ([]block.Num, error) {
	n := len(s.backends)
	// Assign each payload a shard against a local copy of the
	// estimates, so one batch spreads instead of dog-piling the
	// emptiest shard.
	est := make([]int64, n)
	for i := range est {
		est[i] = s.free[i].Load()
	}
	parts := make([]subOp, n)
	for i := range data {
		sh := 0
		if n > 1 {
			sh, _ = s.p2cPick(func(i int) int64 { return est[i] }, n)
		}
		est[sh]--
		parts[sh].orig = append(parts[sh].orig, i)
	}

	out := make([]block.Num, len(data))
	done := make([]bool, len(data))
	var pending []int // payloads whose shard refused, retried singly
	var pmu sync.Mutex
	_ = fanOut(parts, func(sh int, p *subOp) error {
		payloads := make([][]byte, len(p.orig))
		for i, idx := range p.orig {
			payloads[i] = data[idx]
		}
		locals, err := block.AllocMulti(s.backends[sh], account, payloads)
		if err == nil {
			globals := make([]block.Num, len(locals))
			for i, local := range locals {
				g, gerr := s.global(sh, local)
				if gerr != nil {
					// This shard's numbers are unaddressable; release
					// its allocations and retry the payloads elsewhere.
					_ = block.FreeMulti(s.backends[sh], account, locals)
					err, globals = gerr, nil
					break
				}
				globals[i] = g
			}
			if globals != nil {
				for i, g := range globals {
					out[p.orig[i]] = g
					done[p.orig[i]] = true
				}
				s.free[sh].Add(int64(-len(locals)))
				return nil
			}
		}
		pmu.Lock()
		pending = append(pending, p.orig...)
		pmu.Unlock()
		return err
	})

	// rollback releases everything this call allocated, best effort.
	rollback := func() {
		var got []block.Num
		for i, ok := range done {
			if ok {
				got = append(got, out[i])
			}
		}
		if len(got) > 0 {
			_ = s.FreeMulti(account, got)
		}
	}

	if len(pending) > 0 {
		// The batched attempt failed for these payloads; allocOne routes
		// each around full and unreachable shards, so the whole
		// operation fails only when no shard will take a payload.
		sort.Ints(pending)
		for _, idx := range pending {
			g, err := s.allocOne(account, data[idx])
			if err != nil {
				rollback()
				// Prefer the sequential failure over the batched ones:
				// it proves no shard could take payload idx.
				return nil, &block.MultiError{Op: "alloc", Index: idx, N: len(data), Err: err}
			}
			out[idx] = g
			done[idx] = true
		}
	}
	return out, nil
}

// --- statistics ---

// ShardStats is one backend's observability snapshot.
type ShardStats struct {
	// Shard is the placement index.
	Shard int
	// Stats is the backend's counter snapshot; zero when the backend
	// does not implement block.StatsReporter or the fetch failed.
	Stats block.Stats
	// Usage is the backend's headroom; zero when unavailable.
	Usage block.Usage
	// FreeEstimate is the facade's advisory free count for this shard.
	FreeEstimate int64
}

// ShardStats fetches each backend's counters and usage (one RPC per
// remote shard), so experiments and operators can see per-shard fsync
// and operation counts.
func (s *Store) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.backends))
	s.perShard(func(sh int) {
		st := ShardStats{Shard: sh, FreeEstimate: s.free[sh].Load()}
		if sr, ok := s.backends[sh].(block.StatsReporter); ok {
			if bs, err := sr.BlockStats(); err == nil {
				st.Stats = bs
			}
		}
		if ur, ok := s.backends[sh].(block.UsageReporter); ok {
			if u, err := ur.Usage(); err == nil {
				st.Usage = u
			}
		}
		out[sh] = st
	})
	return out
}

// perShard runs fn for every backend concurrently (one RPC per remote
// shard) and waits.
func (s *Store) perShard(fn func(sh int)) {
	var wg sync.WaitGroup
	for sh := range s.backends {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

// BlockStats implements block.StatsReporter: the sum over shards. Only
// the stats query is issued (Usage is not fetched).
func (s *Store) BlockStats() (block.Stats, error) {
	per := make([]block.Stats, len(s.backends))
	s.perShard(func(sh int) {
		if sr, ok := s.backends[sh].(block.StatsReporter); ok {
			if bs, err := sr.BlockStats(); err == nil {
				per[sh] = bs
			}
		}
	})
	var total block.Stats
	for _, st := range per {
		total.Add(st)
	}
	return total, nil
}

// Usage implements block.UsageReporter: the sum over shards. Only the
// usage query is issued.
func (s *Store) Usage() (block.Usage, error) {
	per := make([]block.Usage, len(s.backends))
	s.perShard(func(sh int) {
		if ur, ok := s.backends[sh].(block.UsageReporter); ok {
			if u, err := ur.Usage(); err == nil {
				per[sh] = u
			}
		}
	})
	var total block.Usage
	for _, u := range per {
		total.Capacity += u.Capacity
		total.InUse += u.InUse
	}
	return total, nil
}

// Collect is the facade's metrics collector: every shard's operation
// counters and headroom (one stats fetch per shard per scrape).
func (s *Store) Collect(e *metrics.Emitter) {
	for _, st := range s.ShardStats() {
		shard := strconv.Itoa(st.Shard)
		e.Counters("afs_shard_ops_total", "Per-shard operations by kind.", "op", map[string]uint64{
			"read": st.Stats.Reads, "write": st.Stats.Writes, "alloc": st.Stats.Allocs,
			"free": st.Stats.Frees, "fsync": st.Stats.Syncs,
		}, "shard", shard)
		e.Gauge("afs_shard_blocks_in_use", "Per-shard allocated blocks.", float64(st.Usage.InUse), "shard", shard)
	}
}
