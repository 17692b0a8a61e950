// Package stable implements the paper's §4 proposal for highly available
// block storage: every block is stored by *two block servers on two
// different disk drives* — a modification of Lampson & Sturgis' stable
// storage, which used one server and two drives.
//
// Protocol for allocate-and-write (and plain write), quoting §4:
//
//	"On request to allocate and write a block, the receiving block
//	server, say server A allocates a block on its local disk, then sends
//	a request to its companion block server, server B including the data
//	and the chosen block number. B then writes the block to disk at the
//	address indicated by A, and sends an acknowledgement back to A.
//	Finally A writes the data in its own block, and returns an
//	identifier for the block to the client."
//
// Because writes are always carried out on the companion disk first,
// allocate collisions (both halves choose the same number for different
// clients) and write collisions (two clients write the same block through
// different halves) are detected before damage is done; the caller redoes
// the operation, typically after a random wait.
//
// Reads may be served locally; only when the local copy is corrupt does a
// half consult its companion (and repair its own copy from the good one).
//
// After a crash a server "compares notes with its companion, and restores
// its disk before accepting any requests"; while a companion is down the
// surviving half appends every mutation to an intentions list which is
// replayed on recovery.
//
// # Mirroring as a layer
//
// A Half wraps any block.PairStore — the in-memory server, the durable
// segment log, an afs-block process across the network, or a whole
// sharded facade — so the same companion protocol provides crash *and*
// media-loss tolerance over any backend, the way Echo layered
// replication under an ordinary file-system interface. The pair is
// itself a block.Store/block.MultiStore (and a block.PairStore), so it
// composes the other way too: mirrored pairs can sit under the sharded
// facade (mirrored shards ≈ RAID-10), and availability stays transparent
// to the file service, as the paper intends.
//
// Corruption is classified by the shared block.ErrCorrupt sentinel,
// which every backend maps its native corruption error onto (and the
// wire protocol carries), so read-fallback-and-repair behaves
// identically whether the bad medium is a simulated disk, a segment log
// with a failed CRC, or either of those behind a TCP mount.
//
// A companion reached over a transport can die mid-operation; such
// failures surface as rpc.ErrDeadPort and flip the companion to "down"
// automatically, switching the surviving half to the §4 intentions list
// with no operator action. Pair.Heal probes down halves and replays the
// outage when their backend answers again.
package stable

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// ErrCollision reports a simultaneous allocate or write detected at the
// companion; the client should redo the operation after a random wait.
// It is the shared block.ErrCollision sentinel, so collisions classify
// identically when a pair is served over the wire.
var ErrCollision = block.ErrCollision

// ErrBothDown reports that neither half of the pair is serving.
var ErrBothDown = errors.New("stable: both halves down")

// errHalfDown reports an operation arriving at a half that is down. The
// initiating half classifies it (like a transport failure) as "companion
// unavailable" and falls back to the intentions list.
var errHalfDown = errors.New("stable: half down")

// unreachable reports whether err means the companion's process or
// transport is gone, rather than a live store refusing the operation.
// Both transports (in-proc and TCP) surface exhausted connection
// failures as rpc.ErrDeadPort; a nested pair (a pair of pairs) reports
// total loss of one inner pair as ErrBothDown, which is equally "this
// backend is not serving".
func unreachable(err error) bool {
	return errors.Is(err, rpc.ErrDeadPort) || errors.Is(err, errHalfDown) ||
		errors.Is(err, ErrBothDown)
}

// intent records one mutation performed while the companion was down.
type intent struct {
	op      byte // 'w' write, 'f' free, 'a' alloc/claim
	n       block.Num
	account block.Account
	data    []byte
}

// Half is one of the two cooperating block servers in a pair. Its public
// surface is block.Store (and block.MultiStore/block.PairStore), so file
// services cannot tell a Half from a plain server — availability is
// transparent, as the paper intends.
//
// Only the vectored data operations carry the companion protocol; the
// scalar ones are the embedded block.Scalar's vector of one. Every
// operation has one body: a trace-bound view (bind) shares the half's
// state and differs only in tc, the context its backend legs record
// mirror-layer spans under — zero, and therefore free, on the half
// itself.
type Half struct {
	block.Scalar
	*halfState
	tc trace.Context
}

// halfState is one half's protocol state, shared by all its views.
type halfState struct {
	name string
	st   block.PairStore

	// idx is this half's fixed position in the pair (A=0, B=1): the
	// pair-wide lock order for taking both halves' mutexes at once.
	idx int
	// rejoinMu is shared by both halves: it serializes Rejoin across
	// the pair.
	rejoinMu *sync.Mutex

	mu        sync.Mutex
	companion *Half
	down      bool
	// intentions lists mutations to replay on companion recovery.
	// intentionsValid is cleared when this half's machine crashes
	// (Crash): a lost list forces the rejoining companion to restore
	// its disk by full copy instead of replay. An automatic mark-down
	// (transport failure to a remote backend) keeps the list — the
	// wrapper lives with the pair, not with the dead backend — so a
	// rejoin after a double backend outage can still replay.
	intentions      []intent
	intentionsValid bool
	// needsFullCopy forces the next Rejoin onto the full-copy path: the
	// outage began before this pair existed (a degraded mount of an
	// already-dead half), so no intentions record in this process can
	// be complete.
	needsFullCopy bool

	// accounts is every account that has passed through this half. The
	// full-copy rejoin path reconciles per account via the §4 recovery
	// scan; a generic block.Store has no "list all owners" operation,
	// so the pair layer tracks the account set itself. Known limit: an
	// account that has not been seen since this pair was constructed
	// is not reconciled (the file service's single account is always
	// noted by its boot-time recovery scan; see ROADMAP on persisting
	// membership metadata).
	accounts map[block.Account]bool

	// latches serialise companion-first writes per block. This is a
	// distinct facility from the block service's client-visible lock
	// (used for commit critical sections): a client may legitimately
	// write a block while holding its lock, and must not collide with
	// itself.
	latches map[block.Num]bool

	stats HalfStats
}

// HalfStats counts pair-protocol events at one half.
type HalfStats struct {
	CompanionWrites  uint64 // writes forwarded to companion first
	Collisions       uint64
	CorruptFallbacks uint64 // reads served via companion after local corruption
	Repairs          uint64 // local copies rewritten from the companion's
	IntentionsKept   uint64
	Replayed         uint64
	FullCopied       uint64 // blocks restored by full copy on rejoin
	AutoMarkdowns    uint64 // companion outages detected from transport failures
}

// NewPair joins two halves over the given backends. Any block.PairStore
// works: in-memory servers, durable segstores, remote block services, or
// a mix of them.
func NewPair(a, b block.PairStore) (*Half, *Half) {
	ha := newHalf("A", a)
	hb := newHalf("B", b)
	hb.idx = 1
	ha.companion = hb
	hb.companion = ha
	rm := &sync.Mutex{}
	ha.rejoinMu, hb.rejoinMu = rm, rm
	return ha, hb
}

func newHalf(name string, st block.PairStore) *Half {
	return (&halfState{
		name:     name,
		st:       st,
		latches:  make(map[block.Num]bool),
		accounts: make(map[block.Account]bool),
	}).view(trace.Context{})
}

// view returns a Half over s whose backend legs record under tc.
func (s *halfState) view(tc trace.Context) *Half {
	h := &Half{halfState: s, tc: tc}
	h.Scalar = block.Scalar{Multi: h}
	return h
}

// bind returns h's view for a sampled trace context, else h itself.
func (h *Half) bind(tc trace.Context) *Half {
	if !tc.Sampled() {
		return h
	}
	return h.view(tc)
}

// TryLatch acquires the write-collision latch for block n, reporting
// whether it was free. Exposed for tests that stage deterministic
// collisions.
func (h *Half) TryLatch(n block.Num) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.latches[n] {
		return false
	}
	h.latches[n] = true
	return true
}

// Unlatch releases the write-collision latch.
func (h *Half) Unlatch(n block.Num) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.latches, n)
}

// latchAll acquires the latches of every distinct block in ns, or none:
// a busy latch releases the ones already taken and reports the caller
// order index that collided (-1: all latched; unlatchAll releases them).
func (h *Half) latchAll(ns []block.Num) (collidedAt int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, n := range ns {
		// A latched block listed earlier in this batch is ours.
		if h.latches[n] && !slices.Contains(ns[:i], n) {
			for _, t := range ns[:i] {
				delete(h.latches, t)
			}
			return i
		}
		h.latches[n] = true
	}
	return -1
}

// unlatchAll releases the latches latchAll took for ns.
func (h *Half) unlatchAll(ns []block.Num) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range ns {
		delete(h.latches, n)
	}
}

// Name identifies the half ("A" or "B") in logs.
func (h *Half) Name() string { return h.name }

// Stats returns a snapshot of the pair-protocol counters.
func (h *Half) Stats() HalfStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// note records that account has used this half, for full-copy rejoin.
func (h *Half) note(account block.Account) {
	h.mu.Lock()
	h.accounts[account] = true
	h.mu.Unlock()
}

// Crash takes this half down as if its machine died: volatile state —
// the intentions list in particular — is lost, so a companion that was
// down during this crash must later restore by full copy. For a remote
// backend whose process dies on its own, the automatic mark-down path
// (markDown) applies instead and keeps the wrapper's volatile state.
func (h *Half) Crash() {
	h.mu.Lock()
	flipped := !h.down
	h.down = true
	h.intentions = nil
	h.intentionsValid = false
	h.mu.Unlock()
	if flipped {
		h.companion.bumpOwnEpoch()
	}
}

// MarkStale takes the half down like Crash and additionally records
// that its outage began before this pair existed — a degraded mount of
// an endpoint that was already dead. Any intentions recorded from here
// on cover only part of the outage, so the next Rejoin must restore by
// full copy regardless of the companion's list.
func (h *Half) MarkStale() {
	h.mu.Lock()
	flipped := !h.down
	h.down = true
	h.needsFullCopy = true
	h.intentions = nil
	h.intentionsValid = false
	h.mu.Unlock()
	if flipped {
		h.companion.bumpOwnEpoch()
	}
}

// markDown records a companion outage detected from a transport
// failure: the backend is gone but this wrapper (and its intentions
// list) lives on with the pair. It reports whether this call flipped
// the half down — the caller then bumps the survivor's epoch, once per
// outage.
func (h *Half) markDown() bool {
	h.mu.Lock()
	flipped := !h.down
	if flipped {
		h.down = true
		h.stats.AutoMarkdowns++
	}
	h.mu.Unlock()
	return flipped
}

// bumpOwnEpoch advances this half's persisted epoch (block.EpochStore):
// called on the surviving half at the moment its companion goes down,
// so the two backends' epochs diverge exactly when their contents can
// start to. A freshly constructed pair over the two backends — with no
// memory of the outage — then spots the divergence by comparing epochs
// (Pair.DetectStale). Best effort: a backend that does not track
// epochs, or cannot persist right now, goes without boot-time
// divergence detection.
func (h *Half) bumpOwnEpoch() {
	if h.Down() {
		return
	}
	es, ok := h.st.(block.EpochStore)
	if !ok {
		return
	}
	e, err := es.Epoch()
	if err != nil {
		return
	}
	_ = es.SetEpoch(e + 1)
}

// alignEpochs levels both halves' epochs at their maximum after a
// successful rejoin: the halves are identical again, so the next
// divergence must start from equal numbers. Skipped (best effort) when
// either backend is unreachable or does not track epochs — a
// double-outage replay re-aligns when the other half rejoins.
func (h *Half) alignEpochs(comp *Half) {
	if comp.Down() {
		return
	}
	hes, ok := h.st.(block.EpochStore)
	if !ok {
		return
	}
	ces, ok := comp.st.(block.EpochStore)
	if !ok {
		return
	}
	he, err := hes.Epoch()
	if err != nil {
		return
	}
	ce, err := ces.Epoch()
	if err != nil {
		return
	}
	e := max(he, ce)
	_ = hes.SetEpoch(e)
	_ = ces.SetEpoch(e)
}

// companionLost classifies a companion operation failure: a transport
// or process failure marks the companion down and reports true (the
// caller switches to the intentions list); a live refusal reports
// false (the caller propagates the error).
func (h *Half) companionLost(comp *Half, err error) bool {
	if !unreachable(err) {
		return false
	}
	if comp.markDown() {
		h.bumpOwnEpoch()
	}
	return true
}

// selfCheck classifies a failure of this half's OWN backend: a
// transport or process failure marks this half down, so the pair front
// fails the operation over to the companion — §4's "clients send
// requests to the alternative block server if the primary fails to
// respond". The error passes through either way.
func (h *Half) selfCheck(err error) error {
	if unreachable(err) {
		if h.markDown() {
			h.companion.bumpOwnEpoch()
		}
	}
	return err
}

// Down reports whether this half is crashed.
func (h *Half) Down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

func (h *Half) downErr() error {
	return fmt.Errorf("half %s: %w", h.name, errHalfDown)
}

// Rejoin brings the half back: per §4, it "compares notes with its
// companion, and restores its disk before accepting any requests". The
// caller is responsible for the backend itself being serviceable again
// (a rebooted process, a repaired disk); Rejoin reconciles the *state*.
// The companion replays its intentions list here — batched, one
// WriteMulti/FreeMulti run per chronological stretch — or, when the
// list did not survive, the half restores by full copy: per tracked
// account, the companion's §4 recovery scan decides which blocks exist
// and a batched read/write pass copies their contents.
//
// A valid list is replayed even when the companion's backend is itself
// down: the list (and its payloads) lives with the pair, not with the
// backend, so a double backend outage still recovers by replay — the
// first half to rejoin absorbs the survivor's record, and the second
// restores from the first. Only the full-copy path needs the
// companion's backend serving.
//
// Rejoin is safe against concurrent traffic: mutations that land while
// the replay runs are recorded on the companion's (fresh) intentions
// list, and the final drain below consumes them before this half is
// marked up — atomically with the outage paths' append check, so no
// intent can slip through unreplayed.
func (h *Half) Rejoin() error {
	h.rejoinMu.Lock()
	defer h.rejoinMu.Unlock()

	h.mu.Lock()
	stale := h.needsFullCopy
	h.mu.Unlock()

	comp := h.companion
	comp.mu.Lock()
	intentions := comp.intentions
	valid := comp.intentionsValid
	compDown := comp.down
	accounts := make([]block.Account, 0, len(comp.accounts))
	for a := range comp.accounts {
		accounts = append(accounts, a)
	}
	if valid || stale {
		// Consume the list: it is about to be replayed, or (stale) it
		// covers only part of the outage and the full copy below
		// supersedes it. An invalid list on a non-stale rejoin is left
		// untouched — a later rejoin may still need what state there
		// is.
		comp.intentions = nil
		comp.intentionsValid = false
	}
	comp.mu.Unlock()

	switch {
	case stale:
		// This half was already dead when the pair was mounted: no
		// record in this process covers the whole outage, so only a
		// full copy restores it — and that needs the companion's
		// backend serving.
		if compDown {
			return fmt.Errorf("stable: half %s is stale and its companion is down; full copy needs a serving companion", h.name)
		}
		if err := h.fullCopy(comp, accounts); err != nil {
			return err
		}
	case valid:
		if err := h.replay(comp, intentions); err != nil {
			// Put the record back: nothing was marked up, and replay
			// is idempotent, so a later Rejoin retries it in full.
			comp.mu.Lock()
			comp.intentions = append(intentions, comp.intentions...)
			comp.intentionsValid = true
			comp.mu.Unlock()
			return err
		}
	case !compDown:
		// No intentions list survived (the companion's machine crashed
		// too while we were down). Restore by copying every block the
		// companion holds — the slow but safe form of §4's "compares
		// notes with its companion, and restores its disk before
		// accepting any requests".
		if err := h.fullCopy(comp, accounts); err != nil {
			return err
		}
	default:
		// Both the companion's backend and its record are gone: there
		// is nothing to reconcile against. Come up as-is (the first
		// half back from a total loss is authoritative); the companion
		// will restore from us when it rejoins.
	}
	// Lock bits are volatile commit-section state; whatever this
	// half's backend still holds from before the outage is stale.
	h.st.ClearLocks()

	// Drain stragglers recorded while the replay above ran, then mark
	// this half up atomically with the emptiness check (both halves'
	// mutexes, in lockBoth's fixed order — the same order
	// keepIntentsFor uses), so an outage-path append either lands
	// before the check (and is replayed here) or observes this half up
	// (and mirrors directly).
	for {
		unlock := h.lockBoth()
		if len(comp.intentions) == 0 {
			h.down = false
			h.needsFullCopy = false
			comp.intentionsValid = false
			unlock()
			h.alignEpochs(comp)
			return nil
		}
		more := comp.intentions
		comp.intentions = nil
		unlock()
		if err := h.replay(comp, more); err != nil {
			comp.mu.Lock()
			comp.intentions = append(more, comp.intentions...)
			comp.intentionsValid = true
			comp.mu.Unlock()
			return err
		}
	}
}

// replay applies the companion's outage intentions to this half's
// backend in chronological order, batching adjacent writes and frees of
// the same account into single multi-block calls, and each run of
// allocations into one claim of their numbers and data. Per-block semantic
// refusals are tolerated — an intent can have been applied on this half
// already (the transport died after the companion call landed), or
// record an operation that failed per-block on the survivor too — while
// I/O failures abort the rejoin.
func (h *Half) replay(comp *Half, intentions []intent) error {
	var wNs []block.Num
	var wData [][]byte
	var fNs []block.Num
	var acct block.Account
	haveAcct := false

	flushWrites := func() error {
		if len(wNs) == 0 {
			return nil
		}
		if err := block.WriteMulti(h.st, acct, wNs, wData); err != nil && !isPerBlock(err) {
			return fmt.Errorf("stable: replay write: %w", err)
		}
		comp.mu.Lock()
		comp.stats.Replayed += uint64(len(wNs))
		comp.mu.Unlock()
		wNs, wData = wNs[:0], wData[:0]
		return nil
	}
	flushFrees := func() error {
		if len(fNs) == 0 {
			return nil
		}
		if err := block.FreeMulti(h.st, acct, fNs); err != nil && !isPerBlock(err) {
			return fmt.Errorf("stable: replay free: %w", err)
		}
		comp.mu.Lock()
		comp.stats.Replayed += uint64(len(fNs))
		comp.mu.Unlock()
		fNs = fNs[:0]
		return nil
	}
	flush := func() error {
		if err := flushWrites(); err != nil {
			return err
		}
		return flushFrees()
	}

	for i := 0; i < len(intentions); i++ {
		it := intentions[i]
		if haveAcct && it.account != acct {
			if err := flush(); err != nil {
				return err
			}
		}
		acct, haveAcct = it.account, true
		switch it.op {
		case 'a':
			// A run of allocations made during the outage: mirror the
			// number choices and their data with one claim.
			if err := flushFrees(); err != nil {
				return err
			}
			j := i + 1
			for j < len(intentions) && intentions[j].op == 'a' && intentions[j].account == acct {
				j++
			}
			ns := make([]block.Num, 0, j-i)
			data := make([][]byte, 0, j-i)
			for _, a := range intentions[i:j] {
				ns = append(ns, a.n)
				data = append(data, a.data)
			}
			if err := h.mirrorClaims(acct, ns, data); err != nil {
				return fmt.Errorf("stable: replay %w", err)
			}
			comp.mu.Lock()
			comp.stats.Replayed += uint64(len(ns))
			comp.mu.Unlock()
			i = j - 1
		case 'w':
			if err := flushFrees(); err != nil {
				return err
			}
			wNs = append(wNs, it.n)
			wData = append(wData, it.data)
		case 'f':
			if err := flushWrites(); err != nil {
				return err
			}
			fNs = append(fNs, it.n)
		}
	}
	return flush()
}

// fullCopy restores this half's backend from the companion wholesale:
// for every tracked account, blocks the companion lacks are freed,
// blocks it alone holds are claimed with their contents, and every
// other companion block's contents are copied over, in batched reads
// and claims or writes.
//
// With no accounts tracked yet a full copy would vacuously "succeed"
// and mark a possibly stale half up without restoring anything, so it
// refuses instead: the owner's recovery scan (or any traffic) through
// the pair announces the accounts, and the next heal attempt proceeds.
func (h *Half) fullCopy(comp *Half, accounts []block.Account) error {
	if len(accounts) == 0 {
		return fmt.Errorf("stable: half %s: no accounts seen since this pair started; run the recovery scan through the pair before a full-copy restore", h.name)
	}
	for _, acct := range accounts {
		// The companion keeps serving while the copy runs, so the
		// snapshot can go stale under concurrent frees (the GC loop):
		// a per-block refusal means re-scan and retry, not abort.
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if err = h.copyAccount(comp, acct); err == nil || !isPerBlock(err) {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// copyAccount reconciles one account's blocks from the companion: one
// recovery scan each side, stale blocks freed, missing blocks claimed
// with their contents, the others' contents copied, all in batched
// reads and claims or writes. A per-block refusal
// (concurrent churn invalidated the snapshot) is returned for the
// caller to retry with a fresh scan.
func (h *Half) copyAccount(comp *Half, acct block.Account) error {
	theirs, err := comp.st.Recover(acct)
	if err != nil {
		return fmt.Errorf("stable: full-copy scan: %w", err)
	}
	mine, err := h.st.Recover(acct)
	if err != nil {
		return fmt.Errorf("stable: full-copy local scan: %w", err)
	}
	have := make(map[block.Num]bool, len(theirs))
	for _, n := range theirs {
		have[n] = true
	}
	var stale []block.Num
	ours := make(map[block.Num]bool, len(mine))
	for _, n := range mine {
		ours[n] = true
		if !have[n] {
			stale = append(stale, n)
		}
	}
	if err := block.FreeMulti(h.st, acct, stale); err != nil && !isPerBlock(err) {
		return fmt.Errorf("stable: full-copy free: %w", err)
	}
	// Blocks this half lacks are claimed together with their contents,
	// the rest rewritten, in bounded batches so a large store never
	// materializes whole in memory (the wire layer re-chunks to frames
	// underneath).
	var missing, present []block.Num
	for _, n := range theirs {
		if ours[n] {
			present = append(present, n)
		} else {
			missing = append(missing, n)
		}
	}
	const copyBatch = 512
	for _, set := range []struct {
		ns    []block.Num
		claim bool
	}{{missing, true}, {present, false}} {
		for start := 0; start < len(set.ns); start += copyBatch {
			chunk := set.ns[start:min(start+copyBatch, len(set.ns))]
			datas, err := block.ReadMulti(comp.st, acct, chunk)
			if err != nil {
				return fmt.Errorf("stable: full-copy read: %w", err)
			}
			if set.claim {
				err = h.mirrorClaims(acct, chunk, datas)
			} else if werr := block.WriteMulti(h.st, acct, chunk, datas); werr != nil && !isPerBlock(werr) {
				err = fmt.Errorf("write: %w", werr)
			}
			if err != nil {
				return fmt.Errorf("stable: full-copy %w", err)
			}
			h.mu.Lock()
			h.stats.FullCopied += uint64(len(chunk))
			h.mu.Unlock()
		}
	}
	return nil
}

// mirrorClaims claims ns on this half's backend with their data — one
// block.ClaimMulti, one durable group per log lane. A refused vector
// drops to one claim per number: a number this half already holds (an
// earlier attempt, or a companion call that landed before the outage
// was noticed, got this far) is tolerated, and the data is rewritten
// over all of them. Any other refusal fails.
func (h *Half) mirrorClaims(acct block.Account, ns []block.Num, data [][]byte) error {
	if block.ClaimMulti(h.st, acct, ns, data) == nil {
		return nil
	}
	for _, n := range ns {
		if err := h.st.Claim(acct, n); err != nil {
			if _, rerr := h.st.Read(acct, n); rerr != nil {
				return fmt.Errorf("claim block %d: %w", n, err)
			}
		}
	}
	if err := block.WriteMulti(h.st, acct, ns, data); err != nil && !isPerBlock(err) {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// BlockSize implements block.Store.
func (h *Half) BlockSize() int { return h.st.BlockSize() }

// legStore resolves one backend leg of the pair protocol: on a view
// bound to a sampled trace it opens a mirror-layer span named for this
// half and returns the backend bound to the span's context (so segstore
// spans nest beneath it); otherwise it returns the raw backend and a nil
// span, costing nothing. Callers end the span with the leg's error.
func (h *Half) legStore(op string) (*trace.Span, block.Store) {
	if !h.tc.Sampled() {
		return nil, h.st
	}
	sp, ctx := h.tc.Start("mirror", "half-"+h.name+" "+op)
	return sp, block.BindTrace(h.st, ctx)
}

// companionUp returns the companion if it is serving, as a view under
// this half's trace context so the mirror legs join the same trace.
func (h *Half) companionUp() *Half {
	c := h.companion
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil
	}
	return c.bind(h.tc)
}

// lockBoth acquires both halves' mutexes in the fixed pair-wide order
// (half A's first, whichever half calls), so intent appends and
// Rejoin's final drain check can hold both without a lock-order
// inversion — a role-based order (survivor first) would deadlock when
// in-flight operations on opposite halves each see the other down.
func (h *Half) lockBoth() (unlock func()) {
	first, second := h, h.companion
	if second.idx < first.idx {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	return func() {
		second.mu.Unlock()
		first.mu.Unlock()
	}
}

// keepIntentsFor records mutations for later replay onto comp,
// atomically with a re-check that comp is still down: it holds both
// halves' mutexes — as Rejoin's final drain check does — so an append
// either lands before the drain's emptiness check (and is replayed) or
// observes the companion up and reports false, in which case the
// caller mirrors the mutation companion-first after all. Without the
// re-check, an intent recorded just as the companion finished
// rejoining would never be replayed.
func (h *Half) keepIntentsFor(comp *Half, its ...intent) bool {
	unlock := h.lockBoth()
	defer unlock()
	stillDown := comp.down
	if stillDown {
		if len(h.intentions) == 0 {
			// Starting a fresh outage record; it is complete from here
			// on unless this half's own machine crashes.
			h.intentionsValid = true
		}
		h.intentions = append(h.intentions, its...)
		h.stats.IntentionsKept += uint64(len(its))
	}
	return stillDown
}

func copyData(data []byte) []byte {
	if data == nil {
		return nil
	}
	return append([]byte(nil), data...)
}

// intents builds one outage record per listed block; data is nil for
// operations that carry no payload.
func intents(op byte, account block.Account, ns []block.Num, data [][]byte) []intent {
	its := make([]intent, len(ns))
	for i, n := range ns {
		its[i] = intent{op: op, n: n, account: account}
		if data != nil {
			its[i].data = copyData(data[i])
		}
	}
	return its
}

// noteCollision counts a collision reported by the companion.
func (h *Half) noteCollision(err error) {
	if errors.Is(err, ErrCollision) {
		h.mu.Lock()
		h.stats.Collisions++
		h.mu.Unlock()
	}
}

// Claim implements block.PairStore: the caller-chosen number is claimed
// on both halves, so a pair can itself serve as one half of a larger
// pair or mirror a sharded facade's choices.
func (h *Half) Claim(account block.Account, n block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	if err := h.st.Claim(account, n); err != nil {
		return h.selfCheck(err)
	}
	for {
		comp := h.companionUp()
		if comp == nil {
			if h.keepIntentsFor(h.companion, intent{op: 'a', n: n, account: account}) {
				return nil
			}
			continue
		}
		if err := comp.acceptCompanionClaim(account, n); err != nil {
			if h.companionLost(comp, err) {
				continue
			}
			_ = h.st.Free(account, n)
			h.noteCollision(err)
			return err
		}
		return nil
	}
}

// acceptCompanionClaim mirrors a claim on the companion side. A claim
// that fails because the number is taken is exactly the paper's
// allocate collision.
func (h *Half) acceptCompanionClaim(account block.Account, n block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	if err := h.st.Claim(account, n); err != nil {
		if unreachable(err) {
			return err
		}
		return fmt.Errorf("block %d: %v: %w", n, err, ErrCollision)
	}
	return nil
}

// Lock implements block.Store; the lock lives on whichever half receives
// it plus its companion, so the commit critical section holds across the
// pair.
func (h *Half) Lock(account block.Account, n block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("lock")
	err := st.Lock(account, n)
	sp.End(err)
	if err != nil {
		return h.selfCheck(err)
	}
	if comp := h.companionUp(); comp != nil {
		if err := comp.acceptCompanionLockOp("mirror-lock", block.Store.Lock, account, n); err != nil && !h.companionLost(comp, err) {
			_ = h.st.Unlock(account, n)
			return err
		}
	}
	return nil
}

// acceptCompanionLockOp mirrors a lock or unlock on the companion side.
func (h *Half) acceptCompanionLockOp(leg string, op func(block.Store, block.Account, block.Num) error, account block.Account, n block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	sp, st := h.legStore(leg)
	err := op(st, account, n)
	sp.End(err)
	return err
}

// Unlock implements block.Store.
func (h *Half) Unlock(account block.Account, n block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	if comp := h.companionUp(); comp != nil {
		if err := comp.acceptCompanionLockOp("mirror-unlock", block.Store.Unlock, account, n); err != nil {
			_ = h.companionLost(comp, err) // best-effort; locks are volatile
		}
	}
	sp, st := h.legStore("unlock")
	err := st.Unlock(account, n)
	sp.End(err)
	return h.selfCheck(err)
}

// Recover implements block.Store.
func (h *Half) Recover(account block.Account) ([]block.Num, error) {
	if h.Down() {
		if comp := h.companionUp(); comp != nil {
			return comp.st.Recover(account)
		}
		return nil, ErrBothDown
	}
	h.note(account)
	ns, err := h.st.Recover(account)
	return ns, h.selfCheck(err)
}

// ClearLocks implements block.PairStore on this half's own backend.
func (h *Half) ClearLocks() {
	if h.Down() {
		return
	}
	h.st.ClearLocks()
}

var _ block.MultiStore = (*Half)(nil)
var _ block.PairStore = (*Half)(nil)

// --- the data operations ---
//
// The pair protocol is vectored: the companion-first leg of an N-block
// write is one batched call on the companion's store (over a TCP mount:
// one batched RPC stream), the local leg another, and an outage records
// N intents which are replayed batched on rejoin. A scalar call is the
// same protocol at N = 1. The block.MultiStore partial-failure contract
// is preserved; a collision anywhere in the batch is detected before
// any damage and reported as ErrCollision for the pair front to retry.

// ReadMulti implements block.MultiStore. Per §4, "For reads, the block
// server need not consult its companion server, except when the block on
// its disk is corrupted": the local batched read serves the whole batch;
// only when it reports corruption does the half take each block through
// readRepair, which fetches and repairs from the companion.
func (h *Half) ReadMulti(account block.Account, ns []block.Num) ([][]byte, error) {
	if h.Down() {
		return nil, h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("readMulti")
	out, err := block.ReadMulti(st, account, ns)
	sp.End(err)
	if err == nil || !errors.Is(err, block.ErrCorrupt) {
		return out, h.selfCheck(err)
	}
	out = make([][]byte, len(ns))
	for i, n := range ns {
		data, rerr := h.readRepair(account, n)
		if rerr != nil {
			return nil, &block.MultiError{Op: "read", Index: i, N: len(ns), Err: rerr}
		}
		out[i] = data
	}
	return out, nil
}

// readRepair reads one block of a batch that reported corruption: a
// corrupt local copy is served from the companion's and rewritten from
// it.
func (h *Half) readRepair(account block.Account, n block.Num) ([]byte, error) {
	data, err := h.st.Read(account, n)
	if err == nil {
		return data, nil
	}
	if !errors.Is(err, block.ErrCorrupt) {
		return nil, h.selfCheck(err)
	}
	comp := h.companionUp()
	if comp == nil {
		return nil, fmt.Errorf("stable: local corrupt and companion down: %w", err)
	}
	data, cerr := comp.st.Read(account, n)
	if cerr != nil {
		if h.companionLost(comp, cerr) {
			return nil, fmt.Errorf("stable: local corrupt and companion down: %w", err)
		}
		return nil, fmt.Errorf("stable: both copies bad: local %v, companion %w", err, cerr)
	}
	// A backend dying under the repair write routes through selfCheck
	// like every other local leg, so the pair front retries on the
	// companion that just served the good copy.
	if werr := h.st.Write(account, n, data); werr != nil {
		return nil, h.selfCheck(fmt.Errorf("stable: repair failed: %w", werr))
	}
	h.mu.Lock()
	h.stats.CorruptFallbacks++
	h.stats.Repairs++
	h.mu.Unlock()
	return data, nil
}

// WriteMulti implements block.MultiStore with companion-first ordering,
// which makes write collisions detectable before damage is done: every
// distinct block in the batch is latched on the companion, the
// companion applies the whole batch with one call, then the local
// backend does the same. Per-block independence holds on both halves;
// the first semantic failure is returned after both legs have applied
// what they individually could.
func (h *Half) WriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("stable: multi write with %d blocks, %d payloads", len(ns), len(data))
	}
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	for {
		comp := h.companionUp()
		if comp == nil {
			// Outage path: record the intents BEFORE the local write,
			// atomically with a companion-still-down check. A write that
			// then fails returns its error unacknowledged; the stray
			// intent replays the same unacked bytes at worst —
			// equivalent to a torn mirror write (per-block refusals
			// replay tolerantly on rejoin).
			if !h.keepIntentsFor(h.companion, intents('w', account, ns, data)...) {
				continue
			}
		} else if err := comp.acceptCompanionWriteMulti(account, ns, data); err != nil {
			switch {
			case h.companionLost(comp, err):
				continue
			case errors.Is(err, ErrCollision) || len(ns) == 1:
				// A collision modified nothing; a refused single block
				// skips the local leg so the mirrors cannot diverge.
				h.noteCollision(err)
				return err
			default:
				// The companion refused some entry per-block, and only
				// the first refusal is reported — a blanket local write
				// could apply an entry the companion skipped and
				// silently diverge the mirrors. Take each block through
				// the protocol on its own instead, which skips the local
				// leg exactly where the companion refuses.
				var first error
				for i := range ns {
					if werr := h.Write(account, ns[i], data[i]); werr != nil && first == nil {
						first = &block.MultiError{Op: "write", Index: i, N: len(ns), Err: werr}
					}
				}
				return first
			}
		} else {
			h.mu.Lock()
			h.stats.CompanionWrites += uint64(len(ns))
			h.mu.Unlock()
		}
		sp, st := h.legStore("writeMulti")
		err := block.WriteMulti(st, account, ns, data)
		sp.End(err)
		return h.selfCheck(err)
	}
}

// acceptCompanionWriteMulti is the companion leg of WriteMulti: all
// latches or none (a busy latch is a write collision, detected before
// any damage — concurrent writers of one block via different halves
// collide here instead of interleaving), then one batched write.
func (h *Half) acceptCompanionWriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	if at := h.latchAll(ns); at >= 0 {
		return &block.MultiError{Op: "write", Index: at, N: len(ns),
			Err: fmt.Errorf("block %d write: %w", ns[at], ErrCollision)}
	}
	defer h.unlatchAll(ns)
	sp, st := h.legStore("mirror-writeMulti")
	err := block.WriteMulti(st, account, ns, data)
	sp.End(err)
	return err
}

// AllocMulti implements block.MultiStore with the §4 allocate-and-write
// protocol: the local backend chooses all numbers with one batched
// allocation, the companion mirrors them (one claim of every number
// with its payload). All-or-nothing per the contract; a claim refused at the
// companion rolls everything back and reports ErrCollision for the pair
// front to retry. The loop covers the races around outage transitions:
// a companion dying mid-call falls back to the intentions list, and a
// companion that rejoined between the check and the append mirrors
// directly.
func (h *Half) AllocMulti(account block.Account, data [][]byte) ([]block.Num, error) {
	if h.Down() {
		return nil, h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("allocMulti")
	ns, err := block.AllocMulti(st, account, data)
	sp.End(err)
	if err != nil {
		return nil, h.selfCheck(err)
	}
	for {
		comp := h.companionUp()
		if comp == nil {
			if h.keepIntentsFor(h.companion, intents('a', account, ns, data)...) {
				return ns, nil
			}
			continue
		}
		if err := comp.acceptCompanionAllocMulti(account, ns, data); err != nil {
			if h.companionLost(comp, err) {
				continue
			}
			_ = block.FreeMulti(h.st, account, ns)
			h.noteCollision(err)
			return nil, err
		}
		h.mu.Lock()
		h.stats.CompanionWrites += uint64(len(ns))
		h.mu.Unlock()
		return ns, nil
	}
}

// acceptCompanionAllocMulti mirrors a batch of allocations with one
// block.ClaimMulti — every number claimed and its payload stored, all or
// nothing, one durable group per log lane on a segstore. A refused
// number is the paper's allocate collision, reported at its index with
// nothing left claimed here.
func (h *Half) acceptCompanionAllocMulti(account block.Account, ns []block.Num, data [][]byte) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("mirror-claimMulti")
	err := block.ClaimMulti(st, account, ns, data)
	sp.End(err)
	if err == nil || unreachable(err) {
		return err
	}
	at, cause := 0, err
	var me *block.MultiError
	if errors.As(err, &me) && me.Index < len(ns) {
		at, cause = me.Index, me.Err
	}
	return &block.MultiError{Op: "alloc", Index: at, N: len(ns),
		Err: fmt.Errorf("block %d: %v: %w", ns[at], cause, ErrCollision)}
}

// FreeMulti implements block.MultiStore: one batched free per half,
// per-block independence as the contract requires. Semantic companion
// failures are best-effort; recovery reconciles.
func (h *Half) FreeMulti(account block.Account, ns []block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("freeMulti")
	err := block.FreeMulti(st, account, ns)
	sp.End(err)
	if err != nil && !isPerBlock(err) {
		return h.selfCheck(err)
	}
	for {
		comp := h.companionUp()
		if comp == nil {
			if h.keepIntentsFor(h.companion, intents('f', account, ns, nil)...) {
				return err
			}
			continue
		}
		if cerr := comp.acceptCompanionFreeMulti(account, ns); cerr != nil && h.companionLost(comp, cerr) {
			continue
		}
		return err
	}
}

func (h *Half) acceptCompanionFreeMulti(account block.Account, ns []block.Num) error {
	if h.Down() {
		return h.downErr()
	}
	h.note(account)
	sp, st := h.legStore("mirror-freeMulti")
	err := block.FreeMulti(st, account, ns)
	sp.End(err)
	return err
}

// isPerBlock reports whether a multi-op error is a per-block semantic
// failure (the rest of the batch was still attempted) rather than a
// whole-batch failure.
func isPerBlock(err error) bool {
	return errors.Is(err, block.ErrNotAllocated) || errors.Is(err, block.ErrNotOwner) ||
		errors.Is(err, block.ErrLocked) || errors.Is(err, block.ErrNotLocked)
}

// --- the failover front ---

// Pair bundles both halves behind one block.Store that fails over
// automatically: requests go to the primary half and fall back to the
// companion, reproducing "Clients send requests to the alternative block
// server if the primary fails to respond." A trace-bound view of the
// pair (BindTrace) is the same front over trace-bound views of the two
// halves.
type Pair struct {
	block.Scalar
	a, b    *Half
	backoff *backoff
}

// backoff is the pair's collision-backoff randomness: its own seeded
// source (no global math/rand state), so concurrent pairs are
// race-clean and a test's backoff schedule is reproducible from its
// seed.
type backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewFailoverPair builds the two halves plus the failover front over any
// two block.PairStore backends, with the default backoff seed.
func NewFailoverPair(a, b block.PairStore) *Pair {
	return NewFailoverPairSeed(a, b, 1)
}

// NewFailoverPairSeed is NewFailoverPair with the collision-backoff
// randomness seeded explicitly.
func NewFailoverPairSeed(a, b block.PairStore, seed int64) *Pair {
	ha, hb := NewPair(a, b)
	return newFront(ha, hb, &backoff{rng: rand.New(rand.NewSource(seed))})
}

func newFront(a, b *Half, bo *backoff) *Pair {
	p := &Pair{a: a, b: b, backoff: bo}
	p.Scalar = block.Scalar{Multi: p}
	return p
}

// BindTrace implements block.TraceBinder: operations on the bound view
// run the same failover pair protocol, but each backend leg — the
// serving half's own write and the companion-first mirror write —
// records a mirror-layer span and passes the trace context down to its
// backend (so segstore lane spans nest under the half that issued them).
func (p *Pair) BindTrace(tc trace.Context) block.Store {
	return newFront(p.a.bind(tc), p.b.bind(tc), p.backoff)
}

// Halves returns the two halves for fault injection.
func (p *Pair) Halves() (*Half, *Half) { return p.a, p.b }

// DetectStale compares the two halves' persisted epochs (the boot-time
// divergence check): the §4 survivor bumped its epoch the moment its
// companion went down, so after a service restart — when no process
// remembers the outage — the half with the lower epoch is exactly the
// half that missed writes. It is marked stale (down until the heal loop
// restores it by full copy) and its name returned. An empty name means
// the epochs agree, a half is already down (the degraded-mount path
// handles it), or a backend's epoch cannot be read.
func (p *Pair) DetectStale() (string, error) {
	if p.a.Down() || p.b.Down() {
		return "", nil
	}
	ea, okA := halfEpoch(p.a)
	eb, okB := halfEpoch(p.b)
	if !okA || !okB {
		return "", nil
	}
	switch {
	case ea == eb:
		return "", nil
	case ea < eb:
		p.a.MarkStale()
		return p.a.name, nil
	default:
		p.b.MarkStale()
		return p.b.name, nil
	}
}

// halfEpoch reads one half's persisted epoch, reporting false when the
// backend does not track epochs or cannot be read.
func halfEpoch(h *Half) (uint64, bool) {
	es, ok := h.st.(block.EpochStore)
	if !ok {
		return 0, false
	}
	e, err := es.Epoch()
	if err != nil {
		return 0, false
	}
	return e, true
}

// Heal probes every down half and rejoins those whose backend answers
// again, returning how many rejoined plus the first rejoin failure (a
// probe that cannot reach the backend is not a failure — the machine
// is simply still down). Mirror deployments (afs-server -mirror) call
// this periodically, so a rebooted block machine rejoins — replaying
// the outage or full-copying — without operator action, and a rejoin
// that keeps failing (e.g. a half rebooted with the wrong block size)
// surfaces instead of silently retrying forever.
func (p *Pair) Heal() (int, error) {
	healed := 0
	var first error
	for _, h := range []*Half{p.a, p.b} {
		if !h.Down() {
			continue
		}
		// A cheap probe that touches the backend but mutates nothing:
		// the recovery scan of the unused nil account.
		if _, err := h.st.Recover(0); err != nil {
			continue
		}
		if err := h.Rejoin(); err != nil {
			if first == nil {
				first = fmt.Errorf("half %s: %w", h.name, err)
			}
			continue
		}
		healed++
	}
	return healed, first
}

// pick returns a serving half, preferring A.
func (p *Pair) pick() (*Half, error) {
	if !p.a.Down() {
		return p.a, nil
	}
	if !p.b.Down() {
		return p.b, nil
	}
	return nil, ErrBothDown
}

// retryCollision runs fn on a serving half, redoing it "after a random
// wait interval" when a collision is detected, as §4 prescribes — and
// redoing it immediately on the companion when the serving half's own
// backend proves unreachable mid-operation ("clients send requests to
// the alternative block server if the primary fails to respond").
func (p *Pair) retryCollision(fn func(h *Half) error) error {
	for attempt := 0; ; attempt++ {
		h, err := p.pick()
		if err != nil {
			return err
		}
		err = fn(h)
		if err == nil {
			return nil
		}
		if unreachable(err) && h.Down() {
			// The serving half's backend died under the operation and
			// marked itself down; the next pick fails over (or reports
			// ErrBothDown).
			continue
		}
		if !errors.Is(err, ErrCollision) {
			return err
		}
		if attempt > 16 {
			return err
		}
		// Random backoff: the simulated equivalent of the paper's
		// "redo the operation after a random wait interval". We spin
		// on the scheduler rather than sleeping to keep tests fast.
		p.backoff.mu.Lock()
		spins := p.backoff.rng.Intn(1 << uint(min(attempt, 8)))
		p.backoff.mu.Unlock()
		for i := 0; i < spins; i++ {
			_ = i
		}
	}
}

// BlockSize implements block.Store.
func (p *Pair) BlockSize() int { return p.a.BlockSize() }

// Lock implements block.Store.
func (p *Pair) Lock(account block.Account, n block.Num) error {
	return p.retryCollision(func(h *Half) error { return h.Lock(account, n) })
}

// Unlock implements block.Store.
func (p *Pair) Unlock(account block.Account, n block.Num) error {
	return p.retryCollision(func(h *Half) error { return h.Unlock(account, n) })
}

// Recover implements block.Store.
func (p *Pair) Recover(account block.Account) ([]block.Num, error) {
	var ns []block.Num
	err := p.retryCollision(func(h *Half) error {
		var e error
		ns, e = h.Recover(account)
		return e
	})
	return ns, err
}

// Claim implements block.PairStore, so a pair can mirror an outer
// layer's allocation choices (a pair of pairs, or a sharded facade of
// pairs).
func (p *Pair) Claim(account block.Account, n block.Num) error {
	return p.retryCollision(func(h *Half) error { return h.Claim(account, n) })
}

// ClearLocks implements block.PairStore on every serving half.
func (p *Pair) ClearLocks() {
	p.a.ClearLocks()
	p.b.ClearLocks()
}

// ReadMulti implements block.MultiStore.
func (p *Pair) ReadMulti(account block.Account, ns []block.Num) ([][]byte, error) {
	var out [][]byte
	err := p.retryCollision(func(h *Half) error {
		var e error
		out, e = h.ReadMulti(account, ns)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteMulti implements block.MultiStore with failover and collision
// retry (a colliding batch has modified nothing and is safe to redo).
func (p *Pair) WriteMulti(account block.Account, ns []block.Num, data [][]byte) error {
	return p.retryCollision(func(h *Half) error { return h.WriteMulti(account, ns, data) })
}

// AllocMulti implements block.MultiStore with failover and collision
// retry (a colliding batch has been rolled back and is safe to redo).
func (p *Pair) AllocMulti(account block.Account, data [][]byte) ([]block.Num, error) {
	var ns []block.Num
	err := p.retryCollision(func(h *Half) error {
		var e error
		ns, e = h.AllocMulti(account, data)
		return e
	})
	if err != nil {
		return nil, err
	}
	return ns, nil
}

// FreeMulti implements block.MultiStore.
func (p *Pair) FreeMulti(account block.Account, ns []block.Num) error {
	return p.retryCollision(func(h *Half) error { return h.FreeMulti(account, ns) })
}

var _ block.TraceBinder = (*Pair)(nil)

// Usage implements block.UsageReporter when the serving half's backend
// does: a mirrored pair's headroom is its primary's (both halves hold
// the same blocks by construction).
func (p *Pair) Usage() (block.Usage, error) {
	h, err := p.pick()
	if err != nil {
		return block.Usage{}, err
	}
	if ur, ok := h.st.(block.UsageReporter); ok {
		return ur.Usage()
	}
	return block.Usage{}, fmt.Errorf("stable: backend does not report usage")
}

// BlockStats implements block.StatsReporter when the serving half's
// backend does.
func (p *Pair) BlockStats() (block.Stats, error) {
	h, err := p.pick()
	if err != nil {
		return block.Stats{}, err
	}
	if sr, ok := h.st.(block.StatsReporter); ok {
		return sr.BlockStats()
	}
	return block.Stats{}, fmt.Errorf("stable: backend does not report stats")
}

// Epoch implements block.EpochStore so nested mirror compositions
// forward epochs: when a Pair is itself the backend of an outer Half (a
// pair of pairs, RAID-10 style), the outer layer's survivor bump and
// boot-time stale detection must reach persistent storage through this
// layer. A pair's logical epoch is the maximum over its serving halves'
// backends — the pair as a unit has seen a write if either half has —
// so a degraded inner pair does not misreport the composition as stale.
func (p *Pair) Epoch() (uint64, error) {
	var e uint64
	found := false
	for _, h := range []*Half{p.a, p.b} {
		if h.Down() {
			continue
		}
		he, ok := halfEpoch(h)
		if !ok {
			continue
		}
		if !found || he > e {
			e = he
		}
		found = true
	}
	if !found {
		return 0, fmt.Errorf("stable: no serving backend tracks epochs")
	}
	return e, nil
}

// SetEpoch implements block.EpochStore, forwarding to every serving
// half's backend so both sides of the pair agree with the outer layer.
// Best effort on a degraded pair: the down half realigns during rejoin
// (alignEpochs), exactly as with pair-internal bumps.
func (p *Pair) SetEpoch(e uint64) error {
	set := false
	for _, h := range []*Half{p.a, p.b} {
		if h.Down() {
			continue
		}
		es, ok := h.st.(block.EpochStore)
		if !ok {
			continue
		}
		if err := es.SetEpoch(e); err != nil {
			return err
		}
		set = true
	}
	if !set {
		return fmt.Errorf("stable: no serving backend tracks epochs")
	}
	return nil
}

var _ block.MultiStore = (*Pair)(nil)
var _ block.PairStore = (*Pair)(nil)
var _ block.EpochStore = (*Pair)(nil)

// Collect is the pair's metrics collector: each half's liveness and
// protocol counters, labelled by half. Register it with a constant
// label naming the pair (afs-server: pair; afs-block: shard).
func (p *Pair) Collect(e *metrics.Emitter) {
	for _, h := range []*Half{p.a, p.b} {
		down := 0.0
		if h.Down() {
			down = 1
		}
		e.Gauge("afs_mirror_half_down", "1 when the half is down.", down, "half", h.Name())
		st := h.Stats()
		e.Counters("afs_mirror_half_events_total", "Pair-protocol events by kind.", "event", map[string]uint64{
			"companion_write": st.CompanionWrites, "collision": st.Collisions,
			"corrupt_fallback": st.CorruptFallbacks, "repair": st.Repairs,
			"intent": st.IntentionsKept, "replayed": st.Replayed,
			"full_copied": st.FullCopied, "auto_markdown": st.AutoMarkdowns,
		}, "half", h.Name())
	}
}
