package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/capability"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// The block service wire protocol: the §4 commands (allocate, deallocate,
// read, write), the lock facility, the Claim used by companion pairs and
// the recovery scan. A Remote proxies the Store interface over any
// rpc.Transactor, so a file server cannot tell a local block server from
// one across the network — which is how cmd/afs-server mounts
// cmd/afs-block.
const (
	// The scalar data commands are reserved, not served: every peer
	// sends the vectored ones below, a scalar call being a vector of
	// one. Serve answers them StatusBadCommand.
	cmdAlloc uint32 = 0x0b10c0 + iota
	cmdFree
	cmdRead
	cmdWrite
	cmdLock
	cmdUnlock
	cmdClaim
	cmdRecover
	cmdBlockSize
	// The multi-block commands carry many blocks per frame so an N-page
	// operation costs O(N / blocks-per-frame) round trips instead of
	// O(N). Frames are still bounded by rpc.MaxData, so the client packs
	// greedily and chunks; see remoteStore below for the wire layouts.
	cmdReadMulti
	cmdWriteMulti
	cmdAllocMulti
	cmdFreeMulti
	// cmdUsage and cmdStats proxy the optional UsageReporter and
	// StatsReporter interfaces, so the sharded facade can read a remote
	// shard's allocation headroom and per-shard counters (fsyncs,
	// operation counts) over the wire.
	cmdUsage
	cmdStats
	// cmdClearLocks completes the PairStore surface over the wire: a
	// remote store can serve as one half of a §4 companion pair
	// (cmdClaim mirrors allocation choices, cmdClearLocks drops
	// volatile lock state on rejoin).
	cmdClearLocks
	// cmdEpoch and cmdSetEpoch proxy the optional EpochStore interface:
	// the stable layer's boot-time divergence detection works on remote
	// halves too.
	cmdEpoch
	cmdSetEpoch
	// cmdClaimMulti is a companion's whole mirror leg in one command:
	// claim the partner's numbers and store their payloads, all or
	// nothing (ClaimMultiStore).
	cmdClaimMulti
)

// Status codes specific to the block service.
const (
	statusNoSpace rpc.Status = rpc.StatusServiceBase + iota
	statusNotAllocated
	statusNotOwner
	statusLocked
	statusNotLocked
	// statusCorrupt carries ErrCorrupt across the wire, so a mirrored
	// half mounted remotely still triggers the companion read fallback.
	statusCorrupt
)

// Claimer is the optional companion-pair operation: backends that can
// allocate a caller-chosen block number (block.Server, segstore.Store)
// expose it; Serve answers cmdClaim and cmdClaimMulti only for stores
// that have it.
type Claimer interface {
	Claim(account Account, n Num) error
}

// CmdName names a block service command for spans and metrics.
func CmdName(cmd uint32) string {
	switch cmd {
	case cmdAlloc:
		return "alloc"
	case cmdFree:
		return "free"
	case cmdRead:
		return "read"
	case cmdWrite:
		return "write"
	case cmdLock:
		return "lock"
	case cmdUnlock:
		return "unlock"
	case cmdClaim:
		return "claim"
	case cmdRecover:
		return "recover"
	case cmdBlockSize:
		return "blockSize"
	case cmdReadMulti:
		return "readMulti"
	case cmdWriteMulti:
		return "writeMulti"
	case cmdAllocMulti:
		return "allocMulti"
	case cmdFreeMulti:
		return "freeMulti"
	case cmdUsage:
		return "usage"
	case cmdStats:
		return "stats"
	case cmdClearLocks:
		return "clearLocks"
	case cmdEpoch:
		return "epoch"
	case cmdSetEpoch:
		return "setEpoch"
	case cmdClaimMulti:
		return "claimMulti"
	default:
		return ""
	}
}

// Serve returns an rpc.Handler exposing s. Any Store implementation can
// be served: the in-memory Server, a stable pair, or the durable
// segstore backend. A request carrying a sampled trace context runs
// under a span and against a trace-bound view of s, and the reply
// trailer carries the spans home.
func Serve(s Store) rpc.Handler {
	serve := serveFunc(s)
	return func(req *rpc.Message) *rpc.Message {
		tc, finish := trace.Join(req.Trace)
		if !tc.Sampled() {
			return serve(s, req)
		}
		sp, ctx := tc.Start("block", CmdName(req.Command))
		resp := serve(BindTrace(s, ctx), req)
		sp.End(resp.Err())
		if enc := finish(); len(enc) > 0 {
			resp.Spans = enc
		}
		return resp
	}
}

// serveFunc returns the command dispatcher over a per-request store
// view. The optional-interface commands (claim, usage, stats, epochs,
// lock clearing) always consult the original store: a trace-bound view
// does not re-implement them, and they need no spans.
func serveFunc(orig Store) func(Store, *rpc.Message) *rpc.Message {
	return func(s Store, req *rpc.Message) *rpc.Message {
		acct := Account(req.Args[0])
		n := Num(req.Args[1])
		switch req.Command {
		case cmdBlockSize:
			r := req.Reply(rpc.StatusOK)
			r.Args[0] = uint64(s.BlockSize())
			return r
		case cmdLock:
			if err := s.Lock(acct, n); err != nil {
				return blockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdUnlock:
			if err := s.Unlock(acct, n); err != nil {
				return blockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdClaim:
			cl, ok := orig.(Claimer)
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not support claim")
			}
			if err := cl.Claim(acct, n); err != nil {
				return blockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdClaimMulti:
			if _, ok := orig.(Claimer); !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not support claim")
			}
			ns, datas, err := decodeNumPayloads(req.Data, int(req.Args[1]))
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "block: %v", err)
			}
			if err := ClaimMulti(orig, acct, ns, datas); err != nil {
				return multiBlockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdRecover:
			nums, err := s.Recover(acct)
			if err != nil {
				return blockErr(req, err)
			}
			// One page of the sorted scan: the blocks after n, as many as
			// fit a frame; Args[0]=1 tells the caller to ask for more.
			slices.Sort(nums)
			nums = nums[sort.Search(len(nums), func(i int) bool { return nums[i] > n }):]
			r := req.Reply(rpc.StatusOK)
			if len(nums) > recoverPage {
				nums = nums[:recoverPage]
				r.Args[0] = 1
			}
			r.Data = appendNums(make([]byte, 0, 4*len(nums)), nums)
			return r
		case cmdUsage:
			ur, ok := orig.(UsageReporter)
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not report usage")
			}
			u, err := ur.Usage()
			if err != nil {
				return blockErr(req, err)
			}
			r := req.Reply(rpc.StatusOK)
			r.Args[0] = uint64(u.Capacity)
			r.Args[1] = uint64(u.InUse)
			return r
		case cmdClearLocks:
			cl, ok := orig.(interface{ ClearLocks() })
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not support clearing locks")
			}
			cl.ClearLocks()
			return req.Reply(rpc.StatusOK)
		case cmdEpoch:
			es, ok := orig.(EpochStore)
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not track epochs")
			}
			e, err := es.Epoch()
			if err != nil {
				return blockErr(req, err)
			}
			r := req.Reply(rpc.StatusOK)
			r.Args[0] = e
			return r
		case cmdSetEpoch:
			es, ok := orig.(EpochStore)
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not track epochs")
			}
			if err := es.SetEpoch(req.Args[2]); err != nil {
				return blockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdStats:
			sr, ok := orig.(StatsReporter)
			if !ok {
				return req.Errorf(rpc.StatusBadCommand, "block: store does not report stats")
			}
			st, err := sr.BlockStats()
			if err != nil {
				return blockErr(req, err)
			}
			r := req.Reply(rpc.StatusOK)
			r.Data = encodeStats(st)
			return r
		case cmdReadMulti:
			ns, err := decodeNums(req.Data, int(req.Args[1]))
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "block: %v", err)
			}
			datas, err := ReadMulti(s, acct, ns)
			if err != nil {
				return multiBlockErr(req, err)
			}
			// Serve as many leading entries as fit in one frame; the
			// client re-issues the remainder. (Clients chunk requests by
			// worst-case size, so a partial serve is a rare safety net.)
			r := req.Reply(rpc.StatusOK)
			served, size := chunkEnd(datas, 0, 4)
			r.Data = make([]byte, 0, size)
			for _, d := range datas[:served] {
				r.Data = appendPayload(r.Data, d)
			}
			r.Args[1] = uint64(served)
			return r
		case cmdWriteMulti:
			ns, datas, err := decodeNumPayloads(req.Data, int(req.Args[1]))
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "block: %v", err)
			}
			if err := WriteMulti(s, acct, ns, datas); err != nil {
				return multiBlockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		case cmdAllocMulti:
			datas, err := decodePayloads(req.Data, int(req.Args[1]))
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "block: %v", err)
			}
			nums, err := AllocMulti(s, acct, datas)
			if err != nil {
				return multiBlockErr(req, err)
			}
			r := req.Reply(rpc.StatusOK)
			r.Data = appendNums(make([]byte, 0, 4*len(nums)), nums)
			return r
		case cmdFreeMulti:
			ns, err := decodeNums(req.Data, int(req.Args[1]))
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "block: %v", err)
			}
			if err := FreeMulti(s, acct, ns); err != nil {
				return multiBlockErr(req, err)
			}
			return req.Reply(rpc.StatusOK)
		default:
			return req.Errorf(rpc.StatusBadCommand, "block: command %#x", req.Command)
		}
	}
}

// multiBlockErr maps a multi-op error to a wire reply; the failing
// caller-order index (if known) rides in Args[2] as index+1, so the
// remote proxy can rebuild an exact MultiError on the client side.
func multiBlockErr(req *rpc.Message, err error) *rpc.Message {
	var me *MultiError
	if !errors.As(err, &me) {
		return blockErr(req, err)
	}
	// Only the per-block error's text travels: the proxy re-wraps it in
	// a MultiError, and a vector of one unwraps to the bare message.
	r := blockErr(req, me.Err)
	r.Args[2] = uint64(me.Index) + 1
	return r
}

// blockErr maps store errors to wire statuses.
func blockErr(req *rpc.Message, err error) *rpc.Message {
	status := rpc.StatusIO
	switch {
	case errors.Is(err, ErrNoSpace):
		status = statusNoSpace
	case errors.Is(err, ErrNotAllocated):
		status = statusNotAllocated
	case errors.Is(err, ErrNotOwner):
		status = statusNotOwner
	case errors.Is(err, ErrLocked):
		status = statusLocked
	case errors.Is(err, ErrNotLocked):
		status = statusNotLocked
	case errors.Is(err, ErrCorrupt):
		status = statusCorrupt
	case errors.Is(err, ErrCollision):
		status = rpc.StatusCollision
	}
	return req.Errorf(status, "%v", err)
}

// statusErr maps wire statuses back to the store's sentinel errors so
// errors.Is works identically on both sides of the wire.
func statusErr(resp *rpc.Message) error {
	if resp.Status == rpc.StatusOK {
		return nil
	}
	base := resp.Err()
	switch resp.Status {
	case statusNoSpace:
		return fmt.Errorf("%w (%v)", ErrNoSpace, base)
	case statusNotAllocated:
		return fmt.Errorf("%w (%v)", ErrNotAllocated, base)
	case statusNotOwner:
		return fmt.Errorf("%w (%v)", ErrNotOwner, base)
	case statusLocked:
		return fmt.Errorf("%w (%v)", ErrLocked, base)
	case statusNotLocked:
		return fmt.Errorf("%w (%v)", ErrNotLocked, base)
	case statusCorrupt:
		return fmt.Errorf("%w (%v)", ErrCorrupt, base)
	case rpc.StatusCollision:
		return fmt.Errorf("%w (%v)", ErrCollision, base)
	default:
		return base
	}
}

// remoteStore is a Store proxy over a transport.
type remoteStore struct {
	// Scalar derives Alloc/Free/Read/Write from the vectored commands:
	// the proxy never sends the scalar command codes.
	Scalar
	tr   rpc.Transactor
	port capability.Port
	size int
	tc   trace.Context
}

// BindTrace implements TraceBinder: the bound proxy attaches the trace
// context to every wire message, so the trace continues on the far
// machine and its spans ride home in the reply trailer.
func (r *remoteStore) BindTrace(tc trace.Context) Store {
	return newRemote(r.tr, r.port, r.size, tc)
}

func newRemote(tr rpc.Transactor, port capability.Port, size int, tc trace.Context) *remoteStore {
	r := &remoteStore{tr: tr, port: port, size: size, tc: tc}
	r.Scalar = Scalar{Multi: r}
	return r
}

// transact sends req over the transport under an rpc-layer span when a
// trace context is bound, adopting whatever spans the far side returns.
func (r *remoteStore) transact(req *rpc.Message) (*rpc.Message, error) {
	if !r.tc.Sampled() {
		return r.tr.Transact(r.port, req)
	}
	sp, ctx := r.tc.Start("rpc", "block "+CmdName(req.Command))
	req.Trace = ctx
	resp, err := r.tr.Transact(r.port, req)
	if resp != nil {
		sp.Adopt(resp.Spans)
	}
	sp.End(err)
	return resp, err
}

// Dial connects to a block service on port via tr and learns its block
// size. The returned Store is indistinguishable from a local one.
func Dial(tr rpc.Transactor, port capability.Port) (Store, error) {
	r := newRemote(tr, port, 0, trace.Context{})
	resp, err := r.call(&rpc.Message{Command: cmdBlockSize})
	if err != nil {
		return nil, err
	}
	r.size = int(resp.Args[0])
	if r.size <= 0 {
		return nil, fmt.Errorf("block: remote reports block size %d", r.size)
	}
	return r, nil
}

// Remote returns a Store proxy for a block service already known to
// use the given block size, without contacting it. A mirror mount uses
// it to mount a currently-unreachable half: the pair starts that half
// in the down state and the heal loop brings it back, so one dead
// machine never blocks bringing the service up.
func Remote(tr rpc.Transactor, port capability.Port, blockSize int) Store {
	return newRemote(tr, port, blockSize, trace.Context{})
}

func (r *remoteStore) call(req *rpc.Message) (*rpc.Message, error) {
	resp, err := r.transact(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func (r *remoteStore) req(cmd uint32, acct Account, n Num, data []byte) *rpc.Message {
	m := &rpc.Message{Command: cmd, Data: data}
	m.Args[0] = uint64(acct)
	m.Args[1] = uint64(n)
	return m
}

// BlockSize implements Store.
func (r *remoteStore) BlockSize() int { return r.size }

// Lock implements Store.
func (r *remoteStore) Lock(acct Account, n Num) error {
	_, err := r.call(r.req(cmdLock, acct, n, nil))
	return err
}

// Unlock implements Store.
func (r *remoteStore) Unlock(acct Account, n Num) error {
	_, err := r.call(r.req(cmdUnlock, acct, n, nil))
	return err
}

// Claim implements the companion-pair claim over the wire.
func (r *remoteStore) Claim(acct Account, n Num) error {
	_, err := r.call(r.req(cmdClaim, acct, n, nil))
	return err
}

// ClearLocks completes PairStore over the wire. Lock bits are advisory
// volatile state, so a failure (server briefly unreachable) is ignored:
// a restarted server already starts with all locks clear.
func (r *remoteStore) ClearLocks() {
	_, _ = r.call(r.req(cmdClearLocks, 0, 0, nil))
}

// Epoch implements EpochStore over the wire. A server whose store does
// not track epochs answers StatusBadCommand, which surfaces as an error
// and makes the pair layer skip divergence detection.
func (r *remoteStore) Epoch() (uint64, error) {
	resp, err := r.call(r.req(cmdEpoch, 0, 0, nil))
	if err != nil {
		return 0, err
	}
	return resp.Args[0], nil
}

// SetEpoch implements EpochStore over the wire.
func (r *remoteStore) SetEpoch(e uint64) error {
	m := r.req(cmdSetEpoch, 0, 0, nil)
	m.Args[2] = e
	_, err := r.call(m)
	return err
}

// recoverPage is how many block numbers one cmdRecover reply carries.
const recoverPage = rpc.MaxData / 4

// Recover implements Store. The scan arrives in pages of ascending block
// numbers, each request naming the last block it has (Args[1]); a reply
// with Args[0]=1 means more follow. A server that predates paging
// ignores Args[1] and never sets the flag, so its one reply is the
// whole scan.
func (r *remoteStore) Recover(acct Account) ([]Num, error) {
	var out []Num
	after := NilNum
	for {
		resp, err := r.call(r.req(cmdRecover, acct, after, nil))
		if err != nil {
			return nil, err
		}
		nums, err := decodeNums(resp.Data, len(resp.Data)/4)
		if err != nil {
			return nil, err
		}
		out = append(out, nums...)
		if resp.Args[0] == 0 {
			return out, nil
		}
		if len(nums) == 0 || nums[len(nums)-1] <= after {
			return nil, fmt.Errorf("block: recovery scan page after block %d does not advance: %w", after, rpc.ErrMalformed)
		}
		after = nums[len(nums)-1]
	}
}

// Usage implements UsageReporter over the wire. A server whose store
// does not report usage answers StatusBadCommand, which surfaces here
// as an error.
func (r *remoteStore) Usage() (Usage, error) {
	resp, err := r.call(r.req(cmdUsage, 0, 0, nil))
	if err != nil {
		return Usage{}, err
	}
	return Usage{Capacity: int(resp.Args[0]), InUse: int(resp.Args[1])}, nil
}

// BlockStats implements StatsReporter over the wire.
func (r *remoteStore) BlockStats() (Stats, error) {
	resp, err := r.call(r.req(cmdStats, 0, 0, nil))
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(resp.Data)
}

// encodeStats packs the common counters as eight big-endian uint64s.
func encodeStats(st Stats) []byte {
	vals := [...]uint64{st.Allocs, st.Frees, st.Reads, st.Writes,
		st.Locks, st.Unlocks, st.LockConflicts, st.Syncs}
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return out
}

// decodeStats unpacks encodeStats's layout.
func decodeStats(data []byte) (Stats, error) {
	if len(data) != 8*8 {
		return Stats{}, fmt.Errorf("stats reply of %d bytes: %w", len(data), rpc.ErrMalformed)
	}
	var vals [8]uint64
	for i := range vals {
		vals[i] = binary.BigEndian.Uint64(data[8*i:])
	}
	return Stats{Allocs: vals[0], Frees: vals[1], Reads: vals[2], Writes: vals[3],
		Locks: vals[4], Unlocks: vals[5], LockConflicts: vals[6], Syncs: vals[7]}, nil
}

// --- the multi-block wire operations ---
//
// Wire layouts (all big endian, counts in Args[1], account in Args[0]):
//
//	cmdReadMulti  req:  count × num(4)
//	              rep:  served in Args[1]; served × (dlen(4) || payload),
//	                    for the first `served` requested blocks in order
//	cmdWriteMulti req:  count × (num(4) || dlen(4) || payload)
//	cmdAllocMulti req:  count × (dlen(4) || payload)
//	              rep:  count × num(4)
//	cmdFreeMulti  req:  count × num(4)
//	cmdClaimMulti req:  count × (num(4) || dlen(4) || payload)
//
// The client packs greedily up to rpc.MaxData per frame and issues as
// many frames as the batch needs; a payload too large to share a frame
// with its entry header is refused with rpc.ErrTooLarge. The scalar
// command codes (cmdAlloc..cmdWrite) stay reserved and unserved: this
// proxy sends only the vectored ones — a scalar call is a vector of
// one.

// appendNums appends count block numbers.
func appendNums(dst []byte, ns []Num) []byte {
	for _, n := range ns {
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	return dst
}

// decodeNums parses count block numbers from the front of data. The
// count comes off the wire, so it is bounded against the actual data
// length (division, not multiplication: no overflow) before any
// allocation sized from it.
func decodeNums(data []byte, count int) ([]Num, error) {
	if count < 0 || count > len(data)/4 {
		return nil, fmt.Errorf("%d numbers in %d bytes: %w", count, len(data), rpc.ErrMalformed)
	}
	out := make([]Num, count)
	for i := range out {
		out[i] = Num(uint32(data[4*i])<<24 | uint32(data[4*i+1])<<16 |
			uint32(data[4*i+2])<<8 | uint32(data[4*i+3]))
	}
	return out, nil
}

// decodePayloads parses count (dlen || payload) entries. Every entry
// costs at least 4 bytes, which bounds the wire-supplied count before
// it sizes an allocation.
func decodePayloads(data []byte, count int) ([][]byte, error) {
	if count < 0 || count > len(data)/4 {
		return nil, fmt.Errorf("%d payloads in %d bytes: %w", count, len(data), rpc.ErrMalformed)
	}
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("payload %d/%d truncated: %w", i, count, rpc.ErrMalformed)
		}
		dlen := int(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
		data = data[4:]
		if dlen < 0 || len(data) < dlen {
			return nil, fmt.Errorf("payload %d/%d length %d: %w", i, count, dlen, rpc.ErrMalformed)
		}
		out = append(out, data[:dlen:dlen])
		data = data[dlen:]
	}
	return out, nil
}

// decodeNumPayloads parses count (num || dlen || payload) entries.
// Every entry costs at least 8 bytes, which bounds the wire-supplied
// count before it sizes an allocation.
func decodeNumPayloads(data []byte, count int) ([]Num, [][]byte, error) {
	if count < 0 || count > len(data)/8 {
		return nil, nil, fmt.Errorf("%d entries in %d bytes: %w", count, len(data), rpc.ErrMalformed)
	}
	ns := make([]Num, 0, count)
	datas := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("entry %d/%d truncated: %w", i, count, rpc.ErrMalformed)
		}
		n := Num(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
		dlen := int(uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]))
		data = data[8:]
		if dlen < 0 || len(data) < dlen {
			return nil, nil, fmt.Errorf("entry %d/%d length %d: %w", i, count, dlen, rpc.ErrMalformed)
		}
		ns = append(ns, n)
		datas = append(datas, data[:dlen:dlen])
		data = data[dlen:]
	}
	return ns, datas, nil
}

// multiCall runs one multi-op chunk and maps any failure into the
// caller's index space as a MultiError: the server reports the failing
// in-chunk index in reply Args[2] (1-based; 0 = unknown), which is
// offset by chunkStart here. A transport-level failure (server
// unreachable) is attributed to the chunk's first block.
func (r *remoteStore) multiCall(op string, req *rpc.Message, chunkStart, chunkLen, total int) (*rpc.Message, error) {
	resp, err := r.transact(req)
	if err != nil {
		return nil, multiErr(op, chunkStart, total, err)
	}
	if serr := statusErr(resp); serr != nil {
		idx := chunkStart
		if k := int(resp.Args[2]); k > 0 && k <= chunkLen {
			idx = chunkStart + k - 1
		}
		return nil, multiErr(op, idx, total, serr)
	}
	return resp, nil
}

// ReadMulti implements MultiStore over the wire. Requests are chunked
// so the worst-case reply (every block full) fits one frame.
func (r *remoteStore) ReadMulti(acct Account, ns []Num) ([][]byte, error) {
	perChunk := max(1, rpc.MaxData/(4+r.size))
	out := make([][]byte, 0, len(ns))
	for start := 0; start < len(ns); {
		chunk := ns[start:min(start+perChunk, len(ns))]
		req := &rpc.Message{Command: cmdReadMulti, Data: appendNums(make([]byte, 0, 4*len(chunk)), chunk)}
		req.Args[0] = uint64(acct)
		req.Args[1] = uint64(len(chunk))
		resp, err := r.multiCall("read", req, start, len(chunk), len(ns))
		if err != nil {
			return nil, err
		}
		// The server serves the leading entries that fit its reply frame
		// and the loop re-issues the rest; none served means one block
		// cannot share a frame with its entry header.
		served := int(resp.Args[1])
		if served > len(chunk) {
			return nil, fmt.Errorf("block: multi read served %d of %d: %w", served, len(chunk), rpc.ErrMalformed)
		}
		if served == 0 {
			return nil, multiErr("read", start, len(ns), rpc.ErrTooLarge)
		}
		datas, err := decodePayloads(resp.Data, served)
		if err != nil {
			return nil, err
		}
		out = append(out, datas...)
		start += served
	}
	return out, nil
}

// chunkEnd returns the end of the longest run of payloads from start
// that fits one frame at hdr header bytes per entry, and the run's
// encoded size. end == start means data[start] alone exceeds a frame.
func chunkEnd(data [][]byte, start, hdr int) (end, size int) {
	end = start
	for end < len(data) && size+hdr+len(data[end]) <= rpc.MaxData {
		size += hdr + len(data[end])
		end++
	}
	return end, size
}

// appendPayload appends one (dlen || payload) entry.
func appendPayload(dst, d []byte) []byte {
	dst = append(dst, byte(len(d)>>24), byte(len(d)>>16), byte(len(d)>>8), byte(len(d)))
	return append(dst, d...)
}

// WriteMulti implements MultiStore over the wire with greedy packing;
// per the contract each block's write stands alone, so chunk errors are
// collected and the first one returned.
func (r *remoteStore) WriteMulti(acct Account, ns []Num, data [][]byte) error {
	if len(ns) != len(data) {
		return errMultiShape
	}
	var first error
	for i := 0; i < len(ns); {
		end, size := chunkEnd(data, i, 8)
		var err error
		if end == i {
			err = multiErr("write", i, len(ns), rpc.ErrTooLarge)
			end++ // skip the one payload no frame can carry
		} else {
			buf := make([]byte, 0, size)
			for j := i; j < end; j++ {
				buf = appendPayload(appendNums(buf, ns[j:j+1]), data[j])
			}
			req := &rpc.Message{Command: cmdWriteMulti, Data: buf}
			req.Args[0] = uint64(acct)
			req.Args[1] = uint64(end - i)
			_, err = r.multiCall("write", req, i, end-i, len(ns))
		}
		if err != nil && first == nil {
			first = err
		}
		i = end
	}
	return first
}

// AllocMulti implements MultiStore over the wire. All-or-nothing across
// chunks: a failed chunk (already rolled back server-side) triggers a
// FreeMulti of the chunks that did allocate.
func (r *remoteStore) AllocMulti(acct Account, data [][]byte) ([]Num, error) {
	out := make([]Num, 0, len(data))
	fail := func(err error) ([]Num, error) {
		if len(out) > 0 {
			_ = r.FreeMulti(acct, out) // best-effort rollback
		}
		return nil, err
	}
	for i := 0; i < len(data); {
		end, size := chunkEnd(data, i, 4)
		if end == i {
			return fail(multiErr("alloc", i, len(data), rpc.ErrTooLarge))
		}
		buf := make([]byte, 0, size)
		for _, d := range data[i:end] {
			buf = appendPayload(buf, d)
		}
		req := &rpc.Message{Command: cmdAllocMulti, Data: buf}
		req.Args[0] = uint64(acct)
		req.Args[1] = uint64(end - i)
		resp, err := r.multiCall("alloc", req, i, end-i, len(data))
		if err != nil {
			return fail(err)
		}
		nums, err := decodeNums(resp.Data, end-i)
		if err != nil {
			return fail(err)
		}
		out = append(out, nums...)
		i = end
	}
	return out, nil
}

// ClaimMulti implements ClaimMultiStore over the wire, packed like
// WriteMulti and all-or-nothing across frames like AllocMulti: a
// refused frame (already rolled back server-side) frees the frames that
// claimed. A nil data travels as empty payloads.
func (r *remoteStore) ClaimMulti(acct Account, ns []Num, data [][]byte) error {
	if data != nil && len(data) != len(ns) {
		return errMultiShape
	}
	payloads := data
	if payloads == nil {
		payloads = make([][]byte, len(ns))
	}
	for i := 0; i < len(ns); {
		end, size := chunkEnd(payloads, i, 8)
		var err error
		if end == i {
			err = multiErr("claim", i, len(ns), rpc.ErrTooLarge)
		} else {
			buf := make([]byte, 0, size)
			for j := i; j < end; j++ {
				buf = appendPayload(appendNums(buf, ns[j:j+1]), payloads[j])
			}
			req := &rpc.Message{Command: cmdClaimMulti, Data: buf}
			req.Args[0] = uint64(acct)
			req.Args[1] = uint64(end - i)
			_, err = r.multiCall("claim", req, i, end-i, len(ns))
		}
		if err != nil {
			if i > 0 {
				_ = r.FreeMulti(acct, ns[:i]) // best-effort rollback
			}
			return err
		}
		i = end
	}
	return nil
}

// FreeMulti implements MultiStore over the wire.
func (r *remoteStore) FreeMulti(acct Account, ns []Num) error {
	perChunk := rpc.MaxData / 4
	var first error
	for start := 0; start < len(ns); start += perChunk {
		end := start + perChunk
		if end > len(ns) {
			end = len(ns)
		}
		chunk := ns[start:end]
		req := &rpc.Message{Command: cmdFreeMulti, Data: appendNums(make([]byte, 0, 4*len(chunk)), chunk)}
		req.Args[0] = uint64(acct)
		req.Args[1] = uint64(len(chunk))
		if _, err := r.multiCall("free", req, start, len(chunk), len(ns)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Store = (*remoteStore)(nil)
var _ MultiStore = (*remoteStore)(nil)
var _ PairStore = (*remoteStore)(nil)
var _ ClaimMultiStore = (*remoteStore)(nil)
var _ UsageReporter = (*remoteStore)(nil)
var _ StatsReporter = (*remoteStore)(nil)
var _ EpochStore = (*remoteStore)(nil)
