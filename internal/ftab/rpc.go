package ftab

import (
	"fmt"
	"sort"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/file"
	"repro/internal/rpc"
)

// The replication wire protocol. Every message carries the sender's
// server ID in Args[0]; receiving a hello, pull or push proves the
// sender is back in the mesh and resumes pushes to it (an update alone
// does not — missed history must flow through a snapshot exchange
// first, which those three commands are part of).
const (
	// cmdHello probes a peer (the heal loop's "are you back?").
	cmdHello uint32 = 0xf7ab00 + iota
	// cmdPull requests one snapshot page of entries with object numbers
	// above Args[1]; the reply carries the page, and Args[1] is 1 when
	// more pages follow.
	cmdPull
	// cmdPush delivers one snapshot page for merging (the healing
	// side's catch-up stream).
	cmdPush
	// cmdUpdate delivers one incremental table update: Args[1]=op,
	// Args[2]=object, Args[3]=expect<<32|next; create ops carry
	// root/flags/owner capability in Data.
	cmdUpdate
	// cmdPortAlive asks whether this process serves the update-lock
	// port in Args[1] (cross-server §5.3 liveness probing).
	cmdPortAlive
	// cmdLive returns this process's open version roots (GC pinning).
	cmdLive
	// cmdUpdateBatch delivers Args[1] incremental updates in one frame:
	// the asynchronous per-peer stream's unit. Data is a sequence of
	// op(1) obj(4) expect(4) next(4) plen(2) payload items; each item
	// applies exactly as the matching cmdUpdate would.
	cmdUpdateBatch
)

// Update ops (cmdUpdate Args[1] / cmdUpdateBatch items).
const (
	opCreate uint64 = iota + 1
	opCAS
	opSuper
	opDelete
	// opRetire is the garbage collector's retention move: peers adopt
	// the entry exactly instead of chasing (see applyRetire).
	opRetire
)

// maxPageRows bounds one snapshot page: rowLen bytes per row keeps the
// page inside rpc.MaxData.
const maxPageRows = 1200

// rowLen is a snapshot row's wire length: obj(4) root(4) flags(1)
// owner capability(16).
const rowLen = 9 + capability.EncodedLen

// snapRow is one snapshot row: an entry or a tombstone.
type snapRow struct {
	obj     uint32
	e       file.Entry
	deleted bool
}

// batchMsg builds one cmdUpdateBatch message from pending updates.
func batchMsg(sender uint32, batch []upd) *rpc.Message {
	m := &rpc.Message{Command: cmdUpdateBatch, Data: encodeBatch(batch)}
	m.Args[0] = uint64(sender)
	m.Args[1] = uint64(len(batch))
	return m
}

// encodeBatch packs updates for a cmdUpdateBatch frame: op(1) obj(4)
// expect(4) next(4) plen(2) payload each.
func encodeBatch(batch []upd) []byte {
	out := make([]byte, 0, 15*len(batch))
	for _, u := range batch {
		out = append(out, byte(u.op))
		out = appendU32(out, u.obj)
		out = appendU32(out, uint32(u.expect))
		out = appendU32(out, uint32(u.next))
		out = append(out, byte(len(u.data)>>8), byte(len(u.data)))
		out = append(out, u.data...)
	}
	return out
}

// decodeBatch unpacks encodeBatch.
func decodeBatch(data []byte) ([]upd, error) {
	var out []upd
	for len(data) > 0 {
		if len(data) < 15 {
			return nil, fmt.Errorf("batch item of %d trailing bytes: %w", len(data), rpc.ErrMalformed)
		}
		u := upd{
			op:     uint64(data[0]),
			obj:    u32(data[1:]),
			expect: block.Num(u32(data[5:])),
			next:   block.Num(u32(data[9:])),
		}
		plen := int(data[13])<<8 | int(data[14])
		data = data[15:]
		if len(data) < plen {
			return nil, fmt.Errorf("batch payload of %d bytes with %d left: %w", plen, len(data), rpc.ErrMalformed)
		}
		if plen > 0 {
			u.data = append([]byte(nil), data[:plen]...)
			data = data[plen:]
		}
		out = append(out, u)
	}
	return out, nil
}

// createLen is a create payload's length: root(4) flags(1) owner
// capability(16).
const createLen = 5 + capability.EncodedLen

// encodeCreate packs a create update's payload.
func encodeCreate(root block.Num, super bool, owner capability.Capability) []byte {
	out := make([]byte, 0, createLen)
	out = appendU32(out, uint32(root))
	if super {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return owner.Encode(out)
}

// decodeCreate unpacks encodeCreate.
func decodeCreate(data []byte) (file.Entry, error) {
	if len(data) != createLen {
		return file.Entry{}, fmt.Errorf("create payload of %d bytes: %w", len(data), rpc.ErrMalformed)
	}
	c, _, err := capability.Decode(data[5:])
	return file.Entry{Cap: c, Entry: block.Num(u32(data)), Super: data[4] != 0}, err
}

// encodeRows packs snapshot rows: obj(4) root(4) flags(1) owner
// capability(16) each.
func encodeRows(rows []snapRow) []byte {
	out := make([]byte, 0, rowLen*len(rows))
	for _, row := range rows {
		out = appendU32(out, row.obj)
		out = appendU32(out, uint32(row.e.Entry))
		var f byte
		if row.e.Super {
			f |= 1
		}
		if row.deleted {
			f |= 2
		}
		out = append(out, f)
		out = row.e.Cap.Encode(out)
	}
	return out
}

// decodeRows unpacks encodeRows.
func decodeRows(data []byte) ([]snapRow, error) {
	if len(data)%rowLen != 0 {
		return nil, fmt.Errorf("snapshot page of %d bytes: %w", len(data), rpc.ErrMalformed)
	}
	rows := make([]snapRow, 0, len(data)/rowLen)
	for len(data) > 0 {
		c, _, err := capability.Decode(data[9:])
		if err != nil {
			return nil, err
		}
		rows = append(rows, snapRow{
			obj:     u32(data[0:]),
			e:       file.Entry{Cap: c, Entry: block.Num(u32(data[4:])), Super: data[8]&1 != 0},
			deleted: data[8]&2 != 0,
		})
		data = data[rowLen:]
	}
	return rows, nil
}

// Handler serves this replica's well-known port (PortFor(ID)).
func (r *Replicated) Handler() rpc.Handler {
	return func(req *rpc.Message) *rpc.Message {
		sender := uint32(req.Args[0])
		switch req.Command {
		case cmdHello:
			r.markPeerUp(sender)
			return req.Reply(rpc.StatusOK)

		case cmdPull:
			if uint32(req.Args[1]) == 0 {
				// First page: resume pushing before the page is built,
				// so no update can land between the snapshot and the
				// push stream.
				r.markPeerUp(sender)
			}
			rows, more := r.snapshotRows(uint32(req.Args[1]))
			resp := req.Reply(rpc.StatusOK)
			resp.Args[0] = uint64(r.id)
			if more {
				resp.Args[1] = 1
			}
			resp.Data = encodeRows(rows)
			return resp

		case cmdPush:
			r.markPeerUp(sender)
			rows, err := decodeRows(req.Data)
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "ftab: %v", err)
			}
			r.mergeRows(rows)
			return req.Reply(rpc.StatusOK)

		case cmdUpdate:
			u := upd{
				op:     req.Args[1],
				obj:    uint32(req.Args[2]),
				expect: block.Num(req.Args[3] >> 32),
				next:   block.Num(req.Args[3] & 0xffffffff),
				data:   req.Data,
			}
			if err := r.applyUpdate(u); err != nil {
				return req.Errorf(rpc.StatusBadArgument, "ftab: %v", err)
			}
			return req.Reply(rpc.StatusOK)

		case cmdUpdateBatch:
			batch, err := decodeBatch(req.Data)
			if err != nil {
				return req.Errorf(rpc.StatusBadArgument, "ftab: %v", err)
			}
			if uint64(len(batch)) != req.Args[1] {
				return req.Errorf(rpc.StatusBadArgument, "ftab: batch of %d items, header says %d", len(batch), req.Args[1])
			}
			for _, u := range batch {
				if err := r.applyUpdate(u); err != nil {
					return req.Errorf(rpc.StatusBadArgument, "ftab: %v", err)
				}
			}
			return req.Reply(rpc.StatusOK)

		case cmdPortAlive:
			resp := req.Reply(rpc.StatusOK)
			if r.portAlive != nil && r.portAlive(capability.Port(req.Args[1])) {
				resp.Args[0] = 1
			}
			return resp

		case cmdLive:
			resp := req.Reply(rpc.StatusOK)
			if r.live != nil {
				for _, n := range r.live() {
					resp.Data = appendU32(resp.Data, uint32(n))
				}
			}
			return resp

		default:
			return req.Errorf(rpc.StatusBadCommand, "ftab: command %#x", req.Command)
		}
	}
}

// --- small codecs ---

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// decodeNums parses a packed block-number list.
func decodeNums(data []byte) ([]block.Num, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("number list of %d bytes: %w", len(data), rpc.ErrMalformed)
	}
	out := make([]block.Num, 0, len(data)/4)
	for len(data) > 0 {
		out = append(out, block.Num(u32(data)))
		data = data[4:]
	}
	return out, nil
}

func sortU32(v []uint32) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
