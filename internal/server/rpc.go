package server

import (
	"errors"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/version"
)

// The wire protocol of the Amoeba File Service. One transaction per
// operation; the request's first capability names the subject (file or
// version). Bulk operands travel in Data as encoded paths followed by the
// page payload; small operands ride in Args.
const (
	// CmdPing answers liveness probes (lock waiters, failover).
	CmdPing uint32 = iota + 1
	// CmdCreateFile creates a small file from Data; reply carries the
	// file capability.
	CmdCreateFile
	// CmdCreateVersion opens an update on Caps[0]; Args[0] carries
	// CreateVersionOpts bits; reply carries the version capability.
	CmdCreateVersion
	// CmdReadPage reads the page at the path in Data. Args[0]=1
	// requests a flags-only read (client cache hit): the reply then
	// confirms validity without returning the data.
	CmdReadPage
	// CmdWritePage writes the page at the path in Data to the payload.
	CmdWritePage
	// CmdInsertPage inserts a page at Args[0] of the path's page.
	CmdInsertPage
	// CmdRemovePage removes the reference at Args[0].
	CmdRemovePage
	// CmdMakeHole nils the reference at Args[0].
	CmdMakeHole
	// CmdFillHole fills the hole at Args[0] with a page from payload.
	CmdFillHole
	// CmdRemoveHole deletes the hole at Args[0].
	CmdRemoveHole
	// CmdSplitPage splits the path's page keeping Args[0] data bytes.
	CmdSplitPage
	// CmdMoveSubtree moves Data=(srcPath,dstPath) Args=(srcIdx,dstIdx).
	CmdMoveSubtree
	// CmdCreateSubFile embeds a new file at Args[0] of the path's page;
	// reply carries the sub-file capability.
	CmdCreateSubFile
	// CmdCommit commits the version; reply Args[0]=1 when the commit
	// required a merge with concurrent updates (cache hint).
	CmdCommit
	// CmdAbort abandons the version.
	CmdAbort
	// CmdCurrentVersion returns the file's current version root block.
	CmdCurrentVersion
	// CmdHistory returns the committed chain roots, oldest first.
	CmdHistory
	// CmdReadCommitted reads path Data from version root Args[0].
	CmdReadCommitted
	// CmdValidateCache validates a cache entry from version root
	// Args[0]; the reply lists paths to discard.
	CmdValidateCache
	// Reserved: the number of the retired client-cache read-ahead
	// command, kept so the later command numbers stay put on the wire.
	// A request carrying it is answered as an unknown command.
	_
	// CmdSnapshots lists the file's archived snapshots, oldest first.
	// Reply Data holds one 44-byte record per snapshot:
	// seq(8) || archive root block(4) || snapshot score(32).
	CmdSnapshots
	// CmdOpenAt reads the page at path Data of the file as of archived
	// snapshot Args[0] — the read-only time-travel path. Reply
	// Args[0]=nrefs, Data=page data. A hash-check failure along the
	// descent reports StatusCorrupt naming the corrupt archive block.
	CmdOpenAt
	// CmdTraceReport delivers a completed, client-assembled trace
	// (trace.EncodeTrace in Data) for ingestion into the server's trace
	// ring: the client minted the root span, so only it holds the whole
	// tree once the reply trailers come home. Ignored (OK) when the
	// server runs without a tracer. The report itself is never traced.
	CmdTraceReport
)

// CmdName names a file service command for spans and metrics.
func CmdName(cmd uint32) string {
	switch cmd {
	case CmdPing:
		return "ping"
	case CmdCreateFile:
		return "createFile"
	case CmdCreateVersion:
		return "createVersion"
	case CmdReadPage:
		return "readPage"
	case CmdWritePage:
		return "writePage"
	case CmdInsertPage:
		return "insertPage"
	case CmdRemovePage:
		return "removePage"
	case CmdMakeHole:
		return "makeHole"
	case CmdFillHole:
		return "fillHole"
	case CmdRemoveHole:
		return "removeHole"
	case CmdSplitPage:
		return "splitPage"
	case CmdMoveSubtree:
		return "moveSubtree"
	case CmdCreateSubFile:
		return "createSubFile"
	case CmdCommit:
		return "commit"
	case CmdAbort:
		return "abort"
	case CmdCurrentVersion:
		return "currentVersion"
	case CmdHistory:
		return "history"
	case CmdReadCommitted:
		return "readCommitted"
	case CmdValidateCache:
		return "validateCache"
	case CmdSnapshots:
		return "snapshots"
	case CmdOpenAt:
		return "openAt"
	case CmdTraceReport:
		return "traceReport"
	default:
		return ""
	}
}

// Version-creation option bits for CmdCreateVersion Args[0].
const (
	OptRespectTopHint uint64 = 1 << iota
	OptRelaxSuperLock
)

// Handler returns the rpc.Handler serving this server's port. A request
// carrying a sampled trace context runs its dispatch under a
// server-layer span; the accumulated spans (dispatch, occ, shard,
// mirror, segstore, nested rpc hops) travel back in the reply trailer
// for the root-minting client to assemble.
func (s *Server) Handler() rpc.Handler {
	return func(req *rpc.Message) *rpc.Message {
		tc, finish := trace.Join(req.Trace)
		if !tc.Sampled() {
			// No client-minted trace: the service's own tracer may still
			// sample this request into a server-rooted trace (operators
			// get traces without client cooperation). Trace reports are
			// never themselves traced.
			if t := s.shared.Tracer; t != nil && req.Command != CmdTraceReport {
				if root, ctx := t.Start("server", CmdName(req.Command)); root != nil {
					resp, err := s.dispatch(req, ctx)
					root.End(err)
					if err != nil {
						return errReply(req, err)
					}
					return resp
				}
			}
			resp, err := s.dispatch(req, trace.Context{})
			if err != nil {
				return errReply(req, err)
			}
			return resp
		}
		sp, ctx := tc.Start("server", CmdName(req.Command))
		resp, err := s.dispatch(req, ctx)
		sp.End(err)
		if err != nil {
			resp = errReply(req, err)
		}
		if enc := finish(); len(enc) > 0 {
			resp.Spans = enc
		}
		return resp
	}
}

// errReply maps service errors onto wire statuses.
func errReply(req *rpc.Message, err error) *rpc.Message {
	status := rpc.StatusIO
	switch {
	case errors.Is(err, capability.ErrBadCheck):
		status = rpc.StatusBadCapability
	case errors.Is(err, capability.ErrRights):
		status = rpc.StatusBadRights
	case errors.Is(err, occ.ErrConflict):
		status = rpc.StatusConflict
	case errors.Is(err, ErrUnknownVersion), errors.Is(err, ErrVersionClosed),
		errors.Is(err, ErrNoArchive), errors.Is(err, archive.ErrUnknownSnapshot):
		status = rpc.StatusNotFound
	case errors.Is(err, version.ErrBadPath), errors.Is(err, version.ErrHole),
		errors.Is(err, version.ErrNotHole), errors.Is(err, page.ErrBadIndex),
		errors.Is(err, page.ErrPageFull):
		status = rpc.StatusBadArgument
	case errors.Is(err, block.ErrCorrupt):
		status = rpc.StatusCorrupt
	case errors.Is(err, block.ErrLocked):
		status = rpc.StatusLocked
	case errors.Is(err, disk.ErrOffline):
		status = rpc.StatusIO
	}
	return req.Errorf(status, "%v", err)
}

// reqCap returns the request's subject capability.
func reqCap(req *rpc.Message) (capability.Capability, error) {
	if len(req.Caps) < 1 {
		return capability.Nil, errors.New("server: missing capability")
	}
	return req.Caps[0], nil
}

// reqPath decodes one path from the front of Data, returning the rest.
func reqPath(req *rpc.Message) (page.Path, []byte, error) {
	return page.DecodePath(req.Data)
}

func (s *Server) dispatch(req *rpc.Message, tc trace.Context) (*rpc.Message, error) {
	switch req.Command {
	case CmdPing:
		return req.Reply(rpc.StatusOK), nil

	case CmdTraceReport:
		if tr := s.shared.Tracer; tr != nil {
			if t, err := trace.DecodeTrace(req.Data); err == nil {
				tr.Ingest(t)
			} else {
				return nil, err
			}
		}
		return req.Reply(rpc.StatusOK), nil

	case CmdCreateFile:
		fcap, err := s.CreateFile(req.Data)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Caps = []capability.Capability{fcap}
		return r, nil

	case CmdCreateVersion:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		opts := CreateVersionOpts{
			RespectTopHint: req.Args[0]&OptRespectTopHint != 0,
			RelaxSuperLock: req.Args[0]&OptRelaxSuperLock != 0,
		}
		vcap, err := s.CreateVersion(fcap, opts)
		if err != nil {
			return nil, err
		}
		base, err := s.VersionBase(vcap)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Caps = []capability.Capability{vcap}
		r.Args[0] = uint64(base)
		return r, nil

	case CmdReadPage:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		p, _, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		data, nrefs, err := s.ReadPage(vcap, p)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Args[0] = uint64(nrefs)
		if req.Args[0] == 1 {
			// Flags-only read: the client's cached copy is valid (it
			// validated at version open); confirm without the bulk.
			r.Args[1] = 1
		} else {
			r.Data = data
		}
		return r, nil

	case CmdWritePage, CmdInsertPage, CmdFillHole:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		p, payload, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		switch req.Command {
		case CmdWritePage:
			err = s.WritePage(vcap, p, payload)
		case CmdInsertPage:
			err = s.InsertPage(vcap, p, int(req.Args[0]), payload)
		case CmdFillHole:
			err = s.FillHole(vcap, p, int(req.Args[0]), payload)
		}
		if err != nil {
			return nil, err
		}
		return req.Reply(rpc.StatusOK), nil

	case CmdRemovePage, CmdMakeHole, CmdRemoveHole, CmdSplitPage:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		p, _, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		switch req.Command {
		case CmdRemovePage:
			err = s.RemovePage(vcap, p, int(req.Args[0]))
		case CmdMakeHole:
			err = s.MakeHole(vcap, p, int(req.Args[0]))
		case CmdRemoveHole:
			err = s.RemoveHole(vcap, p, int(req.Args[0]))
		case CmdSplitPage:
			err = s.SplitPage(vcap, p, int(req.Args[0]))
		}
		if err != nil {
			return nil, err
		}
		return req.Reply(rpc.StatusOK), nil

	case CmdMoveSubtree:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		src, rest, err := page.DecodePath(req.Data)
		if err != nil {
			return nil, err
		}
		dst, _, err := page.DecodePath(rest)
		if err != nil {
			return nil, err
		}
		if err := s.MoveSubtree(vcap, src, int(req.Args[0]), dst, int(req.Args[1])); err != nil {
			return nil, err
		}
		return req.Reply(rpc.StatusOK), nil

	case CmdCreateSubFile:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		p, payload, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		fcap, err := s.CreateSubFile(vcap, p, int(req.Args[0]), payload)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Caps = []capability.Capability{fcap}
		return r, nil

	case CmdCommit:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		before := s.com.Stat.Validations.Load()
		if err := s.commitT(tc, vcap); err != nil {
			return nil, err
		}
		root, err := s.VersionRoot(vcap)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		if s.com.Stat.Validations.Load() != before {
			r.Args[0] = 1 // merged: client caches must be conservative
		}
		r.Args[1] = uint64(root)
		return r, nil

	case CmdAbort:
		vcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		if err := s.Abort(vcap); err != nil {
			return nil, err
		}
		return req.Reply(rpc.StatusOK), nil

	case CmdCurrentVersion:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		cur, err := s.CurrentVersion(fcap)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Args[0] = uint64(cur)
		return r, nil

	case CmdHistory:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		hist, err := s.History(fcap)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Data = make([]byte, 0, 4*len(hist))
		for _, b := range hist {
			r.Data = append(r.Data, byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
		}
		return r, nil

	case CmdReadCommitted:
		if _, err := reqCap(req); err != nil {
			return nil, err
		}
		p, _, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		data, nrefs, err := s.ReadCommitted(block.Num(req.Args[0]), p)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Args[0] = uint64(nrefs)
		r.Data = data
		return r, nil

	case CmdSnapshots:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		snaps, err := s.Snapshots(fcap)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Data = make([]byte, 0, 44*len(snaps))
		for _, e := range snaps {
			r.Data = append(r.Data,
				byte(e.Seq>>56), byte(e.Seq>>48), byte(e.Seq>>40), byte(e.Seq>>32),
				byte(e.Seq>>24), byte(e.Seq>>16), byte(e.Seq>>8), byte(e.Seq))
			r.Data = append(r.Data, byte(e.Root>>24), byte(e.Root>>16), byte(e.Root>>8), byte(e.Root))
			r.Data = append(r.Data, e.Score[:]...)
		}
		return r, nil

	case CmdOpenAt:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		p, _, err := reqPath(req)
		if err != nil {
			return nil, err
		}
		data, nrefs, err := s.ReadSnapshot(fcap, req.Args[0], p)
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Args[0] = uint64(nrefs)
		r.Data = data
		return r, nil

	case CmdValidateCache:
		fcap, err := reqCap(req)
		if err != nil {
			return nil, err
		}
		cur, iv, err := s.ValidateCache(fcap, block.Num(req.Args[0]))
		if err != nil {
			return nil, err
		}
		r := req.Reply(rpc.StatusOK)
		r.Args[0] = uint64(cur)
		if iv.All {
			r.Args[1] = 1
		}
		r.Args[2] = uint64(len(iv.Exact))
		r.Args[3] = uint64(len(iv.Prefixes))
		for _, p := range iv.Exact {
			r.Data, err = p.Encode(r.Data)
			if err != nil {
				return nil, err
			}
		}
		for _, p := range iv.Prefixes {
			r.Data, err = p.Encode(r.Data)
			if err != nil {
				return nil, err
			}
		}
		return r, nil

	default:
		return req.Errorf(rpc.StatusBadCommand, "command %d", req.Command), nil
	}
}
