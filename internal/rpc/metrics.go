package rpc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Metrics is a per-command latency and error family for one side of the
// RPC wire: afs_rpc_seconds{cmd=...} histograms plus
// afs_rpc_errors_total{cmd=...,status=...} counters. Install one on a
// TCPClient or Network (the caller side) with SetMetrics, and wrap
// server handlers with Instrument (the callee side); both daemons
// register Collect with a side label.
//
// Command numbers are only unique within one service's protocol (the
// file service, the block service and the replicated table all count
// from small integers), so each Metrics instance carries its own Name
// resolver; a nil resolver prints the raw number.
type Metrics struct {
	// Name maps a command number to its label value. Set before use.
	Name func(cmd uint32) string

	cmds sync.Map // uint32 -> *cmdMetrics
}

type cmdMetrics struct {
	lat  metrics.Histogram
	errs sync.Map // Status -> *errCount
}

type errCount struct{ n atomic.Uint64 }

// Observe records one completed transaction for cmd: its latency
// always, and an error count when the outcome was not StatusOK.
// transportErr covers failures that never produced a reply (dead port,
// broken connection), counted under the synthetic status "transport".
func (m *Metrics) Observe(cmd uint32, d time.Duration, status Status, transportErr bool) {
	if m == nil {
		return
	}
	e := m.entry(cmd)
	e.lat.Observe(d)
	if status == StatusOK && !transportErr {
		return
	}
	key := status
	if transportErr {
		key = Status(^uint32(0)) // sentinel: no wire status at all
	}
	v, ok := e.errs.Load(key)
	if !ok {
		v, _ = e.errs.LoadOrStore(key, &errCount{})
	}
	v.(*errCount).n.Add(1)
}

func (m *Metrics) entry(cmd uint32) *cmdMetrics {
	if v, ok := m.cmds.Load(cmd); ok {
		return v.(*cmdMetrics)
	}
	v, _ := m.cmds.LoadOrStore(cmd, &cmdMetrics{})
	return v.(*cmdMetrics)
}

func (m *Metrics) name(cmd uint32) string {
	if m.Name != nil {
		if s := m.Name(cmd); s != "" {
			return s
		}
	}
	return fmt.Sprintf("%d", cmd)
}

// Collect emits the family into a metrics.Registry scrape; register it
// with the constant label side="client" or side="server" (several
// Metrics instances share the two series names).
func (m *Metrics) Collect(e *metrics.Emitter) {
	type row struct {
		cmd uint32
		e   *cmdMetrics
	}
	var rows []row
	m.cmds.Range(func(k, v any) bool {
		rows = append(rows, row{k.(uint32), v.(*cmdMetrics)})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].cmd < rows[j].cmd })
	for _, r := range rows {
		cmd := m.name(r.cmd)
		e.Histogram("afs_rpc_seconds", "Per-command RPC transaction latency.", r.e.lat.Snapshot(), "cmd", cmd)
		r.e.errs.Range(func(k, v any) bool {
			status := "transport"
			if st := k.(Status); st != Status(^uint32(0)) {
				status = st.String()
			}
			e.Counter("afs_rpc_errors_total", "Per-command non-OK RPC outcomes by status.",
				float64(v.(*errCount).n.Load()), "cmd", cmd, "status", status)
			return true
		})
	}
}

// Instrument wraps a server-side handler so every request it serves is
// observed into m.
func Instrument(m *Metrics, h Handler) Handler {
	if m == nil {
		return h
	}
	return func(req *Message) *Message {
		start := time.Now()
		resp := h(req)
		status := StatusOK
		if resp != nil {
			status = resp.Status
		}
		m.Observe(req.Command, time.Since(start), status, false)
		return resp
	}
}
