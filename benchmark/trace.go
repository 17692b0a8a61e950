package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/segstore"
)

// The traced run. The same topology as the rig, assembled in this
// process with a probe on every boundary (stack.go), is driven by ONE
// goroutine: operations run one at a time, the collector runs as a
// driver step every few operations, and the file-table push streams are
// drained after every commit. That makes spans nest by time containment
// and makes every count a function of the seed alone. The run has two
// passes of the same number of operations — probes off, then probes on —
// and the ratio of their rates is the tracing overhead.

// TraceInfo is the part of a traced run that goes to the run record but
// not to the contract line.
type TraceInfo struct {
	Ops         int     `json:"ops"`   // client transactions in the probes-on pass
	Spans       int     `json:"spans"` // spans recorded
	File        string  `json:"file"`  // where the spans were written
	OffOpsPerS  float64 `json:"probes_off_ops_per_s"`
	OnOpsPerS   float64 `json:"probes_on_ops_per_s"`
	OpLatencyUs float64 `json:"op_latency_us"` // mean traced transaction latency
	// LayerSelfUs is the blocking self time per transaction of every
	// layer; the values add up to OpLatencyUs.
	LayerSelfUs map[string]float64 `json:"layer_self_us"`
	Orphans     int                `json:"orphan_spans"`
	FirstError  string             `json:"first_error,omitempty"`
}

// tracedDriver runs the load of a traced pass.
type tracedDriver struct {
	st      *Stack
	spec    Spec
	fs      *Fileset
	workers []*Worker
	gens    []*Gen
	ops     []OpMeta // ops[i] is operation id i+1
	turn    int      // which client runs the next single transaction
	steps   int
	freed   int // blocks the collector freed
	depth   int // deepest file-table push queue seen right after an operation
	err     error
}

func (d *tracedDriver) newOp(kind int) int32 {
	d.ops = append(d.ops, OpMeta{Kind: kind})
	return int32(len(d.ops))
}

// step runs one driver step: one transaction (or, on a workload whose
// clients share one file, the two clients' transactions interleaved so
// that the second commit meets the first), then the drain and, every
// TraceGCEvery steps, a collection.
func (d *tracedDriver) step() (txns int) {
	id := d.newOp(opForeground)
	meta := &d.ops[id-1]
	_ = d.st.Rec.Root(d.st.OpProbe, "op", id, func() error {
		if d.spec.Interleave {
			d.interleaved(meta)
		} else {
			w := d.turn % len(d.workers)
			d.turn++
			d.note(meta, d.workers[w].Do(d.gens[w].Next()))
		}
		return nil
	})
	txns = meta.Txns + meta.Failed
	for _, t := range d.st.Tables {
		d.depth = max(d.depth, t.QueueDepth())
	}
	if meta.Commits > 0 {
		drain := d.newOp(opDrain)
		_ = d.st.Rec.Root(d.st.DrainProbe, "drain", drain, func() error {
			if !d.st.FlushTables(10 * time.Second) {
				d.fail(errors.New("file-table push streams did not drain in 10s"))
			}
			return nil
		})
	}
	d.steps++
	if d.steps%d.spec.TraceGCEvery == 0 {
		cycle := d.newOp(opCollect)
		_ = d.st.Rec.Root(d.st.GCProbe, "collect", cycle, func() error {
			rep, err := d.st.GC.Collect()
			if err != nil {
				d.fail(fmt.Errorf("collector: %w", err))
			}
			d.freed += rep.Freed
			return err
		})
	}
	return txns
}

func (d *tracedDriver) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// note folds one finished transaction into the operation's record.
func (d *tracedDriver) note(meta *OpMeta, res OpResult) {
	meta.Attempts += res.Attempts
	meta.Redo += res.Redo
	meta.Failed += res.BadPages
	if res.Err != nil {
		meta.Failed++
		d.fail(res.Err)
		return
	}
	meta.Txns++
	if res.Kind != OpRead {
		meta.Commits++
	}
}

// interleaved opens both clients' transactions, lets both read and
// write, then commits them in turn: the second commit validates against
// the first and conflicts exactly when their pages intersect — decided
// by the seed, not by timing. A conflicted transaction is redone alone.
func (d *tracedDriver) interleaved(meta *OpMeta) {
	type half struct {
		w   *Worker
		op  Op
		tx  *Tx
		res OpResult
	}
	hs := make([]*half, len(d.workers))
	start := time.Now()
	for i, w := range d.workers {
		h := &half{w: w, op: d.gens[i].Next()}
		h.res.Kind = h.op.Kind
		h.res.Attempts = 1
		hs[i] = h
		h.tx, h.res.Err = w.Begin(h.op)
	}
	for _, h := range hs {
		if h.res.Err == nil {
			if h.res.Err = h.tx.ReadWrite(); h.res.Err != nil {
				h.tx.Abort()
			}
			h.res.BadPages += h.tx.bad
		}
	}
	for _, h := range hs {
		if h.res.Err == nil {
			h.res.Err = h.tx.Finish()
		}
	}
	for _, h := range hs {
		if h.res.Err != nil && errors.Is(h.res.Err, client.ErrConflict) {
			lost := time.Since(start)
			redo := h.w.Do(h.op)
			redo.Attempts++
			redo.Redo += lost
			redo.BadPages += h.res.BadPages
			h.res = redo
		}
		d.note(meta, h.res)
	}
}

// pass runs n transactions and returns how long they took.
func (d *tracedDriver) pass(n int) time.Duration {
	start := time.Now()
	for done := 0; done < n && d.err == nil; {
		done += max(d.step(), 1)
	}
	return time.Since(start)
}

// RunTraced runs the traced pair of passes for one workload.
func RunTraced(scratch, outDir string, spec Spec, seed uint64, window time.Duration) (Outcome, TraceInfo, error) {
	var info TraceInfo
	dir, err := os.MkdirTemp(scratch, "stack-"+spec.Name+"-")
	if err != nil {
		return Outcome{}, info, err
	}
	defer os.RemoveAll(dir)
	st, err := NewStack(dir)
	if err != nil {
		return Outcome{}, info, err
	}
	defer st.Close()

	fs := newFileset(spec)
	if err := fs.Preload(st.Clients); err != nil {
		return Outcome{}, info, err
	}
	if !st.FlushTables(10 * time.Second) {
		return Outcome{}, info, errors.New("file-table push streams did not drain after preload")
	}
	d := &tracedDriver{st: st, spec: spec, fs: fs}
	for i, c := range st.Clients {
		d.workers = append(d.workers, &Worker{ID: i, C: c, FS: fs})
		d.gens = append(d.gens, NewGen(spec, seed, i))
	}
	// Each pass is a fixed number of transactions — the workload's
	// nominal single-driver rate times half the window — so that two
	// runs with one seed execute the same operations.
	n := int(spec.TraceRate * window.Seconds() / 2)
	if n < 4 {
		n = 4
	}
	d.pass(max(n/8, 2)) // warm-up

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := len(d.ops)
	offTime := d.pass(n)
	runtime.ReadMemStats(&m1)
	offTxns := 0
	for _, o := range d.ops[before:] {
		offTxns += o.Txns
	}

	c0 := snapshotCounters(st)
	disk0 := dirBytes(filepath.Join(dir, "blk"))
	acked0 := fs.Acked()
	d.ops, d.freed, d.depth = nil, 0, 0
	st.Rec.Enable(true)
	onTime := d.pass(n)
	st.Rec.Enable(false)
	c1 := snapshotCounters(st)
	disk1 := dirBytes(filepath.Join(dir, "blk"))
	userBytes := float64(fs.Acked()-acked0) * PageBytes

	if d.err != nil {
		info.FirstError = d.err.Error()
	}
	bad, first := fs.Verify(st.Clients[0], fs.caps)
	if first != nil && info.FirstError == "" {
		info.FirstError = first.Error()
	}

	spans := st.Rec.Spans()
	b := Analyze(st.Rec.probes, spans, d.ops, st.OpProbe, st.GCProbe)
	info.Ops, info.Spans, info.Orphans = b.Txns, len(spans), b.Orphans
	info.File = filepath.Join(outDir, "trace-"+spec.Name+".jsonl")
	if err := writeTrace(info.File, st.Rec.probes, spans, b); err != nil {
		return Outcome{}, info, err
	}
	if b.Txns == 0 {
		return Outcome{}, info, fmt.Errorf("no transaction completed in the traced pass (first error: %s)", info.FirstError)
	}

	// Reopen cost: close the stack, then time a cold Open of every
	// segment log (the recovery scan), per 10k records in the logs.
	st.Close()
	var reopen time.Duration
	var records uint64
	for i, sd := range st.SegDirs {
		records += c1.seg[i].BatchRecords
		t := time.Now()
		seg, err := segstore.Open(sd, segOptions())
		if err != nil {
			return Outcome{}, info, fmt.Errorf("reopen %s: %w", sd, err)
		}
		reopen += time.Since(t)
		seg.Close()
	}

	info.OffOpsPerS = float64(offTxns) / offTime.Seconds()
	info.OnOpsPerS = float64(b.Txns) / onTime.Seconds()
	metrics := layerMetrics(b, c0, c1, float64(b.Txns))
	put := func(name string, v float64, unit string) { metrics[name] = Metric{v, unit} }
	put("segstore.bytes_per_user_byte", ratio(float64(disk1-disk0), userBytes), "ratio")
	put("segstore.disk_bytes_per_user_byte", ratio(float64(disk1), float64(spec.Files*spec.Pages*PageBytes)), "ratio")
	put("segstore.reopen_ms_per_10k_records", ratio(ms(reopen)*1e4, float64(records)), "ms")
	put("gc.busy_ratio", ratio(sumDur(b.Collects).Seconds(), onTime.Seconds()), "ratio")
	put("gc.blocks_freed_per_op", ratio(float64(d.freed), float64(b.Txns)), "count")
	put("ftab.queue_depth_max", float64(d.depth), "count")
	put("stack.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), float64(offTxns)), "count")
	put("stack.alloc_kb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(offTxns)), "KiB")
	put("stack.probe_overhead_ratio", ratio(info.OnOpsPerS, info.OffOpsPerS), "ratio")

	info.LayerSelfUs = map[string]float64{}
	for k, a := range b.Fg {
		info.LayerSelfUs[k[0]] += float64(a.Self) / 1e3 / float64(b.Txns)
	}
	info.OpLatencyUs = float64(sumDur(b.OpLatency)) / 1e3 / float64(b.Txns)
	put("stack.self_sum_ratio", ratio(float64(b.SelfTotal), float64(sumDur(b.OpLatency))), "ratio")

	failed := b.Failed + bad
	return Outcome{Correct: failed == 0 && d.err == nil, Attempted: b.Txns + b.Failed, Failed: failed, Metrics: metrics}, info, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// writeTrace writes one JSON object per line: first the probes, then
// every span with its resolved parent, layer and blocking self time.
func writeTrace(path string, probes []ProbeInfo, spans []Span, b *Budget) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, p := range probes {
		_ = enc.Encode(map[string]any{"probe": i, "name": p.Name, "layer": p.Layer, "kind": p.Kind, "background": p.Background})
	}
	type line struct {
		Span
		Layer  string `json:"layer"`
		Probe  string `json:"probe"`
		Parent int32  `json:"parent"` // 0: none
		SelfNs int64  `json:"self_ns"`
		Bg     bool   `json:"background,omitempty"`
	}
	for _, s := range spans {
		l := line{Span: s, Layer: probes[s.Probe].Layer, Probe: probes[s.Probe].Name}
		if n := b.Nodes[s.ID]; n != nil {
			l.SelfNs, l.Bg = n.self, n.bg
			if n.parent != nil {
				l.Parent = n.parent.ID
			}
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
