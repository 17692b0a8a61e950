package main

import (
	"sort"
	"time"
)

// Turning spans into a budget. Spans carry no parent when they are
// recorded: a probe knows only the driver operation current when its
// call started. The parent of a span is found afterwards as the
// tightest span of the same operation, from a probe the static topology
// allows as its caller, that contains it in time. Within one operation
// calls through any single probe are sequential (one driver goroutine;
// the only concurrency is fan-out across different probes), so the
// containing span is unique.

// OpKind values of a driver operation.
const (
	opForeground = iota // a client operation (or an interleaved pair of them)
	opCollect           // one collector cycle
	opDrain             // waiting for the file-table push streams to empty
)

// OpMeta is what the driver knows about one of its operations.
type OpMeta struct {
	Kind     int
	Txns     int // client transactions completed in it (2 for an interleaved pair)
	Commits  int // of which acknowledged commits (reads abort)
	Attempts int
	Redo     time.Duration
	Failed   int
}

// node is a span placed in its operation's tree.
type node struct {
	Span
	parent   *node
	children []*node
	self     int64 // blocking self time (ns), see attribute
	bg       bool
}

// acc accumulates one (layer, kind) line of the budget.
type acc struct {
	Calls  int
	Busy   int64 // sum of span durations
	Self   int64 // sum of blocking self times
	Blocks int64
	Bytes  int64
}

// Budget is the analysed trace of one run.
type Budget struct {
	Txns, Commits, Attempts, Failed int
	Redo                            time.Duration
	OpLatency                       []time.Duration    // per transaction, foreground operations
	Fg                              map[[2]string]*acc // foreground operations only
	Collects                        []time.Duration
	// Named extras the per-layer metrics need.
	ClientWire, ClientWireCalls int64 // client call span minus the server span inside it
	BlockWire, BlockWireCalls   int64
	CommitSelf                  int64
	CommitSpans                 int
	CASBusy                     int64
	SegWrite, SegRead           []time.Duration
	FanoutLegs, FanoutCalls     int64
	ShardBlocks                 map[string]int64 // blocks per shard index, over the peers
	PairWriteBlocks             int64
	SegWriteBlocks              int64
	SelfTotal                   int64 // sum of every foreground blocking self: equals the summed op latency
	Orphans                     int   // foreground-op spans with no path to the op root (charged to background)
	Nodes                       map[int32]*node
}

func (b *Budget) line(layer, kind string) *acc {
	k := [2]string{layer, kind}
	a := b.Fg[k]
	if a == nil {
		a = &acc{}
		b.Fg[k] = a
	}
	return a
}

// writeNames are the store calls that mutate blocks.
var writeNames = map[string]bool{"alloc": true, "write": true, "free": true, "claim": true, "allocMulti": true, "writeMulti": true, "freeMulti": true}

// Analyze builds the budget. ops[i] describes operation id i+1.
func Analyze(probes []ProbeInfo, spans []Span, ops []OpMeta, opProbe, gcProbe int16) *Budget {
	b := &Budget{Fg: map[[2]string]*acc{}, ShardBlocks: map[string]int64{}, Nodes: map[int32]*node{}}
	byOp := map[int32][]*node{}
	for i := range spans {
		n := &node{Span: spans[i]}
		b.Nodes[n.ID] = n
		byOp[n.Op] = append(byOp[n.Op], n)
	}
	for id, meta := range ops {
		opID := int32(id + 1)
		nodes := byOp[opID]
		if meta.Kind == opForeground {
			b.Txns += meta.Txns
			b.Commits += meta.Commits
			b.Attempts += meta.Attempts
			b.Failed += meta.Failed
			b.Redo += meta.Redo
		}
		if len(nodes) == 0 || meta.Kind == opDrain {
			continue
		}
		root := placeOp(probes, nodes, opProbe, gcProbe)
		if root == nil {
			continue
		}
		attribute(root, root.Start, root.End)
		if meta.Kind == opCollect {
			b.Collects = append(b.Collects, time.Duration(root.End-root.Start))
		} else if meta.Txns > 0 {
			per := time.Duration(root.End-root.Start) / time.Duration(meta.Txns)
			for k := 0; k < meta.Txns; k++ {
				b.OpLatency = append(b.OpLatency, per)
			}
		}
		for _, n := range nodes {
			if n.bg {
				if meta.Kind == opForeground && n.parent == nil {
					b.Orphans++
				}
				continue
			}
			b.account(probes, n, meta.Kind == opForeground)
		}
	}
	return b
}

// placeOp links the nodes of one operation into a tree and marks the
// background ones; it returns the operation's root.
func placeOp(probes []ProbeInfo, nodes []*node, opProbe, gcProbe int16) *node {
	byProbe := map[int16][]*node{}
	var root *node
	for _, n := range nodes {
		byProbe[n.Probe] = append(byProbe[n.Probe], n)
		if n.Probe == opProbe || n.Probe == gcProbe {
			root = n
		}
	}
	for _, list := range byProbe {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	for _, n := range nodes {
		if n == root {
			continue
		}
		var best *node
		for _, pp := range probes[n.Probe].Parents {
			list := byProbe[pp]
			// The last span of the parent probe that starts no later
			// than n; probes see sequential calls, so it is the only
			// candidate of that probe.
			i := sort.Search(len(list), func(i int) bool { return list[i].Start > n.Start }) - 1
			if i < 0 {
				continue
			}
			c := list[i]
			if c.End >= n.End && c != n && (best == nil || c.Start > best.Start) {
				best = c
			}
		}
		if best != nil {
			n.parent = best
			best.children = append(best.children, n)
		}
	}
	// Background: a background probe, or no path up to the root.
	var mark func(n *node, bg bool)
	mark = func(n *node, bg bool) {
		n.bg = bg || probes[n.Probe].Background
		for _, c := range n.children {
			mark(c, n.bg)
		}
	}
	for _, n := range nodes {
		if n.parent == nil {
			mark(n, n != root)
		}
	}
	return root
}

// attribute partitions the interval [lo, hi] of n between n and its
// descendants: every instant goes to exactly one span — the deepest one
// on the chain of calls that ends last — so the self times of a whole
// operation add up to its latency. Where children overlap (fan-out
// legs), the one that finishes last is on the blocking path and the
// others are clipped to the time before it started.
func attribute(n *node, lo, hi int64) {
	kids := n.children
	sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
	cursor := hi
	used := make([]bool, len(kids))
	for cursor > lo {
		best, bestEnd := -1, lo
		for i, c := range kids {
			if used[i] || c.Start >= cursor {
				continue
			}
			if e := min(c.End, cursor); e > bestEnd && e > max(c.Start, lo) {
				best, bestEnd = i, e
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		n.self += cursor - bestEnd
		start := max(kids[best].Start, lo)
		attribute(kids[best], start, bestEnd)
		cursor = start
	}
	n.self += cursor - lo
}

// account adds one placed, non-background node to the budget. The
// collector's spans count only towards the mirror write ratio: its time
// is reported per cycle, not per operation.
func (b *Budget) account(probes []ProbeInfo, n *node, fg bool) {
	info := probes[n.Probe]
	if info.Layer == LayerStable && writeNames[n.Name] {
		b.PairWriteBlocks += int64(n.Blocks)
	}
	if info.Layer == LayerSegstore && writeNames[n.Name] {
		b.SegWriteBlocks += int64(n.Blocks)
	}
	if !fg {
		return
	}
	layer := info.Layer
	if layer == LayerServer && n.Name == "commit" {
		layer = LayerOCC
	}
	dur := n.End - n.Start
	a := b.line(layer, info.Kind)
	a.Calls++
	a.Busy += dur
	a.Self += n.self
	a.Blocks += int64(n.Blocks)
	a.Bytes += int64(n.Bytes)
	b.SelfTotal += n.self
	switch {
	case info.Layer == LayerRPC && info.Kind == "call":
		if inner := soleChild(n); inner != nil {
			b.ClientWire += dur - (inner.End - inner.Start)
			b.ClientWireCalls++
		}
	case info.Layer == LayerBlock && info.Kind == "call":
		if inner := soleChild(n); inner != nil {
			b.BlockWire += dur - (inner.End - inner.Start)
			b.BlockWireCalls++
		}
	case info.Layer == LayerBlock && info.Kind == "proxy":
		b.ShardBlocks[info.Name[len(info.Name)-2:]] += int64(n.Blocks)
	case layer == LayerOCC:
		b.CommitSelf += n.self
		b.CommitSpans++
	case info.Layer == LayerFtab && info.Kind == "table" && n.Name == "commitCAS":
		b.CASBusy += dur
	case info.Layer == LayerShard:
		legs := map[int16]bool{}
		for _, c := range n.children {
			legs[c.Probe] = true
		}
		if len(legs) > 0 {
			b.FanoutLegs += int64(len(legs))
			b.FanoutCalls++
		}
	case info.Layer == LayerSegstore:
		if writeNames[n.Name] {
			b.SegWrite = append(b.SegWrite, time.Duration(dur))
		} else if n.Name == "read" || n.Name == "readMulti" {
			b.SegRead = append(b.SegRead, time.Duration(dur))
		}
	}
}

func soleChild(n *node) *node {
	if len(n.children) == 1 {
		return n.children[0]
	}
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}
