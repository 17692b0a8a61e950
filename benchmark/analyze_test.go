package main

import "testing"

// Two fan-out legs overlap under one shard call: the leg that finishes
// last is on the blocking path, the other is clipped, and the self
// times of the whole operation add up to its latency.
func TestAttributePartitionsOperation(t *testing.T) {
	rec := NewRecorder()
	op := rec.Register("driver", LayerClient, "op")
	top := rec.Register("shard", LayerShard, "store")
	legA := rec.Register("proxy/s0", LayerBlock, "proxy")
	legB := rec.Register("proxy/s1", LayerBlock, "proxy")
	bg := rec.Register("push", LayerFtab, "push")
	rec.Link(top, op)
	rec.Link(legA, top)
	rec.Link(legB, top)
	rec.MarkBackground(bg)
	spans := []Span{
		{ID: 1, Probe: op, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Probe: top, Op: 1, Name: "writeMulti", Start: 10, End: 90, Blocks: 4},
		{ID: 3, Probe: legA, Op: 1, Name: "writeMulti", Start: 12, End: 60, Blocks: 2},
		{ID: 4, Probe: legB, Op: 1, Name: "writeMulti", Start: 14, End: 85, Blocks: 2},
		{ID: 5, Probe: bg, Op: 1, Name: "ftab-01", Start: 20, End: 95},
	}
	b := Analyze(rec.probes, spans, []OpMeta{{Kind: opForeground, Txns: 1, Commits: 1, Attempts: 1}}, op, -1)
	want := map[int32]int64{
		1: 20,      // 0..10 and 90..100
		2: 2 + 5,   // 10..12 before any leg, 85..90 after the last
		3: 14 - 12, // clipped to the time before leg B started
		4: 85 - 14, // the leg on the blocking path
	}
	var sum int64
	for id, self := range want {
		if got := b.Nodes[id].self; got != self {
			t.Errorf("span %d: self %d, want %d", id, got, self)
		}
		sum += b.Nodes[id].self
	}
	if sum != 100 || b.SelfTotal != 100 {
		t.Errorf("self times sum to %d (budget %d), want the op latency 100", sum, b.SelfTotal)
	}
	if b.Nodes[3].parent != b.Nodes[2] || b.Nodes[2].parent != b.Nodes[1] {
		t.Error("legs not nested under the shard call under the op")
	}
	if !b.Nodes[5].bg || b.Orphans != 1 {
		t.Errorf("background push span: bg=%v orphans=%d", b.Nodes[5].bg, b.Orphans)
	}
	if a := b.Fg[[2]string{LayerBlock, "proxy"}]; a == nil || a.Calls != 2 || a.Blocks != 4 || a.Busy != 48+71 {
		t.Errorf("proxy line: %+v", a)
	}
}
