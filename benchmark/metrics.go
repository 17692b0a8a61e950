package main

import (
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/ftab"
	"repro/internal/segstore"
)

// counters is a snapshot of the layers' own public counters, read
// before and after the traced pass.
type counters struct {
	cache []cache.Stats
	occ   occCounts
	ftab  []ftab.StatsSnapshot
	seg   []segstore.Stats
	// fallbacks is the mirrored pairs' reads served by the companion
	// after a corrupt local copy.
	fallbacks uint64
}

type occCounts struct {
	Commits, FastCommits, Validations, Conflicts, PagesCompared uint64
}

func snapshotCounters(st *Stack) counters {
	var c counters
	for _, cl := range st.Clients {
		c.cache = append(c.cache, cl.Cache.Stats())
	}
	for _, s := range st.Servers {
		o := s.OCCStats()
		c.occ.Commits += o.Commits.Load()
		c.occ.FastCommits += o.FastCommits.Load()
		c.occ.Validations += o.Validations.Load()
		c.occ.Conflicts += o.Conflicts.Load()
		c.occ.PagesCompared += o.PagesCompared.Load()
	}
	for _, t := range st.Tables {
		c.ftab = append(c.ftab, t.StatsSnapshot())
	}
	for _, s := range st.Segs {
		c.seg = append(c.seg, s.Stats())
	}
	for _, p := range st.Pairs {
		a, b := p.Halves()
		c.fallbacks += a.Stats().CorruptFallbacks + b.Stats().CorruptFallbacks
	}
	return c
}

// PerLayer names every per-layer metric with its unit and direction, in
// reporting order. BENCHMARK.json lists the same names; README.md says
// which end-to-end metric each should move, on which workload.
var PerLayer = []struct {
	Name, Unit string
	Higher     bool
}{
	{"client.attempts_per_op", "count", false},
	{"client.redo_us_per_op", "us", false},
	{"client.rpcs_per_op", "count", false},
	{"client.self_us_per_op", "us", false},
	{"client.update_op_p50_ms", "ms", false},
	{"client.op_p99_ms", "ms", false},
	{"cache.hit_ratio", "ratio", true},
	{"cache.validations_per_op", "count", false},
	{"cache.null_validation_ratio", "ratio", true},
	{"cache.discards_per_op", "count", false},
	{"rpc.wire_us_per_call", "us", false},
	{"rpc.bytes_per_op", "B", false},
	{"server.busy_us_per_op", "us", false},
	{"server.self_us_per_op", "us", false},
	{"occ.commit_self_us", "us", false},
	{"occ.fast_commit_ratio", "ratio", true},
	{"occ.validations_per_commit", "count", false},
	{"occ.pages_compared_per_validation", "count", false},
	{"occ.conflict_ratio", "ratio", false},
	{"ftab.cas_us_per_commit", "us", false},
	{"ftab.updates_per_frame", "count", true},
	{"ftab.queue_depth_max", "count", false},
	{"ftab.snapshot_fallbacks", "count", false},
	{"shard.calls_per_op", "count", false},
	{"shard.blocks_per_op", "count", false},
	{"shard.busy_us_per_op", "us", false},
	{"shard.self_us_per_op", "us", false},
	{"shard.fanout_width", "count", true},
	{"shard.imbalance", "ratio", false},
	{"block.rpcs_per_op", "count", false},
	{"block.blocks_per_rpc", "count", true},
	{"block.wire_us_per_call", "us", false},
	{"stable.busy_us_per_op", "us", false},
	{"stable.self_us_per_op", "us", false},
	{"stable.backend_writes_per_write", "ratio", false},
	{"stable.read_fallbacks", "count", false},
	{"segstore.busy_us_per_op", "us", false},
	{"segstore.write_wait_us_p50", "us", false},
	{"segstore.read_us_p50", "us", false},
	{"segstore.fsyncs_per_op", "count", false},
	{"segstore.records_per_fsync", "count", true},
	{"segstore.bytes_per_user_byte", "ratio", false},
	{"segstore.disk_bytes_per_user_byte", "ratio", false},
	{"segstore.reopen_ms_per_10k_records", "ms", false},
	{"gc.collect_ms_p50", "ms", false},
	{"gc.busy_ratio", "ratio", false},
	{"gc.blocks_freed_per_op", "count", true},
	{"stack.allocs_per_op", "count", false},
	{"stack.alloc_kb_per_op", "KiB", false},
	{"stack.probe_overhead_ratio", "ratio", true},
	{"stack.self_sum_ratio", "ratio", false},
}

// ExactCounts lists the per-layer metrics that are functions of the seed
// alone: built only from counts of calls and blocks in the driver's own
// operations. Which shard and which log lane a block lands on is not
// (internal/shard breaks placement ties with the unseeded global random
// source), so the fsync counts and the shard imbalance are left out.
var ExactCounts = []string{
	"client.attempts_per_op", "client.rpcs_per_op",
	"cache.hit_ratio", "cache.validations_per_op", "cache.null_validation_ratio", "cache.discards_per_op",
	"rpc.bytes_per_op",
	"occ.fast_commit_ratio", "occ.validations_per_commit", "occ.pages_compared_per_validation", "occ.conflict_ratio",
	"shard.calls_per_op", "shard.blocks_per_op", "shard.fanout_width",
	"block.rpcs_per_op", "block.blocks_per_rpc",
	"stable.backend_writes_per_write", "stable.read_fallbacks",
	"gc.blocks_freed_per_op",
}

// layerMetrics derives the per-layer metrics that come from spans and
// counter deltas; RunTraced adds the few that need the driver's own
// measurements.
func layerMetrics(b *Budget, c0, c1 counters, txns float64) map[string]Metric {
	m := map[string]Metric{}
	put := func(name string, v float64, unit string) { m[name] = Metric{v, unit} }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	get := func(layer, kind string) acc {
		if a := b.Fg[[2]string{layer, kind}]; a != nil {
			return *a
		}
		return acc{}
	}
	perOp := func(v float64) float64 { return ratio(v, txns) }

	// client
	call := get(LayerRPC, "call")
	put("client.attempts_per_op", perOp(float64(b.Attempts)), "count")
	put("client.redo_us_per_op", perOp(us(int64(b.Redo))), "us")
	put("client.rpcs_per_op", perOp(float64(call.Calls)), "count")
	put("client.self_us_per_op", perOp(us(get(LayerClient, "op").Self)), "us")
	lat := append([]time.Duration(nil), b.OpLatency...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	put("client.update_op_p50_ms", ms(quantile(lat, 0.5)), "ms")
	put("client.op_p99_ms", ms(quantile(lat, 0.99)), "ms")

	// cache
	var cs cache.Stats
	for i := range c1.cache {
		cs.Hits += c1.cache[i].Hits - c0.cache[i].Hits
		cs.Misses += c1.cache[i].Misses - c0.cache[i].Misses
		cs.Discards += c1.cache[i].Discards - c0.cache[i].Discards
		cs.Validations += c1.cache[i].Validations - c0.cache[i].Validations
		cs.NullValidations += c1.cache[i].NullValidations - c0.cache[i].NullValidations
	}
	put("cache.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio")
	put("cache.validations_per_op", perOp(float64(cs.Validations)), "count")
	put("cache.null_validation_ratio", ratio(float64(cs.NullValidations), float64(cs.Validations)), "ratio")
	put("cache.discards_per_op", perOp(float64(cs.Discards)), "count")

	// rpc: the client leg
	put("rpc.wire_us_per_call", ratio(us(b.ClientWire), float64(b.ClientWireCalls)), "us")
	put("rpc.bytes_per_op", perOp(float64(call.Bytes)), "B")

	// server and occ
	srv := get(LayerServer, "serve")
	put("server.busy_us_per_op", perOp(us(srv.Busy)), "us")
	put("server.self_us_per_op", perOp(us(srv.Self)), "us")
	commits := float64(c1.occ.Commits - c0.occ.Commits)
	validations := float64(c1.occ.Validations - c0.occ.Validations)
	conflicts := float64(c1.occ.Conflicts - c0.occ.Conflicts)
	put("occ.commit_self_us", ratio(us(b.CommitSelf), float64(b.CommitSpans)), "us")
	put("occ.fast_commit_ratio", ratio(float64(c1.occ.FastCommits-c0.occ.FastCommits), commits), "ratio")
	put("occ.validations_per_commit", ratio(validations, commits), "count")
	put("occ.pages_compared_per_validation", ratio(float64(c1.occ.PagesCompared-c0.occ.PagesCompared), validations), "count")
	put("occ.conflict_ratio", ratio(conflicts, commits+conflicts), "ratio")

	// ftab
	var pushes, frames, fallbacks uint64
	for i := range c1.ftab {
		pushes += c1.ftab[i].Pushes - c0.ftab[i].Pushes
		frames += c1.ftab[i].Batches - c0.ftab[i].Batches
		fallbacks += (c1.ftab[i].Resyncs - c0.ftab[i].Resyncs) + (c1.ftab[i].Overflows - c0.ftab[i].Overflows)
	}
	put("ftab.cas_us_per_commit", ratio(us(b.CASBusy), float64(b.Commits)), "us")
	put("ftab.updates_per_frame", ratio(float64(pushes), float64(frames)), "count")
	put("ftab.snapshot_fallbacks", float64(fallbacks), "count")

	// shard
	sh := get(LayerShard, "store")
	put("shard.calls_per_op", perOp(float64(sh.Calls)), "count")
	put("shard.blocks_per_op", perOp(float64(sh.Blocks)), "count")
	put("shard.busy_us_per_op", perOp(us(sh.Busy)), "us")
	put("shard.self_us_per_op", perOp(us(sh.Self)), "us")
	put("shard.fanout_width", ratio(float64(b.FanoutLegs), float64(b.FanoutCalls)), "count")
	var most, total int64
	for _, n := range b.ShardBlocks {
		most = max(most, n)
		total += n
	}
	put("shard.imbalance", ratio(float64(most)*float64(len(b.ShardBlocks)), float64(total)), "ratio")

	// block: proxy, wire call, service
	proxy, bcall := get(LayerBlock, "proxy"), get(LayerBlock, "call")
	put("block.rpcs_per_op", perOp(float64(bcall.Calls)), "count")
	put("block.blocks_per_rpc", ratio(float64(proxy.Blocks), float64(bcall.Calls)), "count")
	put("block.wire_us_per_call", ratio(us(b.BlockWire), float64(b.BlockWireCalls)), "us")

	// stable
	pair := get(LayerStable, "store")
	put("stable.busy_us_per_op", perOp(us(pair.Busy)), "us")
	put("stable.self_us_per_op", perOp(us(pair.Self)), "us")
	put("stable.backend_writes_per_write", ratio(float64(b.SegWriteBlocks), float64(b.PairWriteBlocks)), "ratio")
	put("stable.read_fallbacks", float64(c1.fallbacks-c0.fallbacks), "count")

	// segstore
	seg := get(LayerSegstore, "store")
	var syncs, recs uint64
	for i := range c1.seg {
		syncs += c1.seg[i].Syncs - c0.seg[i].Syncs
		recs += c1.seg[i].BatchRecords - c0.seg[i].BatchRecords
	}
	put("segstore.busy_us_per_op", perOp(us(seg.Busy)), "us")
	put("segstore.write_wait_us_p50", us(int64(medianDur(b.SegWrite))), "us")
	put("segstore.read_us_p50", us(int64(medianDur(b.SegRead))), "us")
	put("segstore.fsyncs_per_op", perOp(float64(syncs)), "count")
	put("segstore.records_per_fsync", ratio(float64(recs), float64(syncs)), "count")

	// gc
	put("gc.collect_ms_p50", ms(medianDur(b.Collects)), "ms")
	return m
}
