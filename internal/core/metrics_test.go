package core

import (
	"bufio"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/rpc"
)

var (
	typeLine   = regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? \S+$`)
	labelKey   = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
)

// families parses a /metrics rendering into family name -> sorted label
// keys (le excluded), adding to into. A family seen with two different
// key sets is an error: a scrape must never mix label schemas.
func families(t *testing.T, reg *metrics.Registry, into map[string]string) {
	t.Helper()
	var b strings.Builder
	reg.WriteProm(&b)
	histogram := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if m := typeLine.FindStringSubmatch(line); m != nil {
			histogram[m[1]] = m[2] == "histogram"
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && histogram[base] {
				name = base
			}
		}
		if _, declared := histogram[name]; !declared {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		var keys []string
		for _, k := range labelKey.FindAllStringSubmatch(m[2], -1) {
			if k[1] != "le" {
				keys = append(keys, k[1])
			}
		}
		sort.Strings(keys)
		got := strings.Join(keys, ",")
		if prev, seen := into[name]; seen && prev != got {
			t.Fatalf("family %s rendered with label keys {%s} and {%s}", name, prev, got)
		}
		into[name] = got
	}
}

// serverShape assembles what afs-server assembles for one flag set —
// the store it was given, optionally an archive tier and a (dead) mesh
// peer — drives a little traffic through it so every family has
// samples, and returns the registry it would serve on /metrics.
func serverShape(t *testing.T, reg *metrics.Registry, store, archBacking block.Store, mesh bool) {
	t.Helper()
	net := rpc.NewNetwork()
	spec := Service{
		Store:   store,
		Archive: archBacking,
		Servers: 1,
		Retain:  1,
		Metrics: reg,
		Register: func(p capability.Port, h rpc.Handler) {
			if err := net.Register("", p, h); err != nil {
				t.Fatal(err)
			}
		},
	}
	if mesh {
		spec.Peers = []Peer{{ID: 1, Via: net}}
	}
	in, err := NewInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close(0) })
	cl := client.New(net, in.Servers()[0].Port())
	fc, err := cl.CreateFile([]byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := cl.Update(fc, client.UpdateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Write(page.RootPath, []byte(fmt.Sprint("v", i+1))); err != nil {
			t.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := in.GC.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	// One refused command, so the error family has a sample.
	if _, err := cl.Update(capability.Capability{}, client.UpdateOpts{}); err == nil {
		t.Fatal("update of the nil capability succeeded")
	}
}

// mountOver starts one block machine per backend and mounts them the
// way afs-server -blocks (width 1) or -mirror (width 2) does, observing
// the block commands issued into reg with side="client".
func mountOver(t *testing.T, reg *metrics.Registry, width int, backends ...Backend) block.Store {
	t.Helper()
	var eps []Endpoint
	for _, b := range backends {
		m, err := StartBlockMachine(b, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		eps = append(eps, m.Endpoints...)
	}
	var mounts [][]Endpoint
	for i := 0; i < len(eps); i += width {
		mounts = append(mounts, eps[i:i+width])
	}
	issued := &rpc.Metrics{Name: block.CmdName}
	reg.Register("rpc", issued.Collect, "side", "client")
	store, _, err := Mount(mounts, TCPDialer(issued), reg)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestServerMetricsGolden pins the metric family names and label keys
// afs-server serves, as captured from the hand-written renderer this
// registry replaced: dashboards and the observability smoke key on
// them. The union over the three storage shapes a flag set can select
// (sharded remote mounts in a mesh; a local segment log with an archive
// tier; a mirrored pair) must equal the golden set exactly.
func TestServerMetricsGolden(t *testing.T) {
	golden := map[string]string{
		"afs_files":                        "",
		"afs_rpc_seconds":                  "cmd,side",
		"afs_rpc_errors_total":             "cmd,side,status",
		"afs_block_ops_total":              "op",
		"afs_blocks_capacity":              "",
		"afs_blocks_in_use":                "",
		"afs_shard_ops_total":              "op,shard",
		"afs_shard_blocks_in_use":          "shard",
		"afs_segstore_total":               "event",
		"afs_segstore_append_seconds":      "",
		"afs_segstore_flush_seconds":       "",
		"afs_segstore_batch_pages":         "",
		"afs_segstore_window_seconds":      "",
		"afs_segstore_lane_queue_depth":    "lane",
		"afs_segstore_lane_window_seconds": "lane",
		"afs_segstore_lane_segments":       "lane",
		"afs_segstore_lane_pool_free":      "lane",
		"afs_mirror_half_down":             "half,pair",
		"afs_mirror_half_events_total":     "event,half,pair",
		"afs_archive_ops_total":            "op",
		"afs_archive_bytes":                "form",
		"afs_archive_snapshots":            "",
		"afs_archive_blocks":               "kind",
		"afs_archive_demote_total":         "event",
		"afs_archive_dedup_ratio":          "",
		"afs_occ_total":                    "event",
		"afs_commit_seconds":               "",
		"afs_ftab_total":                   "event",
		"afs_ftab_peers":                   "state",
		"afs_ftab_queue_depth":             "",
		"afs_ftab_batch_size":              "",
		"afs_ftab_push_seconds":            "",
	}
	got := map[string]string{}

	// -blocks A,B -peers 1@... (the peer is down: its collector gate
	// fails closed, which is why the archive rides the next shape)
	sharded := new(metrics.Registry)
	serverShape(t, sharded, mountOver(t, sharded, 1, Backend{Shards: 2, BlockSize: 1024}), nil, true)
	families(t, sharded, got)

	// -store=seg -dir=D -archive PORT@ADDR
	local := new(metrics.Registry)
	st, err := OpenBackend(Backend{Kind: "seg", Dir: t.TempDir(), BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.Register(local, 0)
	serverShape(t, local, st.Stores[0], mountOver(t, nil, 1, Backend{BlockSize: 1024 + archive.FrameOverhead}), false)
	families(t, local, got)

	// -mirror A+B
	mirrored := new(metrics.Registry)
	serverShape(t, mirrored, mountOver(t, mirrored, 2, Backend{BlockSize: 1024}, Backend{BlockSize: 1024}), nil, false)
	families(t, mirrored, got)

	if !reflect.DeepEqual(got, golden) {
		for name, keys := range golden {
			if g, ok := got[name]; !ok {
				t.Errorf("family %s{%s} no longer served", name, keys)
			} else if g != keys {
				t.Errorf("family %s: label keys {%s}, golden {%s}", name, g, keys)
			}
		}
		for name, keys := range got {
			if _, ok := golden[name]; !ok {
				t.Errorf("family %s{%s} is not in the golden set", name, keys)
			}
		}
	}
}

// TestBlockMachineMetrics: the process that owns the segment logs and
// the pair halves serves their families too, labelled by served shard.
func TestBlockMachineMetrics(t *testing.T) {
	reg := new(metrics.Registry)
	m, err := StartBlockMachine(Backend{Kind: "seg", Dir: t.TempDir(), Shards: 2, Pair: true, BlockSize: 512}, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := Mount([][]Endpoint{m.Endpoints[:1]}, TCPDialer(nil), nil); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	families(t, reg, got)
	for name, keys := range map[string]string{
		"afs_rpc_seconds":              "cmd,side",
		"afs_blocks_capacity":          "shard",
		"afs_blocks_in_use":            "shard",
		"afs_block_ops_total":          "op,shard",
		"afs_segstore_total":           "event,half,shard",
		"afs_segstore_append_seconds":  "half,shard",
		"afs_segstore_lane_segments":   "half,lane,shard",
		"afs_mirror_half_down":         "half,shard",
		"afs_mirror_half_events_total": "event,half,shard",
	} {
		if got[name] != keys {
			t.Errorf("family %s: label keys {%s}, want {%s} (served: %v)", name, got[name], keys, got)
		}
	}
}
