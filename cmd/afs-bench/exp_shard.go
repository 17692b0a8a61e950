package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/shard"
)

// runE12 measures what the sharded facade exists for: aggregate block
// bandwidth scaling with the number of block servers. Each shard is a
// block server behind its own TCP listener, backed by a durable segment
// log in a temp directory (so a real fsync is the media cost); the
// facade fans one batched RPC stream out per shard. No figure in the
// paper — this is the §4 "storage capacity can grow with the number of
// block servers" claim, priced for bandwidth. All shards share this
// machine's one file system, so the scaling column shows how far the
// overlap of per-shard group commits goes on it, not more disks.
func runE12() error {
	const (
		blockSize = 4096
		batch     = 64   // pages per multi-op, a commit-sized flush
		total     = 1024 // pages moved per timed trial
	)
	payload := bytes.Repeat([]byte{0x5A}, blockSize)

	fmt.Printf("\naggregate bandwidth over TCP-mounted block servers (4K pages,\n")
	fmt.Printf("segment-log shards with group commit, %d-page batches):\n\n", batch)
	header("shards", "write MB/s", "read MB/s", "write x", "read x")

	var baseWrite, baseRead float64
	for _, nShards := range []int{1, 2, 4} {
		dir, err := os.MkdirTemp("", "afs-e12-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// One store and service port per shard, each mounted over its
		// own client connection — afs-block -store=seg -shards under
		// afs-server -blocks.
		m, err := core.StartBlockMachine(core.Backend{
			Kind: "seg", Dir: dir, Shards: nShards, Blocks: total + 64, BlockSize: blockSize,
		}, "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		var mounts [][]core.Endpoint
		for _, ep := range m.Endpoints {
			mounts = append(mounts, []core.Endpoint{ep})
		}
		st, _, err := core.Mount(mounts, core.TCPDialer(nil), nil)
		if err != nil {
			return err
		}

		// Pre-allocate the working set (not timed), then time
		// sequential batched writes and reads over it.
		nums, err := block.AllocMulti(st, 1, make([][]byte, total))
		if err != nil {
			return err
		}
		payloads := make([][]byte, batch)
		for i := range payloads {
			payloads[i] = payload
		}
		mb := float64(total*blockSize) / (1 << 20)

		t0 := time.Now()
		for start := 0; start < total; start += batch {
			if err := block.WriteMulti(st, 1, nums[start:start+batch], payloads); err != nil {
				return err
			}
		}
		writeMBs := mb / time.Since(t0).Seconds()

		t0 = time.Now()
		for start := 0; start < total; start += batch {
			if _, err := block.ReadMulti(st, 1, nums[start:start+batch]); err != nil {
				return err
			}
		}
		readMBs := mb / time.Since(t0).Seconds()

		if nShards == 1 {
			baseWrite, baseRead = writeMBs, readMBs
		}
		row(nShards, writeMBs, readMBs,
			fmt.Sprintf("%.2fx", writeMBs/baseWrite), fmt.Sprintf("%.2fx", readMBs/baseRead))
		record("e12", fmt.Sprintf("write_mbps_%dshard", nShards), writeMBs)
		record("e12", fmt.Sprintf("read_mbps_%dshard", nShards), readMBs)
		if nShards == 4 {
			record("e12", "write_scaling_4v1", writeMBs/baseWrite)
			record("e12", "read_scaling_4v1", readMBs/baseRead)

			// Per-shard counters over the wire (cmdStats): the load is
			// visibly striped, not piled on one server.
			fmt.Println("\nper-shard operation counts at 4 shards (read over the wire):")
			header("shard", "writes", "reads", "in use")
			for _, ss := range st.(*shard.Store).ShardStats() {
				row(ss.Shard, ss.Stats.Writes, ss.Stats.Reads, ss.Usage.InUse)
			}
		}
		m.Close()
	}
	fmt.Println("\nA batch splits by shard and fans out one RPC stream per block")
	fmt.Println("server, so servers with their own disks overlap their media time,")
	fmt.Println("as §4 assumes. Here every shard shares this machine's file system")
	fmt.Println("and CPUs: the x columns show only what their group commits overlap.")
	return nil
}
