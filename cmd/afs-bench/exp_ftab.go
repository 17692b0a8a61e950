package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/ftab"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/rpc"
)

// runE14 prices the replicated file table (internal/ftab): commit
// throughput as front-tier servers are added over TCP (the client is
// acked after local durability; the table CAS propagates through the
// asynchronous batched per-peer streams), the CAS-conflict rate when
// all clients hammer one file through different servers, and the
// catch-up time of a rebooted server pulling the table from a peer.
// No figure in the paper — this prices its §5.4.1 claim that the file
// table is "replicated" without saying what replication costs.
func runE14() error {
	commitsPerWorker := 200
	files := 400
	if *quick {
		commitsPerWorker = 10
		files = 40
	}

	// Every client and peer RPC pays a fixed simulated wire latency, so
	// the arm is latency-bound the way a real deployment is (the paper's
	// own numbers are network+disk dominated). Without it the arm only
	// measures this host's CPU: all the "machines" share its cores, and
	// a one-CPU box caps CPU-bound scaling at 1.0x by construction (the
	// pure-CPU arm below tracks that cost separately).
	const wire = time.Millisecond

	fmt.Printf("\ncommit throughput vs front-tier servers (one shared RAM block store\n")
	fmt.Printf("over TCP; commits ack after local durability, the table CAS rides\n")
	fmt.Printf("the asynchronous batched per-peer streams; every client and peer\n")
	fmt.Printf("RPC pays a simulated %v wire latency — this host runs all the\n", wire)
	fmt.Printf("machines on %d CPU(s)):\n\n", runtime.NumCPU())
	header("servers", "commits/s", "vs 1 server", "push/commit", "push/frame")
	var base, top float64
	for _, n := range []int{1, 2, 3} {
		rate, pushes, frames, commits, err := e14Throughput(n, commitsPerWorker, wire, false)
		if err != nil {
			return err
		}
		if n == 1 {
			base = rate
		}
		top = rate
		perFrame := 0.0
		if frames > 0 {
			perFrame = pushes / frames
		}
		row(n, rate, fmt.Sprintf("%.2fx", rate/base), fmt.Sprintf("%.2f", pushes/commits), fmt.Sprintf("%.1f", perFrame))
		record("e14", fmt.Sprintf("commits_per_sec_%dsrv", n), rate)
		record("e14", fmt.Sprintf("batch_factor_%dsrv", n), perFrame)
	}
	record("e14", "scaling_3v1", top/base)
	record("e14", "host_cpus", float64(runtime.NumCPU()))

	// Ack after local durability vs ack after full propagation: the same
	// 3-server workload, but every commit drains the push streams before
	// the client counts it done — the synchronous regime this design
	// replaced, under the same wire latency.
	syncRate, _, _, _, err := e14Throughput(3, commitsPerWorker, wire, true)
	if err != nil {
		return err
	}
	fmt.Printf("\nack after local durability vs ack after full propagation (3 servers,\n")
	fmt.Printf("same wire latency): %.2f vs %.2f commits/s — %.2fx from taking the\n", top, syncRate, top/syncRate)
	fmt.Printf("peer round trips off the ack path\n")
	record("e14", "sync_ack_commits_per_sec_3srv", syncRate)
	record("e14", "async_ack_speedup_3srv", top/syncRate)

	fmt.Printf("\nsame arm, wire latency off (pure CPU cost; flat whenever the host\n")
	fmt.Printf("has fewer cores than machines):\n\n")
	header("servers", "commits/s", "vs 1 server")
	var cpuBase float64
	for _, n := range []int{1, 3} {
		rate, _, _, _, err := e14Throughput(n, commitsPerWorker, 0, false)
		if err != nil {
			return err
		}
		if n == 1 {
			cpuBase = rate
		}
		row(n, rate, fmt.Sprintf("%.2fx", rate/cpuBase))
		record("e14", fmt.Sprintf("commits_per_sec_%dsrv_cpubound", n), rate)
	}

	fmt.Printf("\ncontention: every client updates ONE file through its own server\n")
	fmt.Printf("(conflicts resolved by the storage CAS; the table converges by chase):\n\n")
	header("servers", "commits/s", "conflicts", "conflict rate", "storage resolves")
	for _, n := range []int{2, 3} {
		rate, commits, conflicts, resolved, err := e14Contention(n, commitsPerWorker)
		if err != nil {
			return err
		}
		cr := float64(conflicts) / float64(commits+conflicts)
		row(n, rate, conflicts, fmt.Sprintf("%.2f", cr), resolved)
		record("e14", fmt.Sprintf("contended_commits_per_sec_%dsrv", n), rate)
		record("e14", fmt.Sprintf("conflict_rate_%dsrv", n), cr)
	}

	ms, perFile, err := e14Rejoin(files)
	if err != nil {
		return err
	}
	fmt.Printf("\nrejoin catch-up: a rebooted server pulls %d files from its peer\n", files)
	fmt.Printf("in %.2f ms (%.1f µs/file) — snapshot pages over TCP, byte-equal after\n", ms, perFile)
	record("e14", "rejoin_catchup_ms", ms)
	record("e14", "rejoin_us_per_file", perFile)
	return nil
}

// e14Machine is one front-tier server process for the experiment: a
// service instance with one file server behind its own TCP listener.
type e14Machine struct {
	*core.Instance
	ep core.Endpoint // the file server's endpoint
}

// flush drains the machine's push streams (a lone machine has none).
func (m *e14Machine) flush() {
	if m.Table != nil {
		m.Table.Flush(10 * time.Second)
	}
}

// stats snapshots the machine's replication counters.
func (m *e14Machine) stats() (s ftab.StatsSnapshot) {
	if m.Table != nil {
		s = m.Table.StatsSnapshot()
	}
	return s
}

// e14Wire adds a fixed wire latency to every round trip of the wrapped
// transactor. The sleep overlaps across workers the way real network
// latency does; it burns no CPU, so a host with fewer cores than
// simulated machines still shows the deployment's scaling shape.
type e14Wire struct {
	tr rpc.Transactor
	d  time.Duration
}

func (w e14Wire) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	if w.d > 0 {
		time.Sleep(w.d)
	}
	return w.tr.Transact(port, req)
}

// e14Mesh builds n file-service machines over one shared TCP block
// store, tables replicated; wire delays every peer-stream round trip.
func e14Mesh(n int, wire time.Duration) ([]*e14Machine, func(), error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) ([]*e14Machine, func(), error) {
		closeAll()
		return nil, nil, err
	}

	// The shared block machine, then every file-service machine's
	// listener: peers address each other before any of them boots.
	blocks, err := core.StartBlockMachine(core.Backend{BlockSize: 1024}, "127.0.0.1:0", nil)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { blocks.Close() })
	tcps := make([]*rpc.TCPServer, n)
	for i := range tcps {
		if tcps[i], err = rpc.NewTCPServer("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		tcp := tcps[i]
		closers = append(closers, func() { tcp.Close() })
	}
	dial := core.TCPDialer(nil)
	var machines []*e14Machine
	for i, tcp := range tcps {
		store, _, err := core.Mount([][]core.Endpoint{blocks.Endpoints}, dial, nil)
		if err != nil {
			return fail(err)
		}
		spec := core.Service{
			ID:       uint32(i),
			Store:    store,
			Servers:  1,
			Retain:   4,
			Register: tcp.Register,
		}
		for j := range tcps {
			if j != i {
				peer := dial(core.Endpoint{Port: ftab.PortFor(uint32(j)), Addr: tcps[j].Addr()})
				spec.Peers = append(spec.Peers, core.Peer{ID: uint32(j), Via: e14Wire{tr: peer, d: wire}})
			}
		}
		inst, err := core.NewInstance(spec)
		if err != nil {
			return fail(err)
		}
		// Streams down before the transports: a failed flush just marks
		// the peer down, so teardown never stalls on a half-closed mesh.
		closers = append(closers, func() { inst.Close(2 * time.Second) })
		machines = append(machines, &e14Machine{inst, core.Endpoint{Port: inst.Servers()[0].Port(), Addr: tcp.Addr()}})
	}
	return machines, closeAll, nil
}

// e14Client builds a client preferring machine i, its RPCs delayed by
// the wire latency.
func e14Client(machines []*e14Machine, i int, wire time.Duration) *client.Client {
	eps := []core.Endpoint{machines[i].ep}
	ports := []capability.Port{machines[i].ep.Port}
	for j, m := range machines {
		if j != i {
			eps = append(eps, m.ep)
			ports = append(ports, m.ep.Port)
		}
	}
	return client.New(e14Wire{tr: core.TCPDialer(nil)(eps...), d: wire}, ports...)
}

// e14Throughput: 2 workers per server, each committing to its own file
// through its own server. The measured window ends at the last ack, not
// the last peer delivery — that is the client-visible rate the async
// pipeline buys; the stream flush below the timer makes the push and
// frame counters complete before they are read.
func e14Throughput(n, commits int, wire time.Duration, syncAck bool) (rate, pushes, frames, totalCommits float64, err error) {
	machines, closeAll, err := e14Mesh(n, wire)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer closeAll()

	workers := 2 * n
	caps := make([]capability.Capability, workers)
	clients := make([]*client.Client, workers)
	for w := 0; w < workers; w++ {
		clients[w] = e14Client(machines, w%n, wire)
		caps[w], err = clients[w].CreateFile([]byte("bench"))
		if err != nil {
			return 0, 0, 0, 0, err
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < commits; k++ {
				v, err := clients[w].Update(caps[w], client.UpdateOpts{})
				if err != nil {
					errCh <- err
					return
				}
				if err := v.Write(page.RootPath, []byte(fmt.Sprintf("commit %d", k))); err != nil {
					errCh <- err
					return
				}
				if err := v.Commit(); err != nil {
					errCh <- err
					return
				}
				if syncAck {
					// The synchronous-replication regime for comparison:
					// the commit does not count until every peer holds it.
					machines[w%n].flush()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return 0, 0, 0, 0, err
	}
	elapsed := time.Since(start).Seconds()
	total := float64(workers * commits)
	for _, m := range machines {
		m.flush()
	}
	for _, m := range machines {
		s := m.stats()
		pushes += float64(s.Pushes)
		frames += float64(s.Batches)
	}
	return total / elapsed, pushes, frames, total, nil
}

// e14Contention: one shared file, every worker updating its root page
// through a different server; conflicts are redone. Conflicts here are
// storage-CAS conflicts — asynchronous table propagation does not widen
// the race window, because commit validation reads the storage chain
// (the chase rule), never a possibly-stale peer table.
func e14Contention(n, commits int) (rate float64, okCommits, conflicts int, resolved uint64, err error) {
	machines, closeAll, err := e14Mesh(n, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer closeAll()

	c0 := e14Client(machines, 0, 0)
	fcap, err := c0.CreateFile([]byte("contended"))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// The create is acked before it propagates; drain machine 0's
	// streams so every server can check the capability before the
	// contention window opens.
	machines[0].flush()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e14Client(machines, w, 0)
			for k := 0; k < commits; k++ {
				for {
					v, err := c.Update(fcap, client.UpdateOpts{})
					if err != nil {
						errCh <- err
						return
					}
					if _, _, err := v.Read(page.RootPath); err != nil {
						v.Abort()
						errCh <- err
						return
					}
					if err := v.Write(page.RootPath, []byte(fmt.Sprintf("w%d k%d", w, k))); err != nil {
						v.Abort()
						errCh <- err
						return
					}
					err = v.Commit()
					if err == nil {
						mu.Lock()
						okCommits++
						mu.Unlock()
						break
					}
					if errors.Is(err, occ.ErrConflict) {
						mu.Lock()
						conflicts++
						mu.Unlock()
						continue
					}
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return 0, 0, 0, 0, err
	}
	elapsed := time.Since(start).Seconds()
	for _, m := range machines {
		m.flush()
	}
	for _, m := range machines {
		resolved += m.stats().Resolved
	}
	return float64(okCommits) / elapsed, okCommits, conflicts, resolved, nil
}

// e14Rejoin: fill the table through machine 0, then time a cold
// replica's Bootstrap (snapshot pull + merge) and verify byte equality.
func e14Rejoin(files int) (ms, usPerFile float64, err error) {
	machines, closeAll, err := e14Mesh(2, 0)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll()

	c := e14Client(machines, 0, 0)
	for i := 0; i < files; i++ {
		if _, err := c.CreateFile([]byte(fmt.Sprintf("file %d", i))); err != nil {
			return 0, 0, err
		}
	}

	// A cold replica (fresh table, fresh identity, served nowhere)
	// joins the mesh and pulls everything — the rebooted-server catch-up
	// path, minus the storage scan both paths share.
	start := time.Now()
	cold, err := core.NewInstance(core.Service{
		ID:       1,
		Store:    machines[1].Shared.Store,
		Retain:   4,
		Peers:    []core.Peer{{ID: 0, Via: core.TCPDialer(nil)(core.Endpoint{Port: ftab.PortFor(0), Addr: machines[0].ep.Addr})}},
		Register: func(capability.Port, rpc.Handler) {},
	})
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	defer cold.Close(time.Second)
	rep := cold.Table
	if rep.StatsSnapshot().Resyncs == 0 {
		return 0, 0, fmt.Errorf("cold replica found no live peer")
	}
	if a, b := ftab.Fingerprint(rep), ftab.Fingerprint(machines[0].Shared.Table); a != b {
		return 0, 0, fmt.Errorf("cold replica not byte-equal after catch-up: %s vs %s", a, b)
	}
	return float64(elapsed.Microseconds()) / 1000, float64(elapsed.Microseconds()) / float64(files), nil
}
