package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/rpc"
)

// SyncMode and the other daemon settings below are the deployment the
// end-to-end numbers describe; they are printed with every result.
const (
	SyncMode    = "group" // segstore flush policy, default adaptive window
	BlockShards = 2       // afs-block -shards: 2 shards x mirrored pair = 4 segment logs
	Peers       = 2       // afs-server processes in the -peers mesh
)

// daemon is one started process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	args []string
	// stdout carries the endpoint line; stderr the structured log, kept
	// for the restart check (recovered capabilities) and for diagnosis.
	stdout *bufio.Reader
	logMu  sync.Mutex
	log    bytes.Buffer
	done   chan struct{} // closed once the stderr pump has drained
}

// running tracks every started daemon so that an interrupted benchmark
// can take its children down with it (see killAllDaemons).
var running = struct {
	sync.Mutex
	set map[*daemon]struct{}
}{set: map[*daemon]struct{}{}}

// killAllDaemons SIGKILLs whatever is still running; the signal handler
// in main calls it before exiting.
func killAllDaemons() {
	running.Lock()
	defer running.Unlock()
	for d := range running.set {
		_ = d.cmd.Process.Kill() // already-exited is fine
	}
}

func startDaemon(name, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: name, args: append([]string{filepath.Base(bin)}, args...), done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errPipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d.stdout = bufio.NewReader(out)
	running.Lock()
	running.set[d] = struct{}{}
	running.Unlock()
	go func() {
		defer close(d.done)
		buf := make([]byte, 32<<10)
		for {
			n, err := errPipe.Read(buf)
			d.logMu.Lock()
			d.log.Write(buf[:n])
			d.logMu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return d, nil
}

// endpoints reads the daemon's one stdout line (comma-separated
// PORT@ADDR), bounded by patience.
func (d *daemon) endpoints(patience time.Duration) ([]string, error) {
	type lineErr struct {
		line string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		line, err := d.stdout.ReadString('\n')
		ch <- lineErr{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("%s printed no endpoints: %w\n%s", d.name, r.err, d.logText())
		}
		return strings.Split(strings.TrimSpace(r.line), ","), nil
	case <-time.After(patience):
		return nil, fmt.Errorf("%s printed no endpoints within %v\n%s", d.name, patience, d.logText())
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// awaitLog polls the captured stderr until it contains marker.
func (d *daemon) awaitLog(marker string, patience time.Duration) (string, error) {
	deadline := time.Now().Add(patience)
	for {
		if log := d.logText(); strings.Contains(log, marker) {
			return log, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s never logged %s\n%s", d.name, marker, d.logText())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL — no shutdown flush — and waits for the process and
// its log pump to end.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
	_ = d.cmd.Wait() // the kill is the expected exit
	running.Lock()
	delete(running.set, d)
	running.Unlock()
}

// cpuTicks returns the process's user+system CPU time in clock ticks
// from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (uint64, error) { return procCPUTicks(d.cmd.Process.Pid) }

func procCPUTicks(pid int) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 for every
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// Rig is one fresh deployment: one afs-block serving BlockShards
// mirrored shards from dir, Peers afs-server processes over it.
type Rig struct {
	bins    Binaries
	dir     string
	block   *daemon
	servers []*daemon
	// serverEP[i] is peer i's service endpoint (PORT@ADDR).
	serverEP []string
	tcp      []*rpc.TCPClient
}

// Binaries locates the built daemons.
type Binaries struct{ Block, Server string }

// freeAddr reserves a loopback port by binding and releasing it: peers
// must know each other's listen address before any of them runs.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const bootPatience = 30 * time.Second

// StartRig brings the deployment up in dir and returns once every
// daemon has printed its endpoints.
func StartRig(bins Binaries, dir string) (*Rig, error) {
	r := &Rig{bins: bins, dir: dir}
	if err := r.startBlock(); err != nil {
		r.Kill()
		return nil, err
	}
	addrs := make([]string, Peers)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			r.Kill()
			return nil, err
		}
		addrs[i] = a
	}
	mounts, err := r.block.endpoints(bootPatience)
	if err != nil {
		r.Kill()
		return nil, err
	}
	// Peers boot in ID order: peer 0 establishes the service identity,
	// every later peer pulls it at bootstrap.
	for i := 0; i < Peers; i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d@%s", j, a))
			}
		}
		if err := r.startServer(i, addrs[i], strings.Join(peers, ","), mounts); err != nil {
			r.Kill()
			return nil, err
		}
	}
	return r, nil
}

func (r *Rig) startBlock() error {
	d, err := startDaemon("afs-block", r.bins.Block,
		"-store=seg", "-sync="+SyncMode, "-dir="+filepath.Join(r.dir, "blk"),
		fmt.Sprintf("-shards=%d", BlockShards), "-pair", "-log-level=warn")
	r.block = d
	return err
}

func (r *Rig) startServer(id int, listen, peers string, mounts []string) error {
	args := []string{
		fmt.Sprintf("-id=%d", id), "-listen=" + listen, "-servers=1",
		"-blocks=" + strings.Join(mounts, ","), "-gc=5s", "-retain=4", "-trace-sample=0",
	}
	if peers != "" {
		args = append(args, "-peers="+peers)
	}
	d, err := startDaemon(fmt.Sprintf("afs-server-%d", id), r.bins.Server, args...)
	if err != nil {
		return err
	}
	r.servers = append(r.servers, d)
	eps, err := d.endpoints(bootPatience)
	if err != nil {
		return err
	}
	if len(eps) != 1 {
		return fmt.Errorf("%s printed %d endpoints, want 1", d.name, len(eps))
	}
	r.serverEP = append(r.serverEP, eps[0])
	return nil
}

// parseEndpoint splits PORT@ADDR.
func parseEndpoint(ep string) (capability.Port, string, error) {
	i := strings.IndexByte(ep, '@')
	if i < 0 {
		return 0, "", fmt.Errorf("endpoint %q: want PORT@ADDR", ep)
	}
	p, err := strconv.ParseUint(ep[:i], 16, 64)
	if err != nil {
		return 0, "", fmt.Errorf("endpoint %q: %w", ep, err)
	}
	return capability.Port(p), ep[i+1:], nil
}

// Client returns a client with its own TCP connection, homed on peer
// home with the remaining peers as failover.
func (r *Rig) Client(home int) (*client.Client, error) {
	res := rpc.NewResolver()
	ports := make([]capability.Port, 0, len(r.serverEP))
	for k := range r.serverEP {
		port, addr, err := parseEndpoint(r.serverEP[(home+k)%len(r.serverEP)])
		if err != nil {
			return nil, err
		}
		res.Set(port, addr)
		ports = append(ports, port)
	}
	tcp := rpc.NewTCPClient(res)
	r.tcp = append(r.tcp, tcp)
	return client.New(tcp, ports...), nil
}

// daemons lists every process of the rig.
func (r *Rig) daemons() []*daemon {
	out := append([]*daemon(nil), r.servers...)
	if r.block != nil {
		out = append(out, r.block)
	}
	return out
}

// CPUTicks sums user+system CPU of all daemons.
func (r *Rig) CPUTicks() (uint64, error) {
	var sum uint64
	for _, d := range r.daemons() {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += t
	}
	return sum, nil
}

// CommandLines returns each daemon's command line, for the run metadata.
func (r *Rig) CommandLines() []string {
	var out []string
	for _, d := range r.daemons() {
		out = append(out, strings.Join(d.args, " "))
	}
	return out
}

// Kill SIGKILLs every daemon and closes the clients' connections. The
// data directory stays as the processes left it.
func (r *Rig) Kill() {
	for _, c := range r.tcp {
		c.Close()
	}
	r.tcp = nil
	for _, d := range r.daemons() {
		d.kill()
	}
	r.servers, r.block, r.serverEP = nil, nil, nil
}

var recoveredRE = regexp.MustCompile(`msg="recovered file".* object=(\d+) cap=([0-9a-f]+)`)

// RestartRecovered restarts afs-block on the same directories with one
// afs-server on top and returns the re-minted capabilities by object
// number, scraped from the server's "recovered file" log lines
// (capability secrets die with the process that minted them).
func (r *Rig) RestartRecovered() (map[uint32]capability.Capability, error) {
	if err := r.startBlock(); err != nil {
		return nil, err
	}
	mounts, err := r.block.endpoints(bootPatience)
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := r.startServer(0, addr, "", mounts); err != nil {
		return nil, err
	}
	// The recovery lines precede the endpoint line, but on another pipe:
	// wait for the log line the server writes after printing endpoints.
	log, err := r.servers[0].awaitLog(`msg="file service up"`, bootPatience)
	if err != nil {
		return nil, err
	}
	caps := make(map[uint32]capability.Capability)
	for _, m := range recoveredRE.FindAllStringSubmatch(log, -1) {
		obj, err := strconv.ParseUint(m[1], 10, 32)
		if err != nil {
			return nil, err
		}
		c, err := capability.ParseText(m[2])
		if err != nil {
			return nil, fmt.Errorf("recovered capability of object %d: %w", obj, err)
		}
		caps[uint32(obj)] = c
	}
	return caps, nil
}

// fsType names the filesystem holding dir, from /proc/self/mountinfo
// (longest mount point that prefixes dir).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 35 98:0 /root /mnt ... - ext3 /dev/root rw": mount point is
		// field 5, the type the first field after the " - " separator.
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields := strings.Fields(pre)
		if !ok || len(fields) < 5 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best = mp
			if t := strings.Fields(post); len(t) > 0 {
				kind = t[0]
			}
		}
	}
	return kind
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil // a file vanishing mid-walk (compaction) is not an error here
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
