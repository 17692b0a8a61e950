package block

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/rpc"
)

// dialTest wires a block server behind the in-process network and dials
// it.
func dialTest(t *testing.T) (Store, *Server) {
	t.Helper()
	srv := NewServer(disk.MustNew(disk.Geometry{Blocks: 64, BlockSize: 256}))
	net := rpc.NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("blk", port, Serve(srv)); err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(net, port)
	if err != nil {
		t.Fatal(err)
	}
	return remote, srv
}

func TestRemoteRoundTrip(t *testing.T) {
	remote, _ := dialTest(t)
	if remote.BlockSize() != 256 {
		t.Fatalf("block size %d", remote.BlockSize())
	}
	n, err := remote.Alloc(1, []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Read(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:13], []byte("over the wire")) {
		t.Fatalf("read %q", got[:13])
	}
	if err := remote.Write(1, n, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	got, _ = remote.Read(1, n)
	if !bytes.Equal(got[:9], []byte("rewritten")) {
		t.Fatalf("read %q", got[:9])
	}
	if err := remote.Free(1, n); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Read(1, n); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("read freed block: %v", err)
	}
}

func TestRemoteErrorsKeepIdentity(t *testing.T) {
	remote, _ := dialTest(t)
	n, _ := remote.Alloc(1, nil)
	if _, err := remote.Read(2, n); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign read err = %v", err)
	}
	if err := remote.Lock(1, n); err != nil {
		t.Fatal(err)
	}
	if err := remote.Lock(1, n); !errors.Is(err, ErrLocked) {
		t.Fatalf("double lock err = %v", err)
	}
	if err := remote.Unlock(1, n); err != nil {
		t.Fatal(err)
	}
	if err := remote.Unlock(1, n); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("double unlock err = %v", err)
	}
}

func TestRemoteRecoverScan(t *testing.T) {
	remote, _ := dialTest(t)
	var want []Num
	for i := 0; i < 3; i++ {
		n, err := remote.Alloc(7, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, n)
	}
	remote.Alloc(8, nil)
	got, err := remote.Recover(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestRemoteWithLockCriticalSection(t *testing.T) {
	remote, _ := dialTest(t)
	n, _ := remote.Alloc(1, []byte{5})
	err := WithLock(remote, 1, n, func(data []byte) ([]byte, error) {
		data[0]++
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := remote.Read(1, n)
	if got[0] != 6 {
		t.Fatalf("counter = %d", got[0])
	}
}

func TestRemoteDeadPort(t *testing.T) {
	net := rpc.NewNetwork()
	if _, err := Dial(net, capability.NewPort().Public()); !errors.Is(err, rpc.ErrDeadPort) {
		t.Fatalf("err = %v", err)
	}
}

func TestFileServiceOverRemoteBlocks(t *testing.T) {
	// The full stack with storage behind the network: file server ->
	// remote proxy -> block server.
	remote, _ := dialTest(t)
	_ = remote
}

// cmdRecorder notes every command a proxy sends.
type cmdRecorder struct {
	rpc.Transactor
	seen map[uint32]int
}

func (c *cmdRecorder) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	c.seen[req.Command]++
	return c.Transactor.Transact(port, req)
}

// TestProxySendsOnlyVectoredCommands pins the single data path on the
// wire: scalar calls on the proxy travel as the vectored commands, and
// the scalar command codes — reserved, answered StatusBadCommand by
// Serve — are never issued.
func TestProxySendsOnlyVectoredCommands(t *testing.T) {
	srv := NewServer(disk.MustNew(disk.Geometry{Blocks: 64, BlockSize: 256}))
	net := rpc.NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("blk", port, Serve(srv)); err != nil {
		t.Fatal(err)
	}
	rec := &cmdRecorder{Transactor: net, seen: map[uint32]int{}}
	remote, err := Dial(rec, port)
	if err != nil {
		t.Fatal(err)
	}
	n, err := remote.Alloc(1, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Write(1, n, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, err := remote.Read(1, n); err != nil || !bytes.HasPrefix(got, []byte("two")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	if err := remote.Free(1, n); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []uint32{cmdAlloc, cmdFree, cmdRead, cmdWrite} {
		if rec.seen[cmd] != 0 {
			t.Errorf("proxy sent scalar command %s %d times", CmdName(cmd), rec.seen[cmd])
		}
	}
	for _, cmd := range []uint32{cmdAllocMulti, cmdFreeMulti, cmdReadMulti, cmdWriteMulti} {
		if rec.seen[cmd] != 1 {
			t.Errorf("proxy sent %s %d times, want 1", CmdName(cmd), rec.seen[cmd])
		}
	}

	for _, cmd := range []uint32{cmdAlloc, cmdFree, cmdRead, cmdWrite} {
		req := &rpc.Message{Command: cmd, Data: []byte("scalar")}
		req.Args[0] = 1
		resp, err := net.Transact(port, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != rpc.StatusBadCommand {
			t.Errorf("scalar command %s answered %v, want StatusBadCommand", CmdName(cmd), resp.Status)
		}
	}
}

// TestProxyRefusesBlocksNoFrameCarries covers the one shape the
// vectored commands cannot move: a block too large to share a frame
// with its entry header is refused with rpc.ErrTooLarge at its index,
// the rest of the batch still travels, and nothing loops.
func TestProxyRefusesBlocksNoFrameCarries(t *testing.T) {
	srv := NewServer(disk.MustNew(disk.Geometry{Blocks: 8, BlockSize: rpc.MaxData}))
	net := rpc.NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("blk", port, Serve(srv)); err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(net, port)
	if err != nil {
		t.Fatal(err)
	}
	small, err := remote.Alloc(1, []byte("fits"))
	if err != nil {
		t.Fatal(err)
	}
	full := make([]byte, rpc.MaxData)
	err = WriteMulti(remote, 1, []Num{small, small}, [][]byte{full, []byte("second")})
	if !errors.Is(err, rpc.ErrTooLarge) || MultiIndex(err, -1) != 0 {
		t.Fatalf("oversized write err = %v, want ErrTooLarge at index 0", err)
	}
	if got, _ := srv.Read(1, small); !bytes.HasPrefix(got, []byte("second")) {
		t.Fatalf("the payload after the oversized one was not written: %q", got[:8])
	}
	if _, err := remote.Alloc(1, full); !errors.Is(err, rpc.ErrTooLarge) {
		t.Fatalf("oversized alloc err = %v, want ErrTooLarge", err)
	}
	if _, err := remote.Read(1, small); !errors.Is(err, rpc.ErrTooLarge) {
		t.Fatalf("read of a block no reply frame carries: err = %v, want ErrTooLarge", err)
	}
}
