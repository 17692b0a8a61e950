package rpc

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/capability"
)

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	f := capability.NewFactory(capability.NewPort().Public())
	m := &Message{
		Command: 7,
		Status:  StatusConflict,
		Args:    [4]uint64{1, 2, 3, 4},
		Caps:    []capability.Capability{f.Register(1), f.Register(2)},
		Data:    []byte("payload"),
	}
	enc, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != m.Command || got.Status != m.Status || got.Args != m.Args {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Caps) != 2 || got.Caps[0] != m.Caps[0] || got.Caps[1] != m.Caps[1] {
		t.Fatal("caps mismatch")
	}
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatal("data mismatch")
	}
}

func TestMessageEncodeEmpty(t *testing.T) {
	m := &Message{Command: 1}
	enc, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != 1 || len(got.Caps) != 0 || len(got.Data) != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestMessageEncodeLimits(t *testing.T) {
	m := &Message{Data: make([]byte, MaxData+1)}
	if _, err := m.Encode(nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize data err = %v", err)
	}
	m = &Message{Caps: make([]capability.Capability, maxCaps+1)}
	if _, err := m.Encode(nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too many caps err = %v", err)
	}
	m = &Message{Data: make([]byte, MaxData)}
	if _, err := m.Encode(nil); err != nil {
		t.Fatalf("exactly MaxData rejected: %v", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	for _, src := range [][]byte{
		nil,
		make([]byte, 10),
		make([]byte, 44),
	} {
		if _, err := DecodeMessage(src); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeMessage(%d bytes) err = %v, want ErrMalformed", len(src), err)
		}
	}
	// Declared data length longer than actual payload.
	m := &Message{Data: []byte("abc")}
	enc, _ := m.Encode(nil)
	if _, err := DecodeMessage(enc[:len(enc)-1]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated message err = %v, want ErrMalformed", err)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	prop := func(cmd uint32, status uint32, args [4]uint64, data []byte) bool {
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		m := &Message{Command: cmd, Status: Status(status), Args: args, Data: data}
		enc, err := m.Encode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			return false
		}
		return got.Command == cmd && got.Status == Status(status) &&
			got.Args == args && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyAndErr(t *testing.T) {
	req := &Message{Command: 9}
	ok := req.Reply(StatusOK)
	if ok.Err() != nil {
		t.Fatal("StatusOK should map to nil error")
	}
	bad := req.Errorf(StatusConflict, "version %d", 3)
	if bad.Command != 9 {
		t.Fatal("Errorf must echo command")
	}
	if err := bad.Err(); err == nil || err.Error() != "serialisability conflict: version 3" {
		t.Fatalf("Err() = %v", err)
	}
}

func TestNetworkTransact(t *testing.T) {
	n := NewNetwork()
	port := capability.NewPort().Public()
	err := n.Register("srv", port, func(req *Message) *Message {
		r := req.Reply(StatusOK)
		r.Args[0] = req.Args[0] + 1
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Transact(port, &Message{Args: [4]uint64{41}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Args[0] != 42 {
		t.Fatalf("Args[0] = %d, want 42", resp.Args[0])
	}
}

func TestNetworkDeadPort(t *testing.T) {
	n := NewNetwork()
	_, err := n.Transact(capability.NewPort().Public(), &Message{})
	if !errors.Is(err, ErrDeadPort) {
		t.Fatalf("err = %v, want ErrDeadPort", err)
	}
	if n.Stats().DeadPort != 1 {
		t.Fatal("dead port not counted")
	}
}

func TestNetworkCrashGroup(t *testing.T) {
	n := NewNetwork()
	p1, p2 := capability.NewPort().Public(), capability.NewPort().Public()
	p3 := capability.NewPort().Public()
	echo := func(req *Message) *Message { return req.Reply(StatusOK) }
	n.Register("a", p1, echo)
	n.Register("a", p2, echo)
	n.Register("b", p3, echo)
	n.Crash("a")
	if _, err := n.Transact(p1, &Message{}); !errors.Is(err, ErrDeadPort) {
		t.Fatal("p1 alive after crash")
	}
	if _, err := n.Transact(p2, &Message{}); !errors.Is(err, ErrDeadPort) {
		t.Fatal("p2 alive after crash")
	}
	if _, err := n.Transact(p3, &Message{}); err != nil {
		t.Fatalf("p3 affected by crash of group a: %v", err)
	}
	if !n.Alive(p3) || n.Alive(p1) {
		t.Fatal("Alive wrong after crash")
	}
}

func TestNetworkDuplicateRegister(t *testing.T) {
	n := NewNetwork()
	p := capability.NewPort().Public()
	h := func(req *Message) *Message { return req.Reply(StatusOK) }
	if err := n.Register("", p, h); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("", p, h); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := n.Register("", capability.NilPort, h); err == nil {
		t.Fatal("nil port register accepted")
	}
}

func TestNetworkNilHandlerReply(t *testing.T) {
	n := NewNetwork()
	p := capability.NewPort().Public()
	n.Register("", p, func(req *Message) *Message { return nil })
	resp, err := n.Transact(p, &Message{Command: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadCommand {
		t.Fatalf("status = %v, want bad command", resp.Status)
	}
}

func TestNetworkConcurrentTransactions(t *testing.T) {
	n := NewNetwork()
	p := capability.NewPort().Public()
	var counter sync.Mutex
	total := 0
	n.Register("", p, func(req *Message) *Message {
		counter.Lock()
		total++
		counter.Unlock()
		return req.Reply(StatusOK)
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := n.Transact(p, &Message{}); err != nil {
					t.Errorf("transact: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if total != 1600 {
		t.Fatalf("handled %d, want 1600", total)
	}
	if n.Stats().Transactions != 1600 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestTCPTransport(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	port := capability.NewPort().Public()
	srv.Register(port, func(req *Message) *Message {
		r := req.Reply(StatusOK)
		r.Data = append([]byte("echo:"), req.Data...)
		return r
	})

	res := NewResolver()
	res.Set(port, srv.Addr())
	cli := NewTCPClient(res)
	defer cli.Close()

	resp, err := cli.Transact(port, &Message{Command: 3, Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "echo:hi" {
		t.Fatalf("data = %q", resp.Data)
	}

	// Second transaction reuses the pooled connection.
	if _, err := cli.Transact(port, &Message{Command: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDeadPort(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res := NewResolver()
	cli := NewTCPClient(res)
	defer cli.Close()

	// Unresolved port.
	unknown := capability.NewPort().Public()
	if _, err := cli.Transact(unknown, &Message{}); !errors.Is(err, ErrDeadPort) {
		t.Fatalf("unresolved port err = %v", err)
	}

	// Resolved but unregistered port on a live server.
	res.Set(unknown, srv.Addr())
	if _, err := cli.Transact(unknown, &Message{}); !errors.Is(err, ErrDeadPort) {
		t.Fatalf("unregistered port err = %v", err)
	}
}

func TestTCPServerClosedConnection(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := capability.NewPort().Public()
	srv.Register(port, func(req *Message) *Message { return req.Reply(StatusOK) })
	res := NewResolver()
	res.Set(port, srv.Addr())
	cli := NewTCPClient(res)
	defer cli.Close()
	if _, err := cli.Transact(port, &Message{}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Transact(port, &Message{}); !errors.Is(err, ErrDeadPort) {
		t.Fatalf("transact after server close err = %v, want ErrDeadPort", err)
	}
}

// TestOversizedReplyIsAnErrorReply: a reply whose data exceeds MaxData
// fails that one call with a StatusIO reply on both transports. Over TCP
// the connection survives, so the failure never reads as a dead port.
func TestOversizedReplyIsAnErrorReply(t *testing.T) {
	port := capability.NewPort().Public()
	handler := func(req *Message) *Message {
		r := req.Reply(StatusOK)
		if req.Args[0] == 1 {
			r.Data = make([]byte, MaxData+1)
		}
		return r
	}
	n := NewNetwork()
	if err := n.Register("", port, handler); err != nil {
		t.Fatal(err)
	}
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(port, handler)
	res := NewResolver()
	res.Set(port, srv.Addr())
	cli := NewTCPClient(res)
	defer cli.Close()
	pooled := func() *clientConn {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return cli.conns[srv.Addr()]
	}

	for _, tc := range []struct {
		name string
		tr   Transactor
	}{{"inproc", n}, {"tcp", cli}} {
		if _, err := tc.tr.Transact(port, &Message{Command: 5}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		conn := pooled()
		big := &Message{Command: 5}
		big.Args[0] = 1
		resp, err := tc.tr.Transact(port, big)
		if err != nil {
			t.Fatalf("%s: oversized reply surfaced as a transport error: %v", tc.name, err)
		}
		if resp.Status != StatusIO || string(resp.Data) != "reply: "+ErrTooLarge.Error() {
			t.Fatalf("%s: oversized reply = %v with %d data bytes, want an i/o error reply", tc.name, resp.Status, len(resp.Data))
		}
		if pooled() != conn {
			t.Fatalf("%s: the oversized reply cost the connection", tc.name)
		}
		if _, err := tc.tr.Transact(port, &Message{Command: 5}); err != nil {
			t.Fatalf("%s: call after the oversized reply: %v", tc.name, err)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "ok" || StatusConflict.String() != "serialisability conflict" {
		t.Fatal("status names wrong")
	}
	if Status(999).String() != "status(999)" {
		t.Fatalf("unknown status = %q", Status(999).String())
	}
}
