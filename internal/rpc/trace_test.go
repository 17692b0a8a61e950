package rpc

import (
	"strings"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// tracedEcho is a handler that proves it saw the trace context: it
// joins it, runs one server-side span, and returns the records in the
// reply trailer — the full server half of the cross-wire protocol.
func tracedEcho(req *Message) *Message {
	tc, finish := trace.Join(req.Trace)
	sp, _ := tc.Start("server", "echo")
	sp.End(nil)
	r := req.Reply(StatusOK)
	r.Data = append([]byte(nil), req.Data...)
	r.Spans = finish()
	return r
}

func TestTraceContextTCPRoundTrip(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	port := capability.NewPort().Public()
	srv.Register(port, tracedEcho)
	res := NewResolver()
	res.Set(port, srv.Addr())
	cli := NewTCPClient(res)
	defer cli.Close()

	tr := trace.New(1, 0, 16)
	root, ctx := tr.Start("client", "echo")
	req := &Message{Command: 7, Data: []byte("payload"), Trace: ctx}
	resp, err := cli.Transact(port, req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "payload" {
		t.Fatalf("data %q", resp.Data)
	}
	if len(resp.Spans) == 0 {
		t.Fatal("reply carried no span trailer")
	}
	root.Adopt(resp.Spans)
	root.End(nil)

	got := tr.Recent(1)
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("assembled trace: %+v", got)
	}
	var server trace.SpanRecord
	for _, s := range got[0].Spans {
		if s.Layer == "server" {
			server = s
		}
	}
	if server.Parent != got[0].Root().ID {
		t.Fatalf("server span parent %d, want client root %d — nesting lost across TCP",
			server.Parent, got[0].Root().ID)
	}
}

func TestTraceContextInprocRoundTrip(t *testing.T) {
	net := NewNetwork()
	port := capability.NewPort().Public()
	if err := net.Register("", port, tracedEcho); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1, 0, 16)
	root, ctx := tr.Start("client", "echo")
	resp, err := net.Transact(port, &Message{Command: 7, Trace: ctx})
	if err != nil {
		t.Fatal(err)
	}
	// In-process the handler records straight into the caller's
	// collector: no trailer needed, but adopting an empty one is fine.
	root.Adopt(resp.Spans)
	root.End(nil)
	got := tr.Recent(1)
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("assembled trace: %+v", got)
	}
}

func TestUntracedWireIsByteIdenticalToOldFormat(t *testing.T) {
	m := &Message{Command: 3, Status: StatusOK, Data: []byte("x")}
	m.Args[0] = 42
	enc, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-trailer wire format: header(41) || dlen(4) || data. An
	// untraced message must not grow a trailer.
	if want := 41 + 4 + 1; len(enc) != want {
		t.Fatalf("untraced message encodes to %d bytes, want %d (old format)", len(enc), want)
	}
	back, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace.Sampled() || back.Spans != nil {
		t.Fatalf("old-format frame decoded trace state: %+v", back)
	}
}

func TestOldPeerIgnoresTrailer(t *testing.T) {
	// A handler written before tracing existed: it never touches
	// req.Trace and sets no reply trailer. The transaction must work
	// unchanged and simply return no spans.
	oldHandler := func(req *Message) *Message {
		r := req.Reply(StatusOK)
		r.Args[0] = req.Args[0] + 1
		return r
	}
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	port := capability.NewPort().Public()
	srv.Register(port, oldHandler)
	res := NewResolver()
	res.Set(port, srv.Addr())
	cli := NewTCPClient(res)
	defer cli.Close()

	tr := trace.New(1, 0, 16)
	root, ctx := tr.Start("client", "op")
	req := &Message{Command: 9, Trace: ctx}
	req.Args[0] = 1
	resp, err := cli.Transact(port, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Args[0] != 2 {
		t.Fatalf("old handler answered %d", resp.Args[0])
	}
	if len(resp.Spans) != 0 {
		t.Fatalf("old handler returned spans: %x", resp.Spans)
	}
	root.End(nil)
}

func TestTrailerCodec(t *testing.T) {
	tc := trace.Context{TraceID: 0xabcdef, SpanID: 0x1234, Flags: trace.FlagSampled}
	spans := trace.EncodeRecords([]trace.SpanRecord{{ID: 1, Layer: "l", Name: "n", Start: time.Unix(0, 1), Dur: 2}})
	m := &Message{Command: 5, Data: []byte("d"), Trace: tc, Spans: spans}
	enc, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace.TraceID != tc.TraceID || back.Trace.SpanID != tc.SpanID || !back.Trace.Sampled() {
		t.Fatalf("trace context: %+v", back.Trace)
	}
	if string(back.Spans) != string(spans) {
		t.Fatalf("spans: %x vs %x", back.Spans, spans)
	}
	// Unknown trailer tags must be skipped, not rejected.
	withUnknown := append(append([]byte(nil), enc...), 0x7f, 0, 2, 0xaa, 0xbb)
	if _, err := DecodeMessage(withUnknown); err != nil {
		t.Fatalf("unknown trailer tag rejected: %v", err)
	}
	// A truncated trailer is malformed.
	if _, err := DecodeMessage(append(append([]byte(nil), enc...), 0x7f, 9)); err == nil {
		t.Fatal("truncated trailer decoded cleanly")
	}
}

func TestRPCMetricsRender(t *testing.T) {
	net := NewNetwork()
	port := capability.NewPort().Public()
	serverM := &Metrics{Name: func(c uint32) string {
		if c == 7 {
			return "echo"
		}
		return ""
	}}
	h := Instrument(serverM, func(req *Message) *Message {
		if req.Args[0] == 1 {
			return req.Errorf(StatusConflict, "nope")
		}
		return req.Reply(StatusOK)
	})
	if err := net.Register("", port, h); err != nil {
		t.Fatal(err)
	}
	clientM := &Metrics{Name: func(uint32) string { return "echo" }}
	net.SetMetrics(clientM)

	if _, err := net.Transact(port, &Message{Command: 7}); err != nil {
		t.Fatal(err)
	}
	bad := &Message{Command: 7}
	bad.Args[0] = 1
	if _, err := net.Transact(port, bad); err != nil {
		t.Fatal(err)
	}
	// Dead port: transport error on the client side only.
	if _, err := net.Transact(capability.NewPort().Public(), &Message{Command: 7}); err == nil {
		t.Fatal("dead port succeeded")
	}

	var b strings.Builder
	reg := new(metrics.Registry)
	reg.Register("rpc", serverM.Collect, "side", "server")
	reg.Register("rpc", clientM.Collect, "side", "client")
	reg.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`afs_rpc_seconds_count{cmd="echo",side="server"} 2`,
		`afs_rpc_errors_total{cmd="echo",side="server",status="serialisability conflict"} 1`,
		`afs_rpc_seconds_count{cmd="echo",side="client"} 3`,
		`afs_rpc_errors_total{cmd="echo",side="client",status="transport"} 1`,
		"# TYPE afs_rpc_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
