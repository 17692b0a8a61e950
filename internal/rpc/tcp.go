package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/capability"
)

// The TCP transport carries one transaction per framed exchange:
//
//	frame := len(4 bytes, big endian) || port(8 bytes) || message
//
// A TCPServer hosts any number of service ports behind one listener; a
// TCPClient resolves ports to addresses through a static Resolver — the
// moral equivalent of Amoeba's locate broadcast, which needs no
// reproduction fidelity since port location is orthogonal to the paper's
// contribution.

// Resolver maps service ports to TCP addresses.
type Resolver struct {
	mu    sync.RWMutex
	addrs map[capability.Port]string
}

// NewResolver creates an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{addrs: make(map[capability.Port]string)}
}

// Set binds port to a TCP address, replacing any previous binding.
func (r *Resolver) Set(port capability.Port, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[port] = addr
}

// Lookup returns the address bound to port.
func (r *Resolver) Lookup(port capability.Port) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.addrs[port]
	return a, ok
}

// TCPServer serves transactions for a set of ports on one listener.
type TCPServer struct {
	mu        sync.RWMutex
	handlers  map[capability.Port]Handler
	conns     map[net.Conn]struct{}
	ln        net.Listener
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewTCPServer starts a server listening on addr (e.g. "127.0.0.1:0").
func NewTCPServer(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &TCPServer{
		handlers: make(map[capability.Port]Handler),
		conns:    make(map[net.Conn]struct{}),
		ln:       ln,
		closed:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address, for registration in a Resolver.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Register installs h as the handler for port on this server.
func (s *TCPServer) Register(port capability.Port, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[port] = h
}

// Close stops the listener, drops open connections and waits for the
// connection goroutines to exit. Closing twice is safe.
func (s *TCPServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				// Transient accept failure; keep serving.
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		port, req, err := readFrame(r)
		if err != nil {
			return // connection closed or corrupt; client will redial
		}
		s.mu.RLock()
		h, ok := s.handlers[port]
		s.mu.RUnlock()
		var resp *Message
		if !ok {
			resp = req.Errorf(StatusDeadPort, "no handler for port %v", port)
		} else {
			resp = safeHandle(h, req)
			if resp == nil {
				resp = req.Reply(StatusBadCommand)
			}
		}
		err = writeFrame(w, port, resp)
		if errors.Is(err, ErrTooLarge) {
			// writeFrame encodes before it writes, so the stream is
			// intact: fail this one call, not every call on the
			// connection (which the caller would take for a dead port).
			err = writeFrame(w, port, req.Errorf(StatusIO, "reply: %v", ErrTooLarge))
		}
		if err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// safeHandle runs a handler, converting a panic into an error reply:
// one malformed or hostile request must not take down a server process
// hosting every service port.
func safeHandle(h Handler, req *Message) (resp *Message) {
	defer func() {
		if r := recover(); r != nil {
			resp = req.Errorf(StatusIO, "rpc: handler panic: %v", r)
		}
	}()
	return h(req)
}

func writeFrame(w io.Writer, port capability.Port, m *Message) error {
	body, err := m.Encode(make([]byte, 0, m.encodedLen()))
	if err != nil {
		return err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)+8))
	binary.BigEndian.PutUint64(hdr[4:12], uint64(port))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFrame(r io.Reader) (capability.Port, *Message, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < 8 || n > MaxData+4096 {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, ErrMalformed)
	}
	port := capability.Port(binary.BigEndian.Uint64(hdr[4:12]))
	body := make([]byte, n-8)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	m, err := DecodeMessage(body)
	return port, m, err
}

// RetryPolicy controls how a TCPClient handles connection-level
// failures: a failed dial, or a pooled connection that breaks during
// the exchange (the server restarted, the network blipped). Attempts
// counts total tries; the first retry redials immediately (the common
// case is just a stale pooled connection to a restarted server), and
// further retries back off exponentially from Backoff up to MaxBackoff.
//
// A retry after a broken exchange may re-deliver a request the server
// already executed; like Amoeba's trans(), the service protocols are
// built to tolerate re-sent requests (e.g. the commit path treats "my
// successor is already installed" as success).
type RetryPolicy struct {
	Attempts   int
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the policy NewTCPClient installs: enough
// attempts to ride out a quick server restart, cheap enough to fail
// fast when the server is really gone.
var DefaultRetryPolicy = RetryPolicy{Attempts: 4, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// withDefaults fills unset fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryPolicy.Attempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryPolicy.Backoff
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = p.Backoff
	}
	return p
}

// TCPClient is a Transactor over TCP. It keeps one pooled connection per
// server address; one pooled connection may carry transactions from any
// number of goroutines (they serialise on the exchange).
type TCPClient struct {
	resolver *Resolver

	mu      sync.Mutex
	retry   RetryPolicy
	conns   map[string]*clientConn
	metrics *Metrics
}

type clientConn struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// NewTCPClient creates a client resolving ports through resolver, with
// DefaultRetryPolicy.
func NewTCPClient(resolver *Resolver) *TCPClient {
	return &TCPClient{resolver: resolver, retry: DefaultRetryPolicy, conns: make(map[string]*clientConn)}
}

// SetRetryPolicy replaces the connection-failure retry policy.
func (c *TCPClient) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p.withDefaults()
}

// SetMetrics installs a caller-side per-command metrics family; every
// Transact observes into it.
func (c *TCPClient) SetMetrics(m *Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = m
}

// Close drops all pooled connections.
func (c *TCPClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.conns {
		cc.conn.Close()
	}
	c.conns = make(map[string]*clientConn)
}

func (c *TCPClient) getConn(addr string) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.conns[addr]; ok {
		return cc, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	c.conns[addr] = cc
	return cc, nil
}

func (c *TCPClient) dropConn(addr string, cc *clientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.conns[addr]; ok && cur == cc {
		cur.conn.Close()
		delete(c.conns, addr)
	}
}

// Transact implements Transactor. Connection-level failures are retried
// per the client's RetryPolicy (immediate redial first — the stale
// pooled connection to a restarted server — then exponential backoff);
// an unreachable or unresolvable service maps to ErrDeadPort so lock
// recovery behaves identically over TCP and in-proc. A live server
// answering for an unregistered port replies StatusDeadPort, which is
// final (no retry): the process is up, the service is not.
func (c *TCPClient) Transact(port capability.Port, req *Message) (*Message, error) {
	c.mu.Lock()
	pol := c.retry.withDefaults()
	met := c.metrics
	c.mu.Unlock()
	if met == nil {
		return c.transact(port, req, pol)
	}
	start := time.Now()
	resp, err := c.transact(port, req, pol)
	status := StatusOK
	if resp != nil {
		status = resp.Status
	}
	met.Observe(req.Command, time.Since(start), status, err != nil)
	return resp, err
}

func (c *TCPClient) transact(port capability.Port, req *Message, pol RetryPolicy) (*Message, error) {
	addr, ok := c.resolver.Lookup(port)
	if !ok {
		return nil, fmt.Errorf("port %v unresolved: %w", port, ErrDeadPort)
	}
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
		}
		cc, err := c.getConn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.exchange(cc, port, req)
		if err != nil {
			c.dropConn(addr, cc)
			lastErr = err
			continue
		}
		if resp.Status == StatusDeadPort && resp.Command == req.Command {
			return nil, fmt.Errorf("port %v: %w", port, ErrDeadPort)
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = errors.New("rpc: exchange failed")
	}
	return nil, fmt.Errorf("port %v after %d attempts: %w (%v)", port, pol.Attempts, ErrDeadPort, lastErr)
}

func (c *TCPClient) exchange(cc *clientConn, port capability.Port, req *Message) (*Message, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := writeFrame(cc.w, port, req); err != nil {
		return nil, err
	}
	if err := cc.w.Flush(); err != nil {
		return nil, err
	}
	_, resp, err := readFrame(cc.r)
	return resp, err
}

var _ Transactor = (*TCPClient)(nil)
