package rpc

import (
	"fmt"
	"sync"
	"time"
)

import "repro/internal/capability"

// Network is the in-process transport: a registry of service handlers
// keyed by port. It is the default substrate for tests, benchmarks and
// the examples; the TCP transport provides the same semantics between
// processes.
//
// A Network can simulate server crashes (Crash), which unregisters
// every port of a server group so that subsequent transactions fail
// with ErrDeadPort — the signal the lock recovery protocol of §5.3
// relies on.
type Network struct {
	mu       sync.RWMutex
	handlers map[capability.Port]Handler
	groups   map[string][]capability.Port

	statMu sync.Mutex
	stats  NetStats

	metrics *Metrics
}

// NetStats counts traffic through a Network.
type NetStats struct {
	Transactions uint64
	BytesMoved   uint64 // request + reply data bytes
	DeadPort     uint64
}

// NewNetwork creates an empty in-process network.
func NewNetwork() *Network {
	return &Network{
		handlers: make(map[capability.Port]Handler),
		groups:   make(map[string][]capability.Port),
	}
}

// Register installs h as the service on port. The group name ties ports
// to a server process so Crash can take them all down together; an empty
// group is standalone.
func (n *Network) Register(group string, port capability.Port, h Handler) error {
	if port.IsNil() {
		return fmt.Errorf("rpc: cannot register nil port")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[port]; dup {
		return fmt.Errorf("rpc: port %v already registered", port)
	}
	n.handlers[port] = h
	if group != "" {
		n.groups[group] = append(n.groups[group], port)
	}
	return nil
}

// Unregister removes the service on port; future transactions to it fail
// with ErrDeadPort.
func (n *Network) Unregister(port capability.Port) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, port)
}

// Crash unregisters every port registered under group, simulating the
// crash of that server process. Outstanding transactions already
// dispatched to the handler run to completion (the goroutine is already
// inside the server); new ones fail.
func (n *Network) Crash(group string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.groups[group] {
		delete(n.handlers, p)
	}
}

// Alive reports whether any handler is registered on port.
func (n *Network) Alive(port capability.Port) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.handlers[port]
	return ok
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() NetStats {
	n.statMu.Lock()
	defer n.statMu.Unlock()
	return n.stats
}

// SetMetrics installs a caller-side per-command metrics family; every
// Transact observes into it.
func (n *Network) SetMetrics(m *Metrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics = m
}

// Transact implements Transactor.
func (n *Network) Transact(port capability.Port, req *Message) (*Message, error) {
	if len(req.Data) > MaxData {
		return nil, fmt.Errorf("request: %w", ErrTooLarge)
	}
	n.mu.RLock()
	h, ok := n.handlers[port]
	met := n.metrics
	n.mu.RUnlock()
	start := time.Now()
	if !ok {
		met.Observe(req.Command, time.Since(start), StatusOK, true)
		n.statMu.Lock()
		n.stats.DeadPort++
		n.statMu.Unlock()
		return nil, fmt.Errorf("port %v: %w", port, ErrDeadPort)
	}
	resp := h(req)
	if resp == nil {
		resp = req.Reply(StatusBadCommand)
	}
	if len(resp.Data) > MaxData {
		// What a TCP server sends in place of a reply it cannot frame.
		resp = req.Errorf(StatusIO, "reply: %v", ErrTooLarge)
	}
	met.Observe(req.Command, time.Since(start), resp.Status, false)
	n.statMu.Lock()
	n.stats.Transactions++
	n.stats.BytesMoved += uint64(len(req.Data) + len(resp.Data))
	n.statMu.Unlock()
	return resp, nil
}

var _ Transactor = (*Network)(nil)
