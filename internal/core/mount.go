package core

import (
	"fmt"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stable"
)

// Endpoint is one served port at a transport address: the PORT@ADDR
// form both daemons print on stdout and consume in their mount flags.
type Endpoint struct {
	Port capability.Port
	Addr string
}

func (e Endpoint) String() string { return e.Port.String() + "@" + e.Addr }

// ParseEndpoint parses PORT@ADDR; the port must parse strictly.
func ParseEndpoint(s string) (Endpoint, error) {
	port, addr, ok := strings.Cut(s, "@")
	if !ok {
		return Endpoint{}, fmt.Errorf("endpoint %q: want PORT@ADDR", s)
	}
	p, err := capability.ParsePort(port)
	if err != nil {
		return Endpoint{}, fmt.Errorf("endpoint %q: %w", s, err)
	}
	return Endpoint{Port: p, Addr: addr}, nil
}

// ParseMounts parses a comma-separated mount list whose every element
// joins exactly width endpoints with "+": width 1 is a plain endpoint
// list (-blocks, -servers), width 2 a list of companion pairs
// (-mirror). The element order is the shard placement order.
func ParseMounts(list string, width int) ([][]Endpoint, error) {
	var out [][]Endpoint
	for _, m := range strings.Split(list, ",") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		parts := strings.Split(m, "+")
		if len(parts) != width {
			return nil, fmt.Errorf("mount %q: want %d endpoint(s) joined by +", m, width)
		}
		eps := make([]Endpoint, width)
		for i, p := range parts {
			var err error
			if eps[i], err = ParseEndpoint(strings.TrimSpace(p)); err != nil {
				return nil, err
			}
		}
		out = append(out, eps)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mount list %q names no endpoints", list)
	}
	return out, nil
}

// Dialer opens one client-side transport to the given endpoints: one
// connection pool, so each mount dials its own and shard fan-out runs
// in parallel.
type Dialer func(eps ...Endpoint) rpc.Transactor

// TCPDialer dials over TCP with a fail-fast retry policy — a dead
// machine must flip a mirror to outage mode, fail a shard leg or mark a
// table peer down promptly instead of stalling callers on transport
// retries — observing every call into m (nil: unobserved).
func TCPDialer(m *rpc.Metrics) Dialer {
	return func(eps ...Endpoint) rpc.Transactor {
		res := rpc.NewResolver()
		for _, ep := range eps {
			res.Set(ep.Port, ep.Addr)
		}
		cli := rpc.NewTCPClient(res)
		cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2})
		cli.SetMetrics(m)
		return cli
	}
}

// Mount dials a parsed mount list and composes it into one store: a
// single remote block service, a §4 companion pair of two, or — with
// several elements — the sharded facade over either. The shard and
// mirror layers it builds register their collectors with reg; the pairs
// are returned for the heal loop.
func Mount(mounts [][]Endpoint, dial Dialer, reg *metrics.Registry) (block.Store, []*stable.Pair, error) {
	stores := make([]block.Store, len(mounts))
	var pairs []*stable.Pair
	for i, eps := range mounts {
		if len(eps) == 1 {
			st, err := block.Dial(dial(eps[0]), eps[0].Port)
			if err != nil {
				return nil, nil, fmt.Errorf("mount %s: %w", eps[0], err)
			}
			stores[i] = st
			continue
		}
		p, err := mountPair(eps, dial)
		if err != nil {
			return nil, nil, err
		}
		warnStale(p, "pair", i)
		reg.Register("mirror", p.Collect, "pair", strconv.Itoa(i))
		stores[i] = p
		pairs = append(pairs, p)
	}
	if len(stores) == 1 {
		return stores[0], pairs, nil
	}
	facade, err := shard.New(stores...)
	if err != nil {
		return nil, nil, err
	}
	reg.Register("shard", facade.Collect)
	return facade, pairs, nil
}

// mountPair joins two endpoints as a companion pair. One unreachable
// half does not block the mount — that is the situation the mirror
// exists for: the pair comes up degraded with that half held down
// (block size assumed from its companion) until a heal pass reaches it.
// Only a pair with both halves unreachable fails.
func mountPair(eps []Endpoint, dial Dialer) (*stable.Pair, error) {
	var halves [2]block.PairStore
	var errs [2]error
	for i, ep := range eps {
		var st block.Store
		if st, errs[i] = block.Dial(dial(ep), ep.Port); errs[i] != nil {
			continue
		}
		ps, ok := st.(block.PairStore)
		if !ok {
			return nil, fmt.Errorf("mount %s: store does not serve the pair operations", ep)
		}
		halves[i] = ps
	}
	if errs[0] != nil && errs[1] != nil {
		return nil, fmt.Errorf("mirror %s+%s: both halves unreachable: %v; %v", eps[0], eps[1], errs[0], errs[1])
	}
	for i, ep := range eps {
		if errs[i] != nil {
			halves[i] = block.Remote(dial(ep), ep.Port, halves[1-i].BlockSize()).(block.PairStore)
		}
	}
	if a, b := halves[0].BlockSize(), halves[1].BlockSize(); a != b {
		return nil, fmt.Errorf("mirror %s+%s: halves disagree on block size (%d vs %d)", eps[0], eps[1], a, b)
	}
	p := stable.NewFailoverPair(halves[0], halves[1])
	a, b := p.Halves()
	for i, h := range []*stable.Half{a, b} {
		if errs[i] != nil {
			// Stale, not merely crashed: this process never saw the
			// outage begin, so the rejoin must restore the half by full
			// copy, never by intentions replay.
			h.MarkStale()
			slog.Warn("mirror half unreachable; mounted degraded, a heal pass rejoins it by full copy",
				"component", "mirror", "half", h.Name(), "mount", eps[i].String(), "err", errs[i])
		}
	}
	return p, nil
}
