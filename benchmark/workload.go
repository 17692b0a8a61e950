package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
)

// Clients is the closed-loop client count: one goroutine and one TCP
// connection each, client i homed on peer i. The box has two CPUs and a
// file-service caller waits for its reply, so two is the honest load.
const Clients = 2

// PageBytes is the user payload of every page the benchmark writes: a
// 4 KiB block minus room for the page header and reference table.
const PageBytes = 4000

// maxAttempts bounds the redo loop of one transaction; exhausting it is
// a failed operation.
const maxAttempts = 16

// OpKind selects the transaction shape.
type OpKind uint8

const (
	// OpRMW reads Pages, rewrites each with its counter plus one and
	// commits; a serialisability conflict redoes the whole transaction.
	OpRMW OpKind = iota
	// OpRead reads Pages and aborts (one cache validation per open).
	OpRead
	// OpBulk rewrites every page of the file blindly and commits.
	OpBulk
)

func (k OpKind) String() string {
	return [...]string{"rmw", "read", "bulk"}[k]
}

// Op is one generated operation: the daemons only ever see the requests
// it turns into.
type Op struct {
	Kind  OpKind
	File  int
	Pages []int
}

func (o Op) String() string { return fmt.Sprintf("%s f%d %v", o.Kind, o.File, o.Pages) }

// Spec is one workload's parameters. The one-line reason each exists is
// recorded next to it in BENCHMARK.json.
type Spec struct {
	Name string
	// Files is the file population; Pages the child pages per file.
	Files, Pages int
	// Shared lets every client pick any file; otherwise file f belongs
	// to client f % Clients and nothing is ever contended.
	Shared bool
	// Zipf, when positive, skews the file choice (exponent s).
	Zipf float64
	// ReadPages is how many pages an OpRead reads and an OpRMW reads
	// and rewrites. An OpRMW rewrites every page it read: a page that a
	// committed version copied but did not write makes the collector's
	// reshare pass rewrite the current version page outside the commit
	// critical section, which can erase a concurrent commit reference
	// and lose acknowledged commits (seen on a shared file with -gc on;
	// see README, Known limits). The benchmark measures; it must not
	// trip a correctness race on every tenth run.
	ReadPages int
	// ReadFrac is the share of OpRead operations.
	ReadFrac float64
	// Bulk makes every operation an OpBulk.
	Bulk bool
	// LatencyKind is the operation kind the latency percentiles are
	// taken over (the dominant kind of the mix).
	LatencyKind OpKind

	// The traced run's single driver: Interleave runs the two clients'
	// transactions as one interleaved step (the shared-file workload, so
	// the conflict path is taken by construction, not by timing);
	// TraceRate is the nominal single-driver transactions per second
	// that turns --seconds into a fixed operation count; TraceGCEvery
	// is how many driver steps separate two collector cycles (about the
	// daemons' -gc=5s at that rate).
	Interleave   bool
	TraceRate    float64
	TraceGCEvery int
}

// Specs lists the workloads in reporting order.
var Specs = []Spec{
	{Name: "commit_small", Files: 128, Pages: 16, ReadPages: 1, LatencyKind: OpRMW, TraceRate: 90, TraceGCEvery: 256},
	{Name: "commit_hot", Files: 1, Pages: 8, Shared: true, ReadPages: 2, LatencyKind: OpRMW, Interleave: true, TraceRate: 60, TraceGCEvery: 128},
	{Name: "read_mostly", Files: 64, Pages: 32, Shared: true, Zipf: 1.1, ReadPages: 8, ReadFrac: 0.9, LatencyKind: OpRead, TraceRate: 40, TraceGCEvery: 128},
	{Name: "bulk_write", Files: 8, Pages: 64, Bulk: true, LatencyKind: OpBulk, TraceRate: 5, TraceGCEvery: 16},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Gen is one client's seeded operation stream. The same (seed, workload,
// client) always yields the same sequence.
type Gen struct {
	spec   Spec
	client int
	rng    *rand.Rand
	own    []int     // files this client may pick
	cdf    []float64 // zipf cumulative weights over own, nil when uniform
}

// NewGen builds client's stream for spec under seed.
func NewGen(spec Spec, seed uint64, client int) *Gen {
	g := &Gen{spec: spec, client: client}
	// The workload name is folded into the stream id so two workloads
	// never replay each other's choices under one seed.
	stream := uint64(crc32.ChecksumIEEE([]byte(spec.Name)))<<8 | uint64(client)
	g.rng = rand.New(rand.NewPCG(seed, stream))
	for f := 0; f < spec.Files; f++ {
		if spec.Shared || f%Clients == client {
			g.own = append(g.own, f)
		}
	}
	if spec.Zipf > 0 {
		sum := 0.0
		g.cdf = make([]float64, len(g.own))
		for i := range g.own {
			sum += 1 / math.Pow(float64(i+1), spec.Zipf)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

func (g *Gen) pickFile() int {
	if g.cdf == nil {
		return g.own[g.rng.IntN(len(g.own))]
	}
	u := g.rng.Float64()
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.own[lo]
}

// distinctPages draws n distinct page indices in draw order.
func (g *Gen) distinctPages(n int) []int {
	if n > g.spec.Pages {
		n = g.spec.Pages
	}
	out := make([]int, 0, n)
	for len(out) < n {
		p := g.rng.IntN(g.spec.Pages)
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// Next returns the client's next operation.
func (g *Gen) Next() Op {
	f := g.pickFile()
	switch {
	case g.spec.Bulk:
		return Op{Kind: OpBulk, File: f}
	case g.spec.ReadFrac > 0 && g.rng.Float64() < g.spec.ReadFrac:
		return Op{Kind: OpRead, File: f, Pages: g.distinctPages(g.spec.ReadPages)}
	case g.spec.ReadFrac > 0:
		return Op{Kind: OpRMW, File: f, Pages: g.distinctPages(1)}
	default:
		return Op{Kind: OpRMW, File: f, Pages: g.distinctPages(g.spec.ReadPages)}
	}
}

// Page payload layout: every written page says which file and page it
// is, who wrote it and how many acknowledged commits have rewritten it,
// followed by filler derived from those fields and a checksum over the
// lot, so a misplaced, stale or torn page cannot verify.
const (
	payloadMagic  = 0xAF5B0011
	payloadHeader = 4 + 4 + 4 + 4 + 8
)

// Payload is the decoded header of a page.
type Payload struct {
	File, Page, Client uint32
	Counter            uint64
}

// EncodePayload renders the PageBytes-long page for p.
func EncodePayload(p Payload) []byte {
	b := make([]byte, PageBytes)
	binary.BigEndian.PutUint32(b[0:], payloadMagic)
	binary.BigEndian.PutUint32(b[4:], p.File)
	binary.BigEndian.PutUint32(b[8:], p.Page)
	binary.BigEndian.PutUint32(b[12:], p.Client)
	binary.BigEndian.PutUint64(b[16:], p.Counter)
	// xorshift filler: cheap, incompressible enough, and a function of
	// the header so verification needs no stored copy.
	x := uint64(p.File)<<40 ^ uint64(p.Page)<<20 ^ p.Counter ^ 0x9E3779B97F4A7C15
	for i := payloadHeader; i+8 <= PageBytes-4; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	binary.BigEndian.PutUint32(b[PageBytes-4:], crc32.ChecksumIEEE(b[:PageBytes-4]))
	return b
}

// DecodePayload checks length, magic and checksum and returns the header.
func DecodePayload(b []byte) (Payload, error) {
	if len(b) != PageBytes {
		return Payload{}, fmt.Errorf("page is %d bytes, want %d", len(b), PageBytes)
	}
	if binary.BigEndian.Uint32(b[0:]) != payloadMagic {
		return Payload{}, fmt.Errorf("bad page magic %#x", binary.BigEndian.Uint32(b[0:]))
	}
	if got, want := crc32.ChecksumIEEE(b[:PageBytes-4]), binary.BigEndian.Uint32(b[PageBytes-4:]); got != want {
		return Payload{}, fmt.Errorf("page checksum %#x, stored %#x", got, want)
	}
	return Payload{
		File:    binary.BigEndian.Uint32(b[4:]),
		Page:    binary.BigEndian.Uint32(b[8:]),
		Client:  binary.BigEndian.Uint32(b[12:]),
		Counter: binary.BigEndian.Uint64(b[16:]),
	}, nil
}
