package metrics

import (
	"io"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// Registry is the one registration path for a process's
// instrumentation. Each layer registers a collector once, next to the
// counters it reads; the registry renders GET /metrics and the shutdown
// "totals" log from the same registrations, so the two can never
// disagree about what exists. Collectors run only on a scrape or at
// shutdown, never on the data path. A nil *Registry ignores
// registrations.
type Registry struct {
	mu   sync.Mutex
	regs []registration
}

type registration struct {
	layer   string
	labels  []string
	collect func(*Emitter)
}

// Register adds a collector under a layer name — the vocabulary the
// span tracer uses (rpc, server, occ, ftab, block, shard, mirror,
// segstore, archive). labels are constant key, value pairs appended to
// every sample the collector emits (afs-block labels each served store
// with its shard).
func (r *Registry) Register(layer string, collect func(*Emitter), labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regs = append(r.regs, registration{layer: layer, labels: labels, collect: collect})
}

// Emitter receives one scrape's samples from a collector.
type Emitter struct {
	layer    string
	labels   []string
	byName   map[string]*family
	families []*family
}

type family struct {
	name, typ, help, layer string
	samples                []sample
}

type sample struct {
	labels []string // key, value pairs in the collector's order
	value  float64
	hist   *HistogramSnapshot // set for histogram samples
}

func (e *Emitter) add(name, typ, help string, s sample, labels []string) {
	f := e.byName[name]
	if f == nil {
		f = &family{name: name, typ: typ, help: help, layer: e.layer}
		e.byName[name] = f
		e.families = append(e.families, f)
	}
	s.labels = append(append([]string(nil), labels...), e.labels...)
	f.samples = append(f.samples, s)
}

// Counter emits one sample of a counter family; labels are key, value
// pairs. The first emission of a family fixes its help text.
func (e *Emitter) Counter(name, help string, v float64, labels ...string) {
	e.add(name, "counter", help, sample{value: v}, labels)
}

// Counters emits one counter sample per map entry, the entry's name as
// the value of label key, in name order.
func (e *Emitter) Counters(name, help, key string, byName map[string]uint64, labels ...string) {
	for _, n := range slices.Sorted(maps.Keys(byName)) {
		e.Counter(name, help, float64(byName[n]), append([]string{key, n}, labels...)...)
	}
}

// Gauge emits one sample of a gauge family.
func (e *Emitter) Gauge(name, help string, v float64, labels ...string) {
	e.add(name, "gauge", help, sample{value: v}, labels)
}

// Histogram emits one histogram of a histogram family.
func (e *Emitter) Histogram(name, help string, s HistogramSnapshot, labels ...string) {
	e.add(name, "histogram", help, sample{hist: &s}, labels)
}

// gather runs every collector and groups the samples by family, in
// first-registered order: several registrations may feed one family
// (each served shard's segment log, both sides of the RPC wire).
func (r *Registry) gather() []*family {
	r.mu.Lock()
	regs := append([]registration(nil), r.regs...)
	r.mu.Unlock()
	e := &Emitter{byName: make(map[string]*family)}
	for _, reg := range regs {
		e.layer, e.labels = reg.layer, reg.labels
		reg.collect(e)
	}
	return e.families
}

func labelMap(pairs []string) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

// WriteProm renders every registered family in Prometheus text
// exposition format.
func (r *Registry) WriteProm(w io.Writer) {
	for _, f := range r.gather() {
		WriteHelp(w, f.name, f.typ, f.help)
		for _, s := range f.samples {
			if s.hist != nil {
				s.hist.Write(w, f.name, labelMap(s.labels))
			} else {
				WriteSample(w, f.name, labelMap(s.labels), s.value)
			}
		}
	}
}

// ServeHTTP serves WriteProm: mount the registry on /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.WriteProm(w)
}

// LogTotals writes the shutdown dump: one line per family, every sample
// an attribute keyed by its label values (histograms by count and sum).
func (r *Registry) LogTotals(log *slog.Logger) {
	for _, f := range r.gather() {
		args := []any{"component", f.layer, "family", f.name}
		for _, s := range f.samples {
			var vals []string
			for i := 1; i < len(s.labels); i += 2 {
				vals = append(vals, s.labels[i])
			}
			key := strings.Join(vals, ".")
			switch {
			case s.hist != nil:
				args = append(args, strings.TrimPrefix(key+".count", "."), s.hist.Count,
					strings.TrimPrefix(key+".sum", "."), s.hist.SumSeconds)
			case key == "":
				args = append(args, "value", s.value)
			default:
				args = append(args, key, s.value)
			}
		}
		log.Info("totals", args...)
	}
}
