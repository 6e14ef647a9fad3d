// Package metrics is the reproduction's unified observability layer: a
// dependency-free, allocation-conscious metrics registry shared by the
// engines (internal/engine), the aggregate timing model (internal/sim),
// the cycle-level simulator (internal/uarch), and the fault-tolerant
// evaluator (mega.EvaluateRecover).
//
// Three instrument kinds are provided:
//
//   - Counter: a monotonically increasing atomic int64 (events processed,
//     cache hits, DRAM bytes per component).
//   - Gauge: an atomic int64 that may move both ways (resident bytes,
//     partitions, queued and running queries).
//   - Histogram: fixed power-of-two buckets over int64 observations
//     (per-op cycles, queue wait and run time) — no allocation per Observe.
//
// Instruments belong to labeled families: Counter("dram_bytes",
// "component", "spill") and Counter("dram_bytes", "component", "swap")
// are two members of one family. Lookup allocates (a map key is built);
// the intended pattern is to resolve instruments once and hold the
// pointers on the hot path, which is what every instrumented layer here
// does.
//
// The registry also carries named invariant audits (see audit.go): the
// conservation laws each layer must satisfy, checked at op and run
// boundaries and exported alongside the metric values in JSON snapshots.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). 64 buckets cover the whole non-negative int64 range.
const histBuckets = 64

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored — counters are
// monotone by contract).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that may move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates int64 observations into fixed power-of-two
// buckets. Observe is lock-free and allocation-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation. Negative observations clamp to zero
// (bucket 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound on the q-quantile of the recorded
// observations: the upper edge of the power-of-two bucket the quantile
// falls in (bucket i holds v with bits.Len64(v) == i, i.e. v < 2^i).
// The bound is at most 2× the true quantile — good enough for backlog
// estimates like serve.RetryAfterHint, where the histogram's zero
// allocation on the hot path matters more than sub-bucket precision.
// An empty histogram returns 0. q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total-1)) // 0-based rank of the quantile observation
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return int64(1) << i
		}
	}
	return math.MaxInt64
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry holds one run's instruments and audits. The zero value is not
// usable; construct with New. Instrument lookup takes a mutex (and builds
// a map key); Add/Set/Observe on a resolved instrument are atomic ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	keys       map[string]metricKey // interned name+labels per map key
	audits     []namedAudit
	results    []AuditResult
}

// metricKey remembers an instrument's name and label pairs for snapshots.
type metricKey struct {
	name   string
	labels []string // alternating key, value
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		keys:       make(map[string]metricKey),
	}
}

// mapKey builds the registry key "name|k1=v1|k2=v2". Labels are used in
// the given order; instrument resolution is not label-order-insensitive
// (resolve once, hold the pointer).
func mapKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		b.WriteByte('|')
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	return b.String()
}

func (r *Registry) intern(k, name string, labels []string) {
	if _, ok := r.keys[k]; !ok {
		r.keys[k] = metricKey{name: name, labels: append([]string(nil), labels...)}
	}
}

// Counter returns the counter of the named family with the given label
// pairs (alternating key, value), creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := mapKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.intern(k, name, labels)
	}
	return c
}

// Gauge returns the gauge of the named family with the given label pairs,
// creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := mapKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.intern(k, name, labels)
	}
	return g
}

// Histogram returns the histogram of the named family with the given
// label pairs, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := mapKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		h = &Histogram{}
		r.histograms[k] = h
		r.intern(k, name, labels)
	}
	return h
}

// MetricPoint is one instrument's snapshot value.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramPoint is one histogram's snapshot: count, sum, and the
// non-empty power-of-two buckets (Buckets[i] counts observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i)).
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets map[int]int64     `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   []MetricPoint    `json:"counters"`
	Gauges     []MetricPoint    `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Audits     []AuditResult    `json:"audits,omitempty"`
}

func labelMap(k metricKey) map[string]string {
	if len(k.labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(k.labels)/2)
	for i := 0; i+1 < len(k.labels); i += 2 {
		m[k.labels[i]] = k.labels[i+1]
	}
	return m
}

// Snapshot captures the registry's current state: every instrument's
// value plus the outcome of every registered audit, deterministically
// ordered by name and labels.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	counterKeys := sortedKeys(r.counters)
	gaugeKeys := sortedKeys(r.gauges)
	histKeys := sortedKeys(r.histograms)
	s := &Snapshot{}
	for _, k := range counterKeys {
		s.Counters = append(s.Counters, MetricPoint{
			Name: r.keys[k].name, Labels: labelMap(r.keys[k]), Value: r.counters[k].Value(),
		})
	}
	for _, k := range gaugeKeys {
		s.Gauges = append(s.Gauges, MetricPoint{
			Name: r.keys[k].name, Labels: labelMap(r.keys[k]), Value: r.gauges[k].Value(),
		})
	}
	for _, k := range histKeys {
		h := r.histograms[k]
		hp := HistogramPoint{
			Name: r.keys[k].name, Labels: labelMap(r.keys[k]),
			Count: h.Count(), Sum: h.Sum(),
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				if hp.Buckets == nil {
					hp.Buckets = make(map[int]int64)
				}
				hp.Buckets[i] = n
			}
		}
		s.Histograms = append(s.Histograms, hp)
	}
	audits := append([]namedAudit(nil), r.audits...)
	s.Audits = append(s.Audits, r.results...)
	r.mu.Unlock()

	// Registered audit functions run outside the lock: they may read the
	// registry's own instruments.
	for _, a := range audits {
		s.Audits = append(s.Audits, runAudit(a))
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
