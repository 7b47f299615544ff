// Package telemetry is the tracer's self-metrics core: the runtime health
// of Pivot Tracing itself (agent report cadence, bus queue depth, baggage
// growth, weave latency) measured with the same discipline the tracer
// applies to the monitored system — near-zero cost when nobody is looking.
//
// The package is stdlib-only and dependency-free so every layer of the
// tracer (tracepoint, baggage, bus, agent, core) can import it. Hot paths
// are allocation-free: counters and gauges are single atomics, histograms
// are lock-striped arrays of atomic buckets with fixed log-scale (power of
// two) boundaries. A Registry names the metrics of one runtime and exports
// point-in-time Snapshots that subtract (Delta) and render as aligned
// text tables — the data behind core.PivotTracing.Status and cmd/ptstat.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (queue depth, connection count).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the number of histogram buckets. Bucket 0 holds values
// <= 0; bucket i (1..64) holds values whose bit length is i, i.e. the
// half-open log-scale range [2^(i-1), 2^i).
const NumBuckets = 65

const (
	numStripes = 8
	// fibMix spreads observations across stripes (Fibonacci hashing) so
	// concurrent writers of different values rarely share a cache line.
	fibMix = 0x9E3779B97F4A7C15
)

// BucketOf returns the bucket index a value falls into.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the largest value bucket i can hold.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// histStripe is one shard of a histogram. Each stripe spans several cache
// lines, so distinct stripes do not false-share.
type histStripe struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Histogram is a lock-free, lock-striped histogram with fixed log-scale
// buckets. Observe is three atomic adds and never allocates.
type Histogram struct {
	stripes [numStripes]histStripe
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	s := &h.stripes[(uint64(v)*fibMix)>>(64-3)]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[BucketOf(v)].Add(1)
}

// HistValue is a point-in-time histogram snapshot.
type HistValue struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// snapshot folds all stripes.
func (h *Histogram) snapshot() HistValue {
	var out HistValue
	for i := range h.stripes {
		s := &h.stripes[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	return out
}

// Mean returns the mean observed value (0 if empty).
func (v HistValue) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (0 <= q <= 1). The log-scale buckets make this an
// upper estimate within 2x of the true value.
func (v HistValue) Quantile(q float64) int64 {
	if v.Count == 0 {
		return 0
	}
	rank := int64(q * float64(v.Count-1))
	var seen int64
	for i, n := range v.Buckets {
		seen += n
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket.
func (v HistValue) Max() int64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if v.Buckets[i] > 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Sub returns the histogram delta v - prev (observations since prev).
func (v HistValue) Sub(prev HistValue) HistValue {
	out := HistValue{Count: v.Count - prev.Count, Sum: v.Sum - prev.Sum}
	for i := range v.Buckets {
		out.Buckets[i] = v.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// Registry names the metrics of one tracer runtime. Metric constructors
// are get-or-create, so independent instrumentation sites naming the same
// metric share it; call sites cache the returned pointer and pay no lookup
// on the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// AddCounter exports a counter its owner already keeps under name,
// replacing any counter of that name, so a component that counts without
// a registry needs no second copy of its counters once one is attached.
func (r *Registry) AddCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// AddGauge is AddCounter for a gauge.
func (r *Registry) AddGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a named point-in-time export of a registry.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistValue
}

// Snapshot exports every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{name, c})
	}
	gauges := make([]struct {
		name string
		g    *Gauge
	}, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, struct {
			name string
			g    *Gauge
		}{name, g})
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{name, h})
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
		Hists:    make(map[string]HistValue, len(hists)),
	}
	for _, e := range counters {
		s.Counters[e.name] = e.c.Load()
	}
	for _, e := range gauges {
		s.Gauges[e.name] = e.g.Load()
	}
	for _, e := range hists {
		s.Hists[e.name] = e.h.snapshot()
	}
	return s
}

// Delta returns the change since prev: counters and histograms subtract,
// gauges keep their current (instantaneous) value. Metrics absent from
// prev are treated as starting at zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistValue, len(s.Hists)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range s.Hists {
		out.Hists[name] = v.Sub(prev.Hists[name])
	}
	return out
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Hists) == 0
}

// Render formats the snapshot as aligned text tables: one for scalar
// metrics (counters and gauges, merged and sorted by name), one for
// histograms (count, mean, p50, p99, max).
func (s Snapshot) Render() string {
	var b strings.Builder
	type row struct{ name, val string }
	rows := make([]row, 0, len(s.Counters)+len(s.Gauges))
	for name, v := range s.Counters {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	if len(rows) > 0 {
		w := len("metric")
		for _, r := range rows {
			if len(r.name) > w {
				w = len(r.name)
			}
		}
		fmt.Fprintf(&b, "%-*s  %12s\n", w, "metric", "value")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-*s  %12s\n", w, r.name, r.val)
		}
	}
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		w := len("histogram")
		for _, name := range names {
			if len(name) > w {
				w = len(name)
			}
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-*s  %9s  %12s  %12s  %12s  %12s\n",
			w, "histogram", "count", "mean", "p50", "p99", "max")
		for _, name := range names {
			h := s.Hists[name]
			fmt.Fprintf(&b, "%-*s  %9d  %12.1f  %12d  %12d  %12d\n",
				w, name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
		}
	}
	return b.String()
}
