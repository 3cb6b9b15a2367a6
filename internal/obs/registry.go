// Package obs is the observability layer of the system: a dependency-free
// metrics registry (counters, gauges, fixed-bucket latency histograms) and
// a span/trace recorder, shared by the MapReduce engine, the G-means
// driver and the serving layer.
//
// Two rules keep it safe on hot paths:
//
//   - Metric handles (Counter, Gauge, Histogram) are looked up once and
//     ticked lock-free (atomics) thereafter. Registry lookups take a lock
//     and belong in Setup-style code, never per record.
//   - Everything is nil-tolerant: a nil *Trace records nothing and a nil
//     *Span ends nothing, so instrumented code pays one pointer test —
//     never an allocation — when observability is off.
//
// The registry exports in Prometheus text format (WritePrometheus); the
// trace exports as a JSON event log and as Chrome chrome://tracing format
// (see trace.go).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored:
// counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (in-flight requests, cache
// sizes, live model generation).
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use a negative delta to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for request/phase
// latencies, in seconds: 100µs to 10s, roughly ×2.5 per step. The fixed
// geometry keeps Observe allocation-free and quantiles cheap.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// MicroLatencyBuckets extend DefLatencyBuckets two decades down, to 1µs,
// for operations that often finish in microseconds (a single in-memory
// assignment): with the default bounds all of them would land in the
// first bucket and every quantile would read about 50µs.
var MicroLatencyBuckets = append([]float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
}, DefLatencyBuckets...)

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value; values above every bound land
// in the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// newHistogram builds a histogram over the given sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small (16 by default) and the scan is
	// branch-predictable; a binary search saves nothing at this size.
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank — the standard fixed-bucket
// estimate, exact only up to bucket resolution. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			inBucket := h.counts[i].Load()
			if inBucket == 0 {
				return b
			}
			// Position of the target rank inside this bucket.
			frac := (rank - float64(cum-inBucket)) / float64(inBucket)
			return lower + frac*(b-lower)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// P50, P95 and P99 are the quantiles phase reports chart.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile estimate.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile estimate.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Registry is a named set of metrics. Lookup methods are get-or-create
// and safe for concurrent use; hot paths hold the returned handle instead
// of re-looking it up. Metric names may carry Prometheus-style labels
// inline — `serve_requests{path="/v1/assign"}` — which WritePrometheus
// folds into the exported sample lines.
type Registry struct {
	mu       sync.RWMutex
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

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil handle, whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefLatencyBuckets). The
// bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// splitName separates an inline-labelled metric name into its family and
// the label list: `a{x="1"}` → ("a", `x="1"`). Names without labels come
// back with an empty label list.
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// sampleLine formats one sample, merging inline labels with extra labels.
func sampleLine(w io.Writer, name string, extra string, value string) {
	family, labels := splitName(name)
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", family, value)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", family, extra, value)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", family, labels, value)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", family, labels, extra, value)
	}
}

// WritePrometheus writes every metric in Prometheus text exposition
// format (version 0.0.4), deterministically ordered: families sorted by
// name, one # TYPE line per family, histograms expanded into cumulative
// _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()

	type series struct {
		name string
		kind string
	}
	families := make(map[string]string) // family → TYPE
	var all []series
	for name := range counters {
		f, _ := splitName(name)
		families[f] = "counter"
		all = append(all, series{name, "counter"})
	}
	for name := range gauges {
		f, _ := splitName(name)
		families[f] = "gauge"
		all = append(all, series{name, "gauge"})
	}
	for name := range hists {
		f, _ := splitName(name)
		families[f] = "histogram"
		all = append(all, series{name, "histogram"})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })

	lastFamily := ""
	for _, s := range all {
		family, _ := splitName(s.name)
		if family != lastFamily {
			fmt.Fprintf(w, "# TYPE %s %s\n", family, families[family])
			lastFamily = family
		}
		switch s.kind {
		case "counter":
			sampleLine(w, s.name, "", fmt.Sprintf("%d", counters[s.name]))
		case "gauge":
			sampleLine(w, s.name, "", fmt.Sprintf("%d", gauges[s.name]))
		case "histogram":
			h := hists[s.name]
			fam, labels := splitName(s.name)
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				sampleLine(w, fam+"_bucket"+wrap(labels), fmt.Sprintf("le=%q", formatBound(b)), fmt.Sprintf("%d", cum))
			}
			cum += h.counts[len(h.bounds)].Load()
			sampleLine(w, fam+"_bucket"+wrap(labels), `le="+Inf"`, fmt.Sprintf("%d", cum))
			sampleLine(w, fam+"_sum"+wrap(labels), "", formatFloat(h.Sum()))
			sampleLine(w, fam+"_count"+wrap(labels), "", fmt.Sprintf("%d", h.Count()))
		}
	}
}

// wrap re-attaches an inline label list to a derived series name.
func wrap(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatBound(b float64) string { return formatFloat(b) }

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
