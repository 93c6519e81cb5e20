// Package obsv is the platform's dependency-free observability core:
// an allocation-conscious metrics registry (atomic counters, gauges,
// fixed-bucket histograms and single-label series variants) plus a
// bounded per-tick trace ring (trace.go) and a Prometheus
// text-exposition writer (prom.go).
//
// Contracts the rest of the repo relies on:
//
//   - Nil safety: every method is a no-op on a nil receiver, and every
//     registry getter on a nil *Registry returns a nil metric. Code can
//     therefore hold metric handles unconditionally and pay nothing
//     (zero extra allocations, a nil check per site) when observability
//     is disabled.
//   - Determinism: counters and histogram observation counts are pure
//     functions of the simulated scenario; only durations (histogram
//     sums/buckets, trace durations) are wall-clock dependent. The
//     platform merges only the deterministic subset (CounterValues)
//     into its Status, which keeps golden digests bit-identical with
//     observability on and off.
//   - Bounded cardinality: labeled series fold into the OverflowLabel
//     series once a family reaches the registry's series cap, so a
//     hostile or runaway label set cannot grow memory without bound.
package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultSeriesCap is the default per-family label cardinality bound.
const DefaultSeriesCap = 64

// OverflowLabel is the label value that absorbs series created beyond
// the cardinality cap.
const OverflowLabel = "other"

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n and returns the new total. No-op
// returning 0 on a nil receiver.
func (c *Counter) Add(n uint64) uint64 {
	if c == nil {
		return 0
	}
	return c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically set float64 level.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by d. No-op on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind discriminates registry families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: either a single unlabeled metric
// or a labeled series set (one label key, bounded cardinality).
type family struct {
	name, help string
	kind       metricKind
	label      string // "" for unlabeled families

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	hvec    *HistogramVec
}

// Registry is the metric namespace. The zero value is not usable; call
// NewRegistry. A nil *Registry is a fully functional no-op registry.
type Registry struct {
	mu        sync.Mutex
	fams      map[string]*family
	order     []string // registration order kept for conflict checks only
	seriesCap int
	trace     atomic.Pointer[TraceRing]
}

// NewRegistry returns an empty registry with the default series cap.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), seriesCap: DefaultSeriesCap}
}

// SetSeriesCap bounds the label cardinality of vec families created
// after the call. Values < 1 are clamped to 1.
func (r *Registry) SetSeriesCap(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.seriesCap = n
	r.mu.Unlock()
}

// SetTrace installs the trace ring returned by Trace.
func (r *Registry) SetTrace(t *TraceRing) {
	if r != nil {
		r.trace.Store(t)
	}
}

// Trace returns the installed trace ring (nil when absent or on a nil
// registry).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.trace.Load()
}

// lookup fetches or creates a family. A name already registered with a
// different kind or label key yields ok=false: the caller returns a
// nil metric, which degrades to a silent no-op instead of panicking
// inside an instrumented hot path.
func (r *Registry) lookup(name, help string, kind metricKind, label string) (*family, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, exists := r.fams[name]
	if exists {
		if f.kind != kind || f.label != label {
			return nil, false
		}
		return f, true
	}
	f = &family{name: name, help: help, kind: kind, label: label}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f, true
}

// Counter returns the named unlabeled counter, creating it on first
// use. Returns nil on a nil registry or on a name/kind conflict.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f, ok := r.lookup(name, help, kindCounter, "")
	if !ok {
		return nil
	}
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f, ok := r.lookup(name, help, kindGauge, "")
	if !ok {
		return nil
	}
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// Histogram returns the named unlabeled histogram over the given
// ascending bucket upper bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f, ok := r.lookup(name, help, kindHistogram, "")
	if !ok {
		return nil
	}
	if f.hist == nil {
		f.hist = newHistogram(bounds)
	}
	return f.hist
}

// CounterVec returns the named single-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil || label == "" {
		return nil
	}
	f, ok := r.lookup(name, help, kindCounter, label)
	if !ok {
		return nil
	}
	if f.cvec == nil {
		f.cvec = &CounterVec{series: make(map[string]*Counter), cap: r.seriesCap}
	}
	return f.cvec
}

// HistogramVec returns the named single-label histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if r == nil || label == "" {
		return nil
	}
	f, ok := r.lookup(name, help, kindHistogram, label)
	if !ok {
		return nil
	}
	if f.hvec == nil {
		f.hvec = &HistogramVec{
			series: make(map[string]*Histogram),
			cap:    r.seriesCap,
			bounds: normalizeBounds(bounds),
		}
	}
	return f.hvec
}

// CounterSample is one counter series value in a snapshot.
type CounterSample struct {
	Name  string
	Label string // label key ("" for unlabeled)
	Value string // label value ("" for unlabeled)
	Count uint64
}

// GaugeSample is one gauge value in a snapshot.
type GaugeSample struct {
	Name  string
	Level float64
}

// HistogramSample is one histogram series in a snapshot.
type HistogramSample struct {
	Name   string
	Label  string
	Value  string
	Count  uint64
	Sum    float64
	Bounds []float64 // ascending finite upper bounds
	Counts []uint64  // len(Bounds)+1; last is the +Inf bucket
}

// Snapshot is a point-in-time copy of every registered series, sorted
// by (name, label value) for deterministic iteration.
type Snapshot struct {
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistogramSample
}

// Snapshot copies the registry. Safe for concurrent use with writers;
// an empty snapshot is returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		switch f.kind {
		case kindCounter:
			if f.counter != nil {
				s.Counters = append(s.Counters, CounterSample{Name: f.name, Count: f.counter.Value()})
			}
			if f.cvec != nil {
				for _, lv := range f.cvec.labels() {
					s.Counters = append(s.Counters, CounterSample{
						Name: f.name, Label: f.label, Value: lv,
						Count: f.cvec.With(lv).Value(),
					})
				}
			}
		case kindGauge:
			if f.gauge != nil {
				s.Gauges = append(s.Gauges, GaugeSample{Name: f.name, Level: f.gauge.Value()})
			}
		case kindHistogram:
			if f.hist != nil {
				s.Histograms = append(s.Histograms, f.hist.sample(f.name, "", ""))
			}
			if f.hvec != nil {
				for _, lv := range f.hvec.labels() {
					s.Histograms = append(s.Histograms, f.hvec.With(lv).sample(f.name, f.label, lv))
				}
			}
		}
	}
	return s
}

// Help returns the registered help string for name ("" when unknown).
func (r *Registry) Help(name string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		return f.help
	}
	return ""
}

// CounterValues flattens the deterministic subset of the registry —
// every counter series plus every histogram observation count — into a
// map keyed "name" or `name{label="value"}` (histogram counts take a
// "_count" suffix). This is the view the platform merges into Status:
// under a fixed scenario every entry is a pure function of the
// simulation, never of wall-clock timing, so golden digests stay
// bit-identical with observability on.
func (r *Registry) CounterValues() map[string]uint64 {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	out := make(map[string]uint64, len(s.Counters)+len(s.Histograms))
	for _, c := range s.Counters {
		out[seriesKey(c.Name, c.Label, c.Value)] = c.Count
	}
	for _, h := range s.Histograms {
		out[seriesKey(h.Name+"_count", h.Label, h.Value)] = h.Count
	}
	return out
}

// seriesKey formats a flat series identifier.
func seriesKey(name, label, value string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + `="` + value + `"}`
}
