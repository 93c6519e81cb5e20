package obsv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety proves the disabled-observability contract: every
// operation on nil receivers is a no-op that returns zero values.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.SetSeriesCap(8) // must not panic
	if c := r.Counter("c", ""); c != nil {
		t.Error("nil registry must return nil counter")
	}
	if g := r.Gauge("g", ""); g != nil {
		t.Error("nil registry must return nil gauge")
	}
	if h := r.Histogram("h", "", nil); h != nil {
		t.Error("nil registry must return nil histogram")
	}
	if v := r.CounterVec("cv", "", "l"); v != nil {
		t.Error("nil registry must return nil counter vec")
	}
	if v := r.HistogramVec("hv", "", "l", nil); v != nil {
		t.Error("nil registry must return nil histogram vec")
	}
	if r.Trace() != nil || r.Help("x") != "" || r.CounterValues() != nil {
		t.Error("nil registry accessors must return zero values")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}

	var c *Counter
	if c.Add(3) != 0 {
		t.Error("nil counter Add must return zero")
	}
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter must stay zero")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Error("nil gauge must stay zero")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram must stay zero")
	}
	var cv *CounterVec
	cv.With("x").Inc()
	if cv.Len() != 0 {
		t.Error("nil counter vec must be empty")
	}
	var hv *HistogramVec
	hv.With("x").Observe(1)
	if hv.Len() != 0 {
		t.Error("nil histogram vec must be empty")
	}
	var tr *TraceRing
	tr.Record(TraceEvent{})
	if tr.Capacity() != 0 || tr.Total() != 0 || tr.Snapshot() != nil {
		t.Error("nil trace ring must be inert")
	}
	var sink strings.Builder
	if err := r.WritePrometheus(&sink); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
	if sink.Len() != 0 {
		t.Errorf("nil registry exposition must be empty, got %q", sink.String())
	}
}

// TestCounterGaugeConcurrency hammers one counter and one gauge from
// many goroutines; with -race this is also the data-race check.
func TestCounterGaugeConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	g := r.Gauge("level", "level")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if got := c.Add(5); got != workers*per+5 {
		t.Errorf("Add returned %d, want the new total %d", got, workers*per+5)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge set = %v, want -2.5", g.Value())
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal
// to a bound lands in that bound's bucket; values above every bound
// land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		want   []uint64 // per-bucket counts, last is +Inf
	}{
		{"exact-bounds", []float64{1, 2, 4}, []float64{1, 2, 4}, []uint64{1, 1, 1, 0}},
		{"just-above", []float64{1, 2, 4}, []float64{1.0001, 2.0001, 4.0001}, []uint64{0, 1, 1, 1}},
		{"below-first", []float64{1, 2}, []float64{-5, 0, 0.5}, []uint64{3, 0, 0}},
		{"all-overflow", []float64{1}, []float64{2, 3, 100}, []uint64{0, 3}},
		{"no-bounds", nil, []float64{1, 2}, []uint64{2}},
		{"unsorted-dup-input", []float64{4, 1, 4, 2}, []float64{1, 3, 9}, []uint64{1, 0, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds)
			var sum float64
			for _, v := range tc.obs {
				h.Observe(v)
				sum += v
			}
			if h.Count() != uint64(len(tc.obs)) {
				t.Errorf("count = %d, want %d", h.Count(), len(tc.obs))
			}
			if h.Sum() != sum {
				t.Errorf("sum = %v, want %v", h.Sum(), sum)
			}
			s := h.sample("h", "", "")
			if len(s.Counts) != len(tc.want) {
				t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(tc.want))
			}
			for i, w := range tc.want {
				if s.Counts[i] != w {
					t.Errorf("bucket[%d] = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
				}
			}
		})
	}
}

// TestHistogramConcurrency checks the exact sum/count invariant under
// concurrent observation (CAS sum loop, atomic bucket adds).
func TestHistogramConcurrency(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1) // integer-valued: float sum stays exact
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per {
		t.Errorf("sum = %v, want %d", h.Sum(), workers*per)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(3) // bucket le=4
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %v, want 1", q)
	}
	if q := h.Quantile(0.95); q != 4 {
		t.Errorf("p95 = %v, want 4", q)
	}
	h.Observe(100) // +Inf bucket: reported as largest finite bound
	if q := h.Quantile(1); q != 4 {
		t.Errorf("p100 = %v, want 4 (largest finite bound)", q)
	}
	if q := h.Quantile(-1); q != 1 {
		t.Errorf("clamped q<0 = %v, want 1", q)
	}
}

// TestSeriesCardinalityCap proves the labeled-series memory bound: at
// the cap, new labels share the overflow series, and the overflow is
// visible in the exposition under OverflowLabel.
func TestSeriesCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesCap(3)
	cv := r.CounterVec("msgs_total", "messages", "topic")
	for i := 0; i < 3; i++ {
		cv.With(fmt.Sprintf("t%d", i)).Inc()
	}
	cv.With("t99").Add(5)
	cv.With("t100").Add(7)
	if got := cv.With("t99").Value(); got != 12 {
		t.Errorf("overflow series = %d, want 12 (shared)", got)
	}
	if cv.With("t99") != cv.With("t100") {
		t.Error("labels past the cap must share one overflow counter")
	}
	if cv.Len() != 4 { // 3 real + overflow
		t.Errorf("series len = %d, want 4", cv.Len())
	}
	vals := r.CounterValues()
	if vals[`msgs_total{topic="other"}`] != 12 {
		t.Errorf("overflow not exposed: %v", vals)
	}

	hv := r.HistogramVec("lat_seconds", "latency", "uav", []float64{1})
	for i := 0; i < 3; i++ {
		hv.With(fmt.Sprintf("u%d", i)).Observe(0.5)
	}
	hv.With("u77").Observe(0.5)
	hv.With("u78").Observe(0.5)
	if hv.With("u77") != hv.With("u78") {
		t.Error("histogram labels past the cap must share one overflow series")
	}
	if got := hv.With("u77").Count(); got != 2 {
		t.Errorf("overflow histogram count = %d, want 2", got)
	}
	if hv.Len() != 4 {
		t.Errorf("histogram series len = %d, want 4", hv.Len())
	}
}

// TestVecConcurrency creates and increments labeled series from many
// goroutines at once (the RLock fast path vs the create slow path).
func TestVecConcurrency(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "", "k")
	hv := r.HistogramVec("h_seconds", "", "k", []float64{1})
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				label := fmt.Sprintf("k%d", (w+i)%4)
				cv.With(label).Inc()
				hv.With(label).Observe(0.5)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 4; i++ {
		total += cv.With(fmt.Sprintf("k%d", i)).Value()
	}
	if total != workers*500 {
		t.Errorf("total = %d, want %d", total, workers*500)
	}
}

// TestRegistryConflicts pins the forgiving conflict behaviour: a name
// re-registered with another kind or label key returns nil (a no-op
// metric), never a panic, and the original family keeps working.
func TestRegistryConflicts(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "first help")
	c.Add(2)
	if r.Gauge("x_total", "") != nil {
		t.Error("kind conflict must return nil")
	}
	if r.Histogram("x_total", "", nil) != nil {
		t.Error("kind conflict must return nil histogram")
	}
	if r.CounterVec("x_total", "", "l") != nil {
		t.Error("label conflict must return nil vec")
	}
	if got := r.Counter("x_total", "ignored second help"); got != c {
		t.Error("re-registration must return the same counter")
	}
	if r.Help("x_total") != "first help" {
		t.Errorf("help = %q, want the first registration's", r.Help("x_total"))
	}
	if c.Value() != 2 {
		t.Error("original counter must be unaffected")
	}
	if r.CounterVec("v_total", "", "") != nil {
		t.Error("empty label key must return nil vec")
	}
	if r.HistogramVec("hv_seconds", "", "", nil) != nil {
		t.Error("empty label key must return nil histogram vec")
	}
}

// TestCounterValuesDeterministic checks the flattened Status view:
// counters and histogram counts only, stable keys.
func TestCounterValuesDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.CounterVec("b_total", "", "uav").With("u1").Add(4)
	r.Gauge("g", "").Set(9.5) // gauges excluded: float-valued
	h := r.Histogram("lat_seconds", "", []float64{1})
	h.Observe(0.25)
	h.Observe(2.5)
	want := map[string]uint64{
		"a_total":           3,
		`b_total{uav="u1"}`: 4,
		"lat_seconds_count": 2,
	}
	got := r.CounterValues()
	if len(got) != len(want) {
		t.Fatalf("CounterValues = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("CounterValues[%q] = %d, want %d", k, got[k], v)
		}
	}
}
