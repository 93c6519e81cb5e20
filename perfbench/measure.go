package main

import (
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// allocSamples are the runtime counters the stopwatch differences
// around every timed segment. runtime/metrics reads them without
// stopping the world, so sampling per tick does not disturb the
// timings it brackets.
var allocSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// allocCounts is one reading of allocSamples.
type allocCounts struct{ objects, bytes, gcs uint64 }

func (a allocCounts) sub(b allocCounts) allocCounts {
	return allocCounts{a.objects - b.objects, a.bytes - b.bytes, a.gcs - b.gcs}
}

func (a allocCounts) add(b allocCounts) allocCounts {
	return allocCounts{a.objects + b.objects, a.bytes + b.bytes, a.gcs + b.gcs}
}

// stopwatch accumulates host time and allocations over the timed
// segments of one unit. Work a workload does between segments — the
// next mission's build, output checks, watcher reads — is excluded.
type stopwatch struct {
	samples []metrics.Sample
	t0      time.Time
	a0      allocCounts
	lap     time.Duration
	allocs  allocCounts
}

func newStopwatch() *stopwatch {
	s := &stopwatch{samples: make([]metrics.Sample, len(allocSamples))}
	for i, name := range allocSamples {
		s.samples[i].Name = name
	}
	return s
}

func (s *stopwatch) read() allocCounts {
	metrics.Read(s.samples)
	var c [4]uint64
	for i := range s.samples {
		if s.samples[i].Value.Kind() == metrics.KindUint64 {
			c[i] = s.samples[i].Value.Uint64()
		}
	}
	return allocCounts{objects: c[0] + c[1], bytes: c[2], gcs: c[3]}
}

func (s *stopwatch) start() {
	s.a0 = s.read()
	s.t0 = time.Now()
}

// stop ends a segment and returns its length.
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.t0)
	s.allocs = s.allocs.add(s.read().sub(s.a0))
	s.lap += d
	return d
}

// takeLap returns the time accumulated since the previous call and
// resets it; allocations keep accumulating over the whole window.
func (s *stopwatch) takeLap() time.Duration {
	d := s.lap
	s.lap = 0
	return d
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// rtfBlocks is the number of consecutive unit blocks the real-time
// factor is computed over; the reported value is their median, so a
// block hit by a host stall does not move it.
const rtfBlocks = 10

// blockRTF splits the window's units into rtfBlocks consecutive blocks
// of equal count, computes simulated seconds per host second in each,
// and returns the median.
func blockRTF(simS, hostS []float64) float64 {
	n := len(hostS)
	if n == 0 {
		return 0
	}
	blocks := rtfBlocks
	if n < blocks {
		blocks = n
	}
	rtf := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		var sim, host float64
		for i := lo; i < hi; i++ {
			sim += simS[i]
			host += hostS[i]
		}
		if host > 0 {
			rtf = append(rtf, sim/host)
		}
	}
	return quantile(rtf, 0.5)
}

// span is one traced call into a layer. Times are nanoseconds since
// the traced pass began; parent is the index of the enclosing span
// (-1 at the top level) and unit the closed-loop unit it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer keeps spans in memory for the traced pass. A nil tracer
// records nothing, which is the untimed and untraced default.
type tracer struct {
	t0    time.Time
	spans []span
	unit  int
	open  []int // indexes of the spans enclosing the next one
}

func newTracer() *tracer { return &tracer{t0: time.Now(), unit: -1} }

// begin opens a span inside the innermost open one and returns its
// index (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Unit: t.unit})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// durations returns the lengths, in seconds, of the closed spans with
// the given name; inWindow keeps only spans of timed-window units.
func (t *tracer) durations(name string, inWindow bool) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && (!inWindow || s.Unit >= 0) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTime is one row of the traced pass's layer table.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part its child spans cover; children of one span
// run sequentially (one driver goroutine), so their lengths add.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*selfTime{}
	var names []string
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r, ok := rows[s.Name]
		if !ok {
			r = &selfTime{Name: s.Name}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-child[i]) / 1e6
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *rows[n]
	}
	return out
}

// stealBlock is how long a run of consecutive units shares one reading
// of the hypervisor's steal share: long enough for /proc/stat's 10 ms
// ticks to resolve it to about 2 %, short enough to follow the bursts
// of the host's slow periods.
const stealBlock = 250 * time.Millisecond

// stealMeter measures the share of this machine's CPU time that the
// hypervisor gave to other guests ("steal" in /proc/stat) since it was
// started. On a shared virtual machine that share comes and goes in
// periods of seconds to minutes and slows every thread by about as
// much; timings are multiplied by one minus it, so that they read what
// the program took while it had the CPU. Where the OS reports no steal
// the share is 0 and timings are left as measured.
type stealMeter struct {
	steal0, total0 uint64
	ok             bool
}

func startSteal() stealMeter {
	steal, total, ok := readCPUStat()
	return stealMeter{steal0: steal, total0: total, ok: ok}
}

// share is the stolen share of all CPU time since the meter started.
func (m stealMeter) share() float64 {
	steal, total, ok := readCPUStat()
	if !m.ok || !ok || total <= m.total0 || steal < m.steal0 {
		return 0
	}
	return float64(steal-m.steal0) / float64(total-m.total0)
}

// readCPUStat sums /proc/stat's aggregate "cpu" line (user, nice,
// system, idle, iowait, irq, softirq, steal; guest time is already
// counted in user) and returns steal and the total.
func readCPUStat() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseUint(fields[8], 10, 64)
	return steal, total, true
}
