// Command perfbench is the SESAME stack's benchmark. It drives one
// workload from a single goroutine through the public APIs of the
// platform, missionhost, scenario and obsv packages, times it, checks
// its outputs against the repo's determinism contract, and prints the
// result as one JSON line:
//
//	perfbench --workload paper3 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced pass.
// --trace 1 runs that pass and then a traced pass with the same seed
// (obsv registry attached, a span around every call the benchmark
// makes) and reports the per-layer metrics; spans and the registry
// snapshot go to a file in --out. NOTES.md explains every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sesame/internal/obsv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// maxUnits > 0 closes the window after exactly that many units
	// instead of after --seconds; the self-test uses it so two runs
	// at one seed do identical work.
	maxUnits int
}

// minUnits keeps p90 ten samples clear of the window's end even when
// --seconds elapses first.
const minUnits = 100

// heapUnit is the unit at which heap_mb is read: after it (paper3:
// during it, with its mission in flight), outside the stopwatch. Every
// window flies it, so every run reads the heap after the same work.
const heapUnit = minUnits / 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    map[string]int `json:"workers"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"run_seconds"`
	Trace      bool           `json:"trace"`
	// StealSetup and StealWindow are the shares of CPU time the
	// hypervisor stole during set-up and during the untraced window;
	// the reported timings have them removed.
	StealSetup  float64 `json:"steal_share_setup"`
	StealWindow float64 `json:"steal_share_window"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, trace, err := execute(opts)
	if err == nil {
		err = writeResults(opts, rep, trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	envLine, err := json.Marshal(map[string]environment{"env": rep.Env})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, line)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced pass")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// report is what one invocation writes to its results file.
type report struct {
	Env    environment `json:"env"`
	Result result      `json:"result"`
	Errors []string    `json:"errors,omitempty"`
}

// traceFile is what a traced run writes beside its result.
type traceFile struct {
	Env      environment   `json:"env"`
	SelfTime []selfTime    `json:"self_time"`
	Registry obsv.Snapshot `json:"obsv"`
	Spans    []span        `json:"spans"`
}

// execute runs the untraced pass, and for --trace 1 the traced pass
// after it, and assembles the reported metrics.
func execute(opts options) (report, *traceFile, error) {
	rep := report{Env: environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:  workloads[opts.workload].workers(),
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
	}}
	plain, err := runPass(opts, false)
	if err != nil {
		return rep, nil, err
	}
	rep.Env.StealSetup, rep.Env.StealWindow = plain.stealSetup, plain.stealWindow
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	rep.Errors = plain.errs
	var trace *traceFile
	if opts.trace {
		traced, err := runPass(opts, true)
		if err != nil {
			return rep, nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		rep.Errors = append(rep.Errors, traced.errs...)
		values := perLayerValues(plain, traced)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
		}
		trace = &traceFile{
			Env: rep.Env, SelfTime: traced.tr.selfTimes(),
			Registry: traced.reg.Snapshot(), Spans: traced.tr.spans,
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: m.value(plain), Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	rep.Result = res
	return rep, trace, nil
}

// writeResults stores the report, and a traced run's spans and
// registry snapshot, under opts.out.
func writeResults(opts options, rep report, trace *traceFile) error {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d-trace%d", opts.workload, opts.seed, boolInt(opts.trace)))
	if trace != nil {
		if err := writeJSON(base+"-spans.json", trace); err != nil {
			return err
		}
	}
	return writeJSON(base+".json", rep)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo where the OS
// has one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workload is one closed-loop benchmark workload. A pass calls setup,
// warmup, unit until the window closes, check, and (traced) layers.
type workload interface {
	// setup builds the workload and sets ps.setupS.
	setup(ps *pass) error
	warmup(ps *pass) error
	// unit runs one closed-loop unit, timing its calls with ps.sw,
	// and returns the simulated seconds it advanced.
	unit(ps *pass) (simS float64, err error)
	// check runs the untimed output checks; one error per failure.
	check(ps *pass) []error
	// layers adds the workload's own per-layer metrics after a traced
	// pass, before close.
	layers(ps *pass, out map[string]float64)
	close()
}

type workloadInfo struct {
	new     func() workload
	workers func() map[string]int
}

var workloads = map[string]workloadInfo{
	"paper3":  {func() workload { return &paper3{} }, paper3Workers},
	"fleet1k": {func() workload { return &fleet1k{} }, fleet1kWorkers},
	"hosted":  {func() workload { return &hosted{} }, hostedWorkers},
}

func workloadNames() []string { return []string{"paper3", "fleet1k", "hosted"} }

// pass is one run of a workload: set-up, warm-up, the timed window,
// the heap reading and the output checks.
type pass struct {
	opts   options
	traced bool
	tr     *tracer        // nil on the untraced pass
	reg    *obsv.Registry // nil on the untraced pass
	sw     *stopwatch
	rng    *rand.Rand

	// fleetSize is the UAVs per platform, for per-UAV-tick ratios.
	fleetSize float64

	setupS   float64
	hostS    []float64 // per unit, with the hypervisor's steal removed
	simS     []float64 // per unit
	heapMB   float64
	heapRead bool
	uavTicks float64 // UAV-ticks flown inside timed segments
	// stealSetup and stealWindow are the stolen shares of CPU time
	// over set-up and over the window, as the environment block
	// reports them.
	stealSetup, stealWindow float64

	attempted, failed int
	errs              []string
	// digests lists every digest the output checks compared, in
	// order; the self-test requires two same-seed runs to agree.
	digests []string
	// layers holds the workload's own per-layer metrics (traced pass).
	layers map[string]float64
}

func (ps *pass) fail(err error) {
	ps.failed++
	ps.errs = append(ps.errs, err.Error())
}

// readHeap forces a GC and records the live heap, once per pass. The
// caller keeps the workload's objects alive and its stopwatch stopped.
// It is read at a fixed point of the workload's progress (heapUnit):
// at the end of the window it would depend on how many units the
// window fitted (fleet1k's live heap steps up as its stores grow), so
// a faster build would read as a bigger one.
func (ps *pass) readHeap() {
	if ps.heapRead {
		return
	}
	ps.heapRead = true
	// The second cycle frees what sync.Pool victim caches kept alive
	// through the first, so the reading does not depend on when the
	// pools were last used.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

func runPass(opts options, traced bool) (*pass, error) {
	ps := &pass{opts: opts, traced: traced, sw: newStopwatch(), rng: rand.New(rand.NewSource(opts.seed))}
	if traced {
		ps.tr = newTracer()
		ps.reg = obsv.NewRegistry()
	}
	w := workloads[opts.workload].new()
	defer w.close()
	steal := startSteal()
	if err := w.setup(ps); err != nil {
		return nil, fmt.Errorf("%s setup: %w", opts.workload, err)
	}
	ps.stealSetup = steal.share()
	ps.setupS *= 1 - ps.stealSetup
	if err := w.warmup(ps); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", opts.workload, err)
	}
	ps.window(w)
	for _, err := range w.check(ps) {
		ps.fail(err)
	}
	if traced {
		ps.layers = map[string]float64{}
		w.layers(ps, ps.layers)
	}
	if ps.failed > ps.attempted {
		ps.failed = ps.attempted
	}
	return ps, nil
}

// window runs units back to back until --seconds of timed work and at
// least minUnits units are done (or exactly maxUnits units). A unit
// error fails the unit and ends the window. A wall-clock cap of twice
// the window plus 10 s keeps a pathologically slow build inside the
// run's time limit. Every stealBlock, the units timed since the last
// block are scaled by one minus the CPU share the hypervisor stole
// meanwhile (see stealMeter).
func (ps *pass) window(w workload) {
	whole, block, blockFrom, blockT0 := startSteal(), startSteal(), 0, time.Now()
	closeBlock := func() {
		f := 1 - block.share()
		for i := blockFrom; i < len(ps.hostS); i++ {
			ps.hostS[i] *= f
		}
		block, blockFrom, blockT0 = startSteal(), len(ps.hostS), time.Now()
	}
	defer func() {
		closeBlock()
		ps.stealWindow = whole.share()
	}()
	wallCap := time.Now().Add(time.Duration(2*ps.opts.seconds*float64(time.Second)) + 10*time.Second)
	var timed time.Duration
	limit := time.Duration(ps.opts.seconds * float64(time.Second))
	for {
		n := len(ps.hostS)
		if ps.opts.maxUnits > 0 {
			if n >= ps.opts.maxUnits {
				return
			}
		} else if (timed >= limit && n >= minUnits) || (n > 0 && time.Now().After(wallCap)) {
			return
		}
		if ps.tr != nil {
			ps.tr.unit = n
		}
		sp := ps.tr.begin("unit")
		simS, err := w.unit(ps)
		ps.tr.end(sp)
		if ps.tr != nil {
			ps.tr.unit = -1
		}
		ps.attempted++
		if err != nil {
			ps.fail(fmt.Errorf("unit %d: %w", n, err))
			return
		}
		d := ps.sw.takeLap()
		timed += d
		ps.hostS = append(ps.hostS, d.Seconds())
		ps.simS = append(ps.simS, simS)
		if n == heapUnit {
			ps.readHeap()
		}
		if time.Since(blockT0) >= stealBlock {
			closeBlock()
		}
	}
}
