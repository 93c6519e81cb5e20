package platform

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sesame/internal/eddi"
	"sesame/internal/obsv"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runScenario executes one seeded mission and returns the finished
// platform.
func runScenario(t *testing.T, cfg Config, seed int64, horizon float64) *Platform {
	t.Helper()
	p := buildPlatform(t, cfg, seed, 0)
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(horizon); err != nil {
		t.Fatal(err)
	}
	return p
}

// digestWithoutObsv hashes the same blob digestPlatform does, with the
// Observability field cleared, so instrumented and uninstrumented runs
// can be compared bit for bit.
func digestWithoutObsv(t *testing.T, p *Platform) string {
	t.Helper()
	status := p.Status()
	status.Observability = nil
	blob := struct {
		Status   Status
		Decision string
		History  interface{}
	}{status, p.Decision().String(), p.Coordinator.History("")}
	data, err := json.Marshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if p.avail != nil {
		if a, err := p.Availability(); err == nil {
			data = append(data, []byte(fmt.Sprintf("avail=%.12f", a))...)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestObservabilityDeterminism is the PR's core contract in test form:
// instrumentation must not perturb the digested mission outputs.
//
//  1. With observability on, serial and pooled scheduling produce the
//     same digest (the Observability counters themselves included).
//  2. An instrumented run and an uninstrumented run of the same seed
//     are identical once the Observability field is set aside.
func TestObservabilityDeterminism(t *testing.T) {
	const seed, horizon = 4, 900

	digests := make(map[int]string, 2)
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Observability = obsv.NewRegistry()
		cfg.Observability.SetTrace(obsv.NewTraceRing(1024))
		p := runScenario(t, cfg, seed, horizon)
		if len(p.Status().Observability) == 0 {
			t.Fatal("instrumented run produced no observability counters")
		}
		digests[workers] = digestPlatform(t, p)
	}
	if digests[1] != digests[8] {
		t.Errorf("instrumented scheduler diverges: serial %s != pooled %s", digests[1], digests[8])
	}

	cfgOn := DefaultConfig()
	cfgOn.Workers = 1
	cfgOn.Observability = obsv.NewRegistry()
	on := runScenario(t, cfgOn, seed, horizon)

	cfgOff := DefaultConfig()
	cfgOff.Workers = 1
	off := runScenario(t, cfgOff, seed, horizon)
	if off.Status().Observability != nil {
		t.Error("uninstrumented run must not carry observability counters")
	}
	if got, want := digestWithoutObsv(t, on), digestWithoutObsv(t, off); got != want {
		t.Errorf("instrumentation perturbed the mission: on %s != off %s", got, want)
	}
}

// timingLine matches exposition samples whose values depend on wall
// clock: histogram bucket counts and sums of *_seconds families. The
// _count samples are observation counts and stay exact.
var timingLine = regexp.MustCompile(`^(\S*_seconds(?:_bucket\{[^}]*\}|_sum)(?:\{[^}]*\})?) \S+$`)

// normalizeMetrics replaces timing-dependent sample values with "T" so
// the golden file pins names, labels, ordering and the deterministic
// counters while tolerating run-to-run latency variation.
func normalizeMetrics(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if m := timingLine.FindStringSubmatch(line); m != nil {
			lines[i] = m[1] + " T"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden runs a seeded 3-UAV mission and compares the full
// /metrics exposition against testdata/metrics.golden. Regenerate with
// go test ./internal/platform/ -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Observability = obsv.NewRegistry()
	p := runScenario(t, cfg, 4, 900)

	var b strings.Builder
	if err := p.Observability().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := normalizeMetrics(b.String())

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("metrics exposition drifted from golden (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestObservabilityAccessor checks the registry handle plumbing.
func TestObservabilityAccessor(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := DefaultConfig()
	cfg.Observability = reg
	p := buildPlatform(t, cfg, 1, 0)
	if p.Observability() != reg {
		t.Error("Observability() must return the configured registry")
	}
	off := buildPlatform(t, DefaultConfig(), 1, 0)
	if off.Observability() != nil {
		t.Error("uninstrumented platform must return a nil registry")
	}
}

// TestMonitorPanicCounted proves a contained chain panic reaches the
// panic counter and the trace ring.
func TestMonitorPanicCounted(t *testing.T) {
	reg := obsv.NewRegistry()
	ring := obsv.NewTraceRing(16)
	reg.SetTrace(ring)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Observability = reg
	cfg.ExtraMonitors = []func(uav string) (eddi.Runtime, error){
		func(uav string) (eddi.Runtime, error) { return &panicMonitor{uav: "u2", after: -1}, nil },
	}
	p := buildPlatform(t, cfg, 1, 0)
	if err := p.StartMission(ClassicArea(300)); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	vals := reg.CounterValues()
	if vals["sesame_monitor_panics_total"] == 0 {
		t.Errorf("panic not counted: %v", vals)
	}
	found := false
	for _, ev := range ring.Snapshot() {
		if ev.Outcome == obsv.OutcomePanic {
			found = true
			break
		}
	}
	if !found {
		t.Error("panic not recorded in the trace ring")
	}
}
