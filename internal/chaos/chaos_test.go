package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/mqttlite"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

func mustLayer(t *testing.T, clock *simclock.Clock, plan Plan) *Layer {
	t.Helper()
	l, err := New(clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoadPlan(t *testing.T) {
	good := `{"name":"p","seed":42,
		"monitors":[{"uav":"u1","mode":"panic","window":{"from_s":10,"to_s":20},"prob":1}],
		"bus":[{"match":"telemetry/","prob":0.1}],
		"db":[{"window":{"to_s":120},"prob":0.5}],
		"recorder":[{"op":"corrupt-snapshot","prob":0.2}],
		"workers":[{"indices":[3],"attempts":2}]}`
	plan, err := LoadPlan([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 || len(plan.Monitors) != 1 || plan.Monitors[0].Mode != ModePanic {
		t.Fatalf("parsed plan %+v", plan)
	}

	bad := map[string]string{
		"unknown field":    `{"seed":1,"monitros":[]}`,
		"trailing data":    `{"seed":1} {"seed":2}`,
		"case-folded key":  `{"SEED":3}`,
		"case-folded rule": `{"monitors":[{"MODE":"panic","prob":1}]}`,
		"unknown mode":     `{"monitors":[{"mode":"crash","prob":1}]}`,
		"prob above one":   `{"bus":[{"prob":1.5}]}`,
		"negative prob":    `{"db":[{"prob":-0.1}]}`,
		"inverted window":  `{"broker":[{"prob":0.5,"window":{"from_s":20,"to_s":10}}]}`,
		"negative from":    `{"bus":[{"prob":0.5,"window":{"from_s":-1}}]}`,
		"unknown op":       `{"recorder":[{"op":"truncate","prob":1}]}`,
		"negative latency": `{"monitors":[{"mode":"latency","prob":1,"latency_us":-5}]}`,
		"negative attempt": `{"workers":[{"attempts":-1}]}`,
		"negative index":   `{"workers":[{"indices":[-2]}]}`,
		"not json":         `seed=1`,
	}
	for name, src := range bad {
		if _, err := LoadPlan([]byte(src)); err == nil {
			t.Errorf("%s: LoadPlan accepted %s", name, src)
		}
	}
}

func TestWindowContains(t *testing.T) {
	open := Window{FromS: 10}
	closed := Window{FromS: 10, ToS: 20}
	cases := []struct {
		w    Window
		t    float64
		want bool
	}{
		{open, 9.9, false}, {open, 10, true}, {open, 1e6, true},
		{closed, 9.9, false}, {closed, 10, true}, {closed, 19.9, true},
		{closed, 20, false}, // ToS is exclusive
		{Window{}, 0, true}, {Window{}, 500, true},
	}
	for _, c := range cases {
		if got := c.w.contains(c.t); got != c.want {
			t.Errorf("%+v contains(%v) = %v, want %v", c.w, c.t, got, c.want)
		}
	}
}

// TestDecideDeterministic pins the determinism contract: injection
// decisions are a pure function of (plan seed, key, one-second time
// bucket), with no mutable state — two layers built from the same plan
// must agree everywhere, and sub-second times must not change a draw.
func TestDecideDeterministic(t *testing.T) {
	plan := Plan{Seed: 99}
	a := mustLayer(t, simclock.New(0), plan)
	b := mustLayer(t, simclock.New(7), plan) // clock seed must not matter
	hits := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("rule:%d", i%17)
		tm := float64(i) * 0.37
		got := a.decide(key, tm, 0.5)
		if got != b.decide(key, tm, 0.5) {
			t.Fatalf("layers disagree on (%q, %v)", key, tm)
		}
		if got {
			hits++
		}
		if a.decide(key, tm, 0) {
			t.Fatalf("prob 0 fired on (%q, %v)", key, tm)
		}
		if !a.decide(key, tm, 1) {
			t.Fatalf("prob 1 skipped on (%q, %v)", key, tm)
		}
	}
	if hits < 600 || hits > 1400 {
		t.Errorf("prob 0.5 fired %d/2000 times; hash badly biased", hits)
	}
	// Same one-second bucket, same decision.
	for _, tm := range []float64{3.0, 3.2, 3.999} {
		if a.decide("k", tm, 0.5) != a.decide("k", 3.5, 0.5) {
			t.Errorf("decision changed within bucket at t=%v", tm)
		}
	}
	// A different seed reshuffles decisions somewhere.
	c := mustLayer(t, simclock.New(0), Plan{Seed: 100})
	same := true
	for i := 0; i < 200 && same; i++ {
		same = a.decide("k", float64(i), 0.5) == c.decide("k", float64(i), 0.5)
	}
	if same {
		t.Error("seed change did not affect any decision")
	}
}

func TestMonitorInjection(t *testing.T) {
	plan := Plan{Seed: 1, Monitors: []MonitorFault{
		{UAV: "u1", Mode: ModeError, Window: Window{FromS: 10, ToS: 20}, Prob: 1},
	}}
	l := mustLayer(t, simclock.New(0), plan)
	build := l.MonitorBuilder()
	if build == nil {
		t.Fatal("MonitorBuilder returned nil with monitor rules present")
	}
	rt, err := build("u1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Observe(eddi.Snapshot{Time: 15}); err == nil ||
		!strings.Contains(err.Error(), "injected monitor error") {
		t.Fatalf("in-window Observe err = %v, want injected error", err)
	}
	if _, _, err := rt.Observe(eddi.Snapshot{Time: 25}); err != nil {
		t.Fatalf("out-of-window Observe err = %v", err)
	}
	other, _ := build("u2")
	if _, _, err := other.Observe(eddi.Snapshot{Time: 15}); err != nil {
		t.Fatalf("wrong-UAV Observe err = %v", err)
	}
	if got := l.Stats().MonitorErrors; got != 1 {
		t.Errorf("MonitorErrors = %d, want 1", got)
	}

	panicky := mustLayer(t, simclock.New(0), Plan{Monitors: []MonitorFault{
		{Mode: ModePanic, Prob: 1},
	}})
	rt, _ = panicky.MonitorBuilder()("u1")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic mode did not panic")
			}
		}()
		rt.Observe(eddi.Snapshot{Time: 5})
	}()

	inert := mustLayer(t, simclock.New(0), Plan{})
	if inert.MonitorBuilder() != nil {
		t.Error("MonitorBuilder not nil for a plan without monitor rules")
	}
}

func TestAttachBusInjects(t *testing.T) {
	l := mustLayer(t, simclock.New(0), Plan{Bus: []PublishFault{
		{Match: "telemetry/", Window: Window{FromS: 10}, Prob: 1},
	}})
	bus := rosbus.NewBus()
	delivered := 0
	if _, err := bus.Subscribe("telemetry/u1", func(rosbus.Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	l.AttachBus(bus)
	pub, err := bus.Advertise("telemetry/u1", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(15, nil); err == nil || !strings.Contains(err.Error(), "injected bus publish failure") {
		t.Fatalf("matched publish err = %v, want injection", err)
	}
	if err := pub.Publish(5, nil); err != nil { // before the window
		t.Fatalf("pre-window publish err = %v", err)
	}
	other, _ := bus.Advertise("alerts/u1", "n1")
	if err := other.Publish(15, nil); err != nil {
		t.Fatalf("unmatched-topic publish err = %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d telemetry messages, want 1", delivered)
	}
	if got := l.Stats().BusFailures; got != 1 {
		t.Errorf("BusFailures = %d, want 1", got)
	}
}

func TestAttachBrokerInjects(t *testing.T) {
	clock := simclock.New(0)
	l := mustLayer(t, clock, Plan{Broker: []PublishFault{
		{Window: Window{FromS: 10, ToS: 20}, Prob: 1},
	}})
	broker := mqttlite.NewBroker()
	l.AttachBroker(broker)
	clock.SetNow(15)
	if err := broker.Publish("cmd/land", nil, false); err == nil ||
		!strings.Contains(err.Error(), "injected broker publish failure") {
		t.Fatalf("in-window publish err = %v, want injection", err)
	}
	clock.SetNow(30)
	if err := broker.Publish("cmd/land", nil, false); err != nil {
		t.Fatalf("post-window publish err = %v", err)
	}
	if got := l.Stats().BrokerFailures; got != 1 {
		t.Errorf("BrokerFailures = %d, want 1", got)
	}
}

func TestDBHook(t *testing.T) {
	sentinel := errors.New("db unavailable")
	clock := simclock.New(0)
	l := mustLayer(t, clock, Plan{DB: []Brownout{
		{UAV: "u2", Window: Window{ToS: 100}, Prob: 1},
	}})
	hook := l.DBHook(sentinel)
	if hook == nil {
		t.Fatal("DBHook returned nil with db rules present")
	}
	clock.SetNow(50)
	if err := hook("u2"); !errors.Is(err, sentinel) {
		t.Fatalf("matched write err = %v, want the sentinel", err)
	}
	if err := hook("u1"); err != nil {
		t.Fatalf("wrong-UAV write err = %v", err)
	}
	clock.SetNow(150)
	if err := hook("u2"); err != nil {
		t.Fatalf("post-window write err = %v", err)
	}
	if got := l.Stats().DBFailures; got != 1 {
		t.Errorf("DBFailures = %d, want 1", got)
	}
	if mustLayer(t, clock, Plan{}).DBHook(sentinel) != nil {
		t.Error("DBHook not nil for a plan without db rules")
	}
}

func TestRecorderOptions(t *testing.T) {
	clock := simclock.New(0)
	l := mustLayer(t, clock, Plan{Recorder: []RecorderFault{
		{Op: OpWrite, Window: Window{FromS: 10}, Prob: 1},
		{Op: OpCorruptSnapshot, Window: Window{FromS: 10}, Prob: 1},
	}})
	var innerOps []string
	base := flightrec.Options{
		FaultHook:       func(op string) error { innerOps = append(innerOps, op); return nil },
		CorruptSnapshot: func(p []byte) []byte { return append(p, 0xff) },
	}
	opts := l.RecorderOptions(base)

	payload := make([]byte, 8)
	clock.SetNow(5) // before the window: chaos rules inert
	if err := opts.FaultHook("write"); err != nil {
		t.Fatalf("pre-window write err = %v", err)
	}
	out := opts.CorruptSnapshot(append([]byte(nil), payload...))
	if len(out) != 9 { // inner corruptor's appended byte only
		t.Errorf("pre-window payload length %d, want 9", len(out))
	}

	clock.SetNow(20)
	if err := opts.FaultHook("write"); err == nil || !strings.Contains(err.Error(), "injected recorder write failure") {
		t.Fatalf("write err = %v, want injection", err)
	}
	// Ops the chaos rules skip still reach the inner hook.
	if err := opts.FaultHook("sync"); err != nil {
		t.Fatalf("sync err = %v", err)
	}
	if len(innerOps) != 2 || innerOps[1] != "sync" {
		t.Errorf("inner hook saw %v, want [write sync]", innerOps)
	}

	out = opts.CorruptSnapshot(append([]byte(nil), payload...))
	// Chaos truncates a quarter, then the preserved inner corruptor
	// appends its byte: 8 - 2 + 1.
	if len(out) != 7 {
		t.Errorf("corrupted payload length %d, want 7", len(out))
	}
	if got := l.Stats().RecorderFaults; got != 2 {
		t.Errorf("RecorderFaults = %d, want 2", got)
	}

	// No recorder rules: options pass through untouched.
	passthrough := mustLayer(t, clock, Plan{}).RecorderOptions(base)
	if err := passthrough.FaultHook("write"); err != nil {
		t.Fatalf("passthrough hook err = %v", err)
	}
}

func TestWorkerFailure(t *testing.T) {
	l := mustLayer(t, simclock.New(0), Plan{Workers: []WorkerFault{
		{Indices: []int{2}, Attempts: 2},
	}})
	for attempt := 1; attempt <= 2; attempt++ {
		if err := l.WorkerFailure(2, attempt); err == nil {
			t.Errorf("run 2 attempt %d succeeded, want injected failure", attempt)
		}
	}
	if err := l.WorkerFailure(2, 3); err != nil {
		t.Errorf("run 2 attempt 3 err = %v, want success after Attempts exhausted", err)
	}
	if err := l.WorkerFailure(1, 1); err != nil {
		t.Errorf("unmatched run 1 err = %v", err)
	}
	if got := l.Stats().WorkerFailures; got != 2 {
		t.Errorf("WorkerFailures = %d, want 2", got)
	}

	// Probabilistic mode is deterministic per (seed, index, attempt).
	plan := Plan{Seed: 5, Workers: []WorkerFault{{Prob: 0.5}}}
	a := mustLayer(t, simclock.New(0), plan)
	b := mustLayer(t, simclock.New(9), plan)
	fails := 0
	for i := 0; i < 400; i++ {
		ea, eb := a.WorkerFailure(i, 1), b.WorkerFailure(i, 1)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("layers disagree on run %d", i)
		}
		if ea != nil {
			fails++
		}
	}
	if fails < 100 || fails > 300 {
		t.Errorf("prob 0.5 failed %d/400 runs; draw badly biased", fails)
	}
}

// TestGeneratePlanAlwaysValid backs the property harness: every
// generated plan must pass the same validation a hand-written plan
// file does.
func TestGeneratePlanAlwaysValid(t *testing.T) {
	uavs := []string{"u1", "u2", "u3"}
	for seed := int64(0); seed < 300; seed++ {
		plan := GeneratePlan(rand.New(rand.NewSource(seed)), uavs)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid plan: %v", seed, err)
		}
		if _, err := New(simclock.New(0), plan); err != nil {
			t.Fatalf("seed %d: New rejected generated plan: %v", seed, err)
		}
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{MonitorPanics: 1, MonitorErrors: 2, MonitorLatency: 3, BusFailures: 4,
		BrokerFailures: 5, DBFailures: 6, RecorderFaults: 7, WorkerFailures: 8}
	if s.Total() != 36 {
		t.Errorf("Total = %d, want 36", s.Total())
	}
}
