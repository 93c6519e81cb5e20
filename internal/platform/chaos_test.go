package platform

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sesame/internal/chaos"
	"sesame/internal/flightrec"
	"sesame/internal/geo"
	"sesame/internal/obsv"
	"sesame/internal/uavsim"
)

// buildChaosPlatform mirrors buildPlatform with a chaos layer armed on
// every seam: monitor chains (ExtraMonitors), rosbus, MQTT broker and
// the mission database. The layer is built from the world clock before
// the platform so injections ride the simulation time line.
func buildChaosPlatform(t *testing.T, cfg Config, seed int64, plan chaos.Plan) (*Platform, *chaos.Layer) {
	t.Helper()
	layer := (*chaos.Layer)(nil)
	p := func() *Platform {
		w := newTestWorld(t, seed)
		var err error
		if layer, err = chaos.New(w.Clock, plan); err != nil {
			t.Fatal(err)
		}
		if mb := layer.MonitorBuilder(); mb != nil {
			cfg.ExtraMonitors = append(cfg.ExtraMonitors, mb)
		}
		p, err := New(w, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}()
	layer.AttachBus(p.World.Bus)
	layer.AttachBroker(p.Broker)
	if hook := layer.DBHook(ErrUnavailable); hook != nil {
		p.DB.SetFaultHook(hook)
	}
	t.Cleanup(p.Close)
	return p, layer
}

// newTestWorld is buildPlatform's world construction without the
// platform, so a chaos layer can hook the clock first.
func newTestWorld(t *testing.T, seed int64) *uavsim.World {
	t.Helper()
	w := uavsim.NewWorld(origin, seed)
	for _, id := range []string{"u1", "u2", "u3"} {
		home := geo.Destination(origin, 200, 20)
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: id, Home: home, CruiseSpeedMS: 12}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// startChaosMission starts the shared eventful mission: survey plus a
// battery collapse and a GPS spoof layered under the chaos plan.
func startChaosMission(t *testing.T, p *Platform) {
	t.Helper()
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	now := p.World.Clock.Now()
	if err := p.World.ScheduleFault(uavsim.BatteryCollapseFault(now+60, "u1", 70, 40)); err != nil {
		t.Fatal(err)
	}
	if err := p.World.ScheduleFault(uavsim.GPSSpoofFault(now+30, "u2", 135, 3)); err != nil {
		t.Fatal(err)
	}
}

// chaosDeterminismPlan hits every live seam of the mission: a breaker
// round trip on u1, flaky fleet-wide chain errors, lossy telemetry
// publishes, broker faults and a long database brownout.
func chaosDeterminismPlan() chaos.Plan {
	return chaos.Plan{
		Name: "determinism",
		Seed: 11,
		Monitors: []chaos.MonitorFault{
			{UAV: "u1", Mode: chaos.ModePanic, Window: chaos.Window{FromS: 60, ToS: 100}, Prob: 1},
			{Mode: chaos.ModeError, Window: chaos.Window{FromS: 150, ToS: 170}, Prob: 0.5},
		},
		Bus:    []chaos.PublishFault{{Match: "/uav/", Window: chaos.Window{FromS: 30, ToS: 200}, Prob: 0.02}},
		Broker: []chaos.PublishFault{{Window: chaos.Window{ToS: 300}, Prob: 0.1}},
		DB:     []chaos.Brownout{{Window: chaos.Window{ToS: 300}, Prob: 0.2}},
	}
}

// TestChaosDeterminism is the harness's acceptance test: with a fault
// plan armed, serial, pooled and sharded schedulers must finish
// bit-identically, a checkpoint/restore mid-chaos must rejoin that
// digest, and an inert (empty) plan must be indistinguishable from no
// chaos layer at all.
func TestChaosDeterminism(t *testing.T) {
	const seed, horizon = 21, 600.0
	plan := chaosDeterminismPlan()

	fly := func(cfg Config, plan chaos.Plan) *Platform {
		p, _ := buildChaosPlatform(t, cfg, seed, plan)
		startChaosMission(t, p)
		runUntil(t, p, p.World.Clock.Now()+horizon)
		return p
	}

	serialCfg := DefaultConfig()
	serialCfg.Workers = 1
	want := digestPlatform(t, fly(serialCfg, plan))

	pooledCfg := DefaultConfig()
	pooledCfg.Workers = 8
	if got := digestPlatform(t, fly(pooledCfg, plan)); got != want {
		t.Errorf("pooled chaos run diverges from serial: %s != %s", got, want)
	}

	shardedCfg := DefaultConfig()
	shardedCfg.Workers = 4
	shardedCfg.Cells = 3
	if got := digestPlatform(t, fly(shardedCfg, plan)); got != want {
		t.Errorf("sharded chaos run diverges from serial: %s != %s", got, want)
	}

	// Kill mid-chaos — inside u1's panic window, with the breaker open
	// and the brownout still running — and resume on a freshly built
	// pooled scenario: quarantine state must survive the restore and
	// injections must land on the same simulated seconds either side of
	// it.
	donor, _ := buildChaosPlatform(t, serialCfg, seed, plan)
	startChaosMission(t, donor)
	end := donor.World.Clock.Now() + horizon
	runUntil(t, donor, donor.World.Clock.Now()+80)
	if donor.MissionComplete() {
		t.Fatal("checkpoint point is past mission completion; move it earlier")
	}
	snap, err := donor.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := buildChaosPlatform(t, pooledCfg, seed, plan)
	startChaosMission(t, resumed)
	if err := resumed.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	runUntil(t, resumed, end)
	if got := digestPlatform(t, resumed); got != want {
		t.Errorf("resumed chaos run diverges from uninterrupted: %s != %s", got, want)
	}

	// Transparency: an armed-but-empty plan must not perturb anything.
	baseline := buildPlatform(t, serialCfg, seed, 0)
	startChaosMission(t, baseline)
	runUntil(t, baseline, baseline.World.Clock.Now()+horizon)
	base := digestPlatform(t, baseline)
	if got := digestPlatform(t, fly(serialCfg, chaos.Plan{})); got != base {
		t.Errorf("inert chaos layer perturbed the mission: %s != %s", got, base)
	}
}

// TestChaosProperty is the generative gate: at least 100 random fault
// plans (including in -short), each flown on a live mission, must
// never deadlock the tick loop, never escalate to a process panic or
// tick error, and never lose track of a vehicle. Recorder faults are
// armed too, so generated disk failures exercise degraded mode.
func TestChaosProperty(t *testing.T) {
	const cases = 100
	const horizon = 120.0
	uavs := []string{"u1", "u2", "u3"}
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)*7919 + 3))
		plan := chaos.GeneratePlan(rng, uavs)
		cfg := DefaultConfig()
		switch i % 3 {
		case 1:
			cfg.Workers = 4
		case 2:
			cfg.Cells = 3
		}
		p, layer := buildChaosPlatform(t, cfg, int64(i)+1, plan)
		recOpts := layer.RecorderOptions(flightrec.Options{})
		rec, err := flightrec.NewRecorder(filepath.Join(t.TempDir(), "bb"), int64(i)+1, p.ConfigDigest(), 20, recOpts)
		switch {
		case err == nil:
			p.SetRecorder(rec)
		case strings.Contains(err.Error(), "chaos:"):
			// The plan killed segment creation outright; flying without a
			// black box is the correct degraded behavior.
		default:
			t.Fatalf("case %d: %v", i, err)
		}
		startChaosMission(t, p)
		end := p.World.Clock.Now() + horizon
		for p.World.Clock.Now() < end && !p.MissionComplete() {
			if err := p.Tick(); err != nil {
				t.Fatalf("case %d (plan seed %d): tick error escaped containment: %v", i, plan.Seed, err)
			}
		}
		status := p.Status()
		if len(status.UAVs) != len(uavs) {
			t.Fatalf("case %d: %d UAVs accounted, want %d", i, len(status.UAVs), len(uavs))
		}
		for _, us := range status.UAVs {
			if us.ID == "" || us.Mode == "" {
				t.Fatalf("case %d: unaccounted UAV state %+v", i, us)
			}
		}
		if p.recDegraded && (status.Recorder == nil || !status.Recorder.Degraded) {
			t.Fatalf("case %d: degraded recorder missing from Status", i)
		}
		if rec != nil {
			rec.Close() // chaos-injected close errors are expected
		}
		p.Close()
	}
}

// TestMonitorQuarantineBreaker pins the circuit breaker against a
// monitor that panics on every tick for 100 s: one quarantine event
// (not one per tick), bounded drop growth while the breaker is open,
// and a clean recovery once the probe finds the chain healthy again.
func TestMonitorQuarantineBreaker(t *testing.T) {
	plan := chaos.Plan{Seed: 3, Monitors: []chaos.MonitorFault{
		{UAV: "u1", Mode: chaos.ModePanic, Window: chaos.Window{ToS: 100}, Prob: 1},
	}}
	cfg := DefaultConfig() // BreakerFailures 3, BreakerCooldownS 30
	cfg.Observability = obsv.NewRegistry()
	p, layer := buildChaosPlatform(t, cfg, 5, plan)
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}

	runUntil(t, p, 50)
	mid := p.Status()
	if !mid.UAVs[0].MonitorQuarantined {
		t.Error("u1 not marked quarantined mid-window")
	}

	runUntil(t, p, 200)
	final := p.Status()
	if final.UAVs[0].MonitorQuarantined {
		t.Error("u1 still quarantined after the fault window closed")
	}

	counts := map[string]int{}
	for _, ev := range p.Coordinator.History("u1") {
		switch {
		case strings.Contains(ev.Summary, "monitor chain quarantined"):
			counts["quarantine"]++
		case strings.Contains(ev.Summary, "recovered after quarantine"):
			counts["recovered"]++
		case strings.Contains(ev.Summary, "monitor chain panic"):
			counts["panic"]++
		}
	}
	if counts["quarantine"] != 1 {
		t.Errorf("quarantine events = %d, want exactly 1", counts["quarantine"])
	}
	if counts["recovered"] != 1 {
		t.Errorf("recovery events = %d, want exactly 1", counts["recovered"])
	}
	if counts["panic"] != 1 {
		t.Errorf("panic incident events = %d, want exactly 1", counts["panic"])
	}

	// 3 contained failures trip the breaker, then one failed probe every
	// 30 s cooldown until the window closes: ~6 drops, not ~100.
	if drops := final.Drops.Monitors; drops < 3 || drops > 12 {
		t.Errorf("monitor drops = %d, want bounded (3..12) — breaker not containing the panic storm", drops)
	}
	if panics := layer.Stats().MonitorPanics; panics < 3 || panics > 12 {
		t.Errorf("injected panics = %d, want bounded (3..12) — chain ran while quarantined", panics)
	}

	// The quarantine landed in observability and the mission survived.
	if got := final.Observability["sesame_monitor_quarantines_total"]; got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	if p.Decision().String() == "abort" {
		t.Error("breaker round trip aborted the mission")
	}
}

// TestRecorderDegradedMode pins graceful recorder degradation: once
// the black box hits a persistent write failure, the mission keeps
// flying, writes become counted skips, one incident event is emitted
// and the condition is surfaced in Status and observability.
func TestRecorderDegradedMode(t *testing.T) {
	plan := chaos.Plan{Seed: 9, Recorder: []chaos.RecorderFault{
		{Op: chaos.OpWrite, Window: chaos.Window{FromS: 40}, Prob: 1},
	}}
	cfg := DefaultConfig()
	cfg.Observability = obsv.NewRegistry()
	p, layer := buildChaosPlatform(t, cfg, 6, plan)
	rec, err := flightrec.NewRecorder(filepath.Join(t.TempDir(), "bb"), 6, p.ConfigDigest(), 20, layer.RecorderOptions(flightrec.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	p.SetRecorder(rec)
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	runUntil(t, p, 120)

	status := p.Status()
	if status.Recorder == nil || !status.Recorder.Degraded {
		t.Fatalf("Status.Recorder = %+v, want degraded", status.Recorder)
	}
	if status.Recorder.SkippedWrites == 0 {
		t.Error("no skipped writes counted after degradation")
	}
	if !strings.Contains(status.Recorder.Error, "chaos: injected recorder write failure") {
		t.Errorf("degradation error %q does not carry the write failure", status.Recorder.Error)
	}
	if status.Observability["sesame_recorder_degraded_total"] != 1 {
		t.Errorf("degraded counter = %d, want 1", status.Observability["sesame_recorder_degraded_total"])
	}
	if status.Observability["sesame_recorder_skipped_writes_total"] != status.Recorder.SkippedWrites {
		t.Errorf("skip counter = %d, Status reports %d",
			status.Observability["sesame_recorder_skipped_writes_total"], status.Recorder.SkippedWrites)
	}
	incidents := 0
	for _, ev := range p.Coordinator.History("") {
		if strings.Contains(ev.Summary, "flight recorder degraded") {
			incidents++
		}
	}
	if incidents != 1 {
		t.Errorf("degradation incident events = %d, want exactly 1", incidents)
	}
}
