package platform

import (
	"strings"
	"testing"

	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/geo"
	"sesame/internal/linksim"
	"sesame/internal/sar"
	"sesame/internal/uavsim"
)

// attachLinkLayer wraps the platform's bus and alert broker in a
// linksim fault layer routed per UAV, the way the degraded-comms
// experiments do.
func attachLinkLayer(p *Platform) *linksim.Layer {
	layer := linksim.New(p.World.Clock, "degraded")
	layer.AttachBus(p.World.Bus)
	layer.AttachBroker(p.Broker, func(topic string) string {
		if uav, ok := strings.CutPrefix(topic, "alerts/ids/"); ok {
			return uav
		}
		return ""
	})
	return layer
}

// TestDegradedCommsDeterministicReplay is the acceptance scenario: a
// duplicating link profile on every UAV plus a 30 s full link loss on
// u2 mid-mission. Two runs must be bit-identical (and identical across
// scheduler pool sizes), u2's status must show stale telemetry age,
// the lost-link watchdog must fire the RTB contingency, and the
// mission must complete with every loss accounted for in the link
// stats.
//
// The background profile deliberately uses duplication only: any
// impairment that lets a GPS fix arrive while the odometry cache is a
// tick stale (dropping, delaying or reordering a status frame) moves
// the tracks >10 m apart at cruise speed, which the IDS correctly
// flags as spoofing — a different contingency (collaborative landing)
// than the one under test here. That interplay is exercised in the
// degraded-comms experiment matrix instead.
func TestDegradedCommsDeterministicReplay(t *testing.T) {
	type outcome struct {
		digest     string
		maxAgeU2   float64
		sawLost    bool
		finalU2    uavsim.FlightMode
		linkStats  map[string]linksim.LinkStats
		events     int
		complete   bool
		watchdogOK bool
	}
	run := func(workers int) outcome {
		cfg := DefaultConfig()
		cfg.Workers = workers
		p := buildPlatform(t, cfg, 21, 0)
		layer := attachLinkLayer(p)
		profile := linksim.Profile{DupProb: 0.1}
		for _, id := range []string{"u1", "u2", "u3"} {
			layer.Link(id).SetProfile(profile)
		}
		if err := p.StartMission(classicArea(350)); err != nil {
			t.Fatal(err)
		}
		now := p.World.Clock.Now()
		layer.Link("u2").AddOutage(now+30, now+60)

		var out outcome
		deadline := now + 1800
		for p.World.Clock.Now() < deadline {
			if err := p.Tick(); err != nil {
				t.Fatal(err)
			}
			st := p.Status()
			for _, us := range st.UAVs {
				if us.ID != "u2" {
					continue
				}
				if us.TelemetryAgeS > out.maxAgeU2 {
					out.maxAgeU2 = us.TelemetryAgeS
				}
				if us.LinkLost {
					out.sawLost = true
				}
			}
			if p.missionComplete() {
				out.complete = true
				break
			}
		}
		for _, ev := range p.Coordinator.History("u2") {
			if strings.HasPrefix(ev.Summary, "lost link:") {
				out.watchdogOK = true
			}
		}
		out.digest = digestPlatform(t, p)
		out.finalU2 = p.World.UAVs()[1].Mode()
		out.linkStats = layer.Stats()
		out.events = len(p.Coordinator.History(""))
		return out
	}

	first := run(1)
	replay := run(1)
	if first.digest != replay.digest {
		t.Errorf("same seed + fault schedule produced different runs: %s vs %s", first.digest, replay.digest)
	}
	pooled := run(8)
	if first.digest != pooled.digest {
		t.Errorf("worker pool diverged under link faults: %s vs %s", first.digest, pooled.digest)
	}

	if !first.complete {
		t.Error("mission did not complete under degraded comms")
	}
	if first.maxAgeU2 <= 15 {
		t.Errorf("u2 max telemetry age = %.1f s, want > lost-link window", first.maxAgeU2)
	}
	if !first.sawLost {
		t.Error("u2 never showed LinkLost in status")
	}
	if !first.watchdogOK {
		t.Error("lost-link watchdog event missing from u2 history")
	}
	if first.finalU2 != uavsim.ModeLanded {
		t.Errorf("u2 final mode = %v, want landed after RTB contingency", first.finalU2)
	}
	if first.events == 0 {
		t.Error("no events recorded")
	}
	for id, s := range first.linkStats {
		if s.Offered+s.Duplicated != s.Delivered+s.Dropped+s.Rejected+s.Pending {
			t.Errorf("link %s loses frames silently: %+v", id, s)
		}
	}
	if u2 := first.linkStats["u2"]; u2.OutageDropped == 0 {
		t.Errorf("u2 outage dropped nothing: %+v", u2)
	}
}

// TestLostLinkWatchdogReturnsHome covers the lost-link contingency
// under a permanent link loss: the watchdog returns the vehicle to
// base, where it lands, and the link stays flagged lost.
func TestLostLinkWatchdogReturnsHome(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 31, 0)
	layer := attachLinkLayer(p)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	t0 := p.World.Clock.Now()
	layer.Link("u2").DownAt(t0 + 10)
	if err := p.RunMission(900); err != nil {
		t.Fatal(err)
	}
	st := p.states["u2"]
	if !st.lostLink {
		t.Error("u2 lostLink must stay latched under a permanent outage")
	}
	if mode := st.uav.Mode(); mode != uavsim.ModeLanded {
		t.Errorf("u2 mode = %v, want landed at base", mode)
	}
	home := st.uav.Home()
	if d := geo.Haversine(st.uav.TruePosition(), home); d > 50 {
		t.Errorf("u2 landed %.0f m from base; return to base expected within 50 m", d)
	}
	found := false
	for _, ev := range p.Coordinator.History("u2") {
		if strings.HasPrefix(ev.Summary, "lost link:") && strings.Contains(ev.Summary, "return to base") {
			found = true
		}
	}
	if !found {
		t.Error("return-to-base watchdog event missing")
	}
	status := p.Status()
	for _, us := range status.UAVs {
		if us.ID == "u2" {
			if !us.LinkLost || us.TelemetryAgeS <= lostLinkWindowS {
				t.Errorf("u2 status = lost:%v age:%.0f, want latched stale link", us.LinkLost, us.TelemetryAgeS)
			}
		}
	}
}

// panicMonitor deliberately blows up one UAV's chain mid-mission.
type panicMonitor struct {
	uav   string
	after float64
}

func (m *panicMonitor) Name() string { return "panicky" }

func (m *panicMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	if m.uav == "u2" && s.Time > m.after {
		panic("synthetic monitor bug for " + m.uav)
	}
	return nil, eddi.Advice{}, nil
}

// TestMonitorPanicIsolated proves one crashing monitor no longer kills
// the scheduler: the panic becomes a counted drop, a single fail-safe
// event, and a Hold for the affected UAV, while the rest of the fleet
// flies on — including on the concurrent worker pool.
func TestMonitorPanicIsolated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.ExtraMonitors = []func(uav string) (eddi.Runtime, error){
		func(uav string) (eddi.Runtime, error) { return &panicMonitor{uav: uav, after: 60}, nil },
	}
	p := buildPlatform(t, cfg, 41, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	drops := p.Drops()
	if drops.Monitors == 0 {
		t.Error("monitor panics were not counted")
	}
	panics := 0
	for _, ev := range p.Coordinator.History("u2") {
		if strings.Contains(ev.Summary, "monitor chain panic") {
			panics++
		}
	}
	if panics != 1 {
		t.Errorf("panic event emitted %d times, want once", panics)
	}
	if mode := p.states["u2"].uav.Mode(); mode != uavsim.ModeHold {
		t.Errorf("u2 mode = %v, want fail-safe hold", mode)
	}
	// The rest of the fleet is unaffected.
	for _, id := range []string{"u1", "u3"} {
		if mode := p.states[id].uav.Mode(); mode != uavsim.ModeMission {
			t.Errorf("%s mode = %v, want mission", id, mode)
		}
	}
	if total := drops.Total(); total != drops.Monitors {
		t.Errorf("unexpected non-monitor drops: %+v", drops)
	}
}

// severityBomb emits an event the coordinator must refuse (severity
// outside [0,1]) — the events-drop induction.
type severityBomb struct{ fired bool }

func (m *severityBomb) Name() string { return "bomb" }

func (m *severityBomb) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	if m.fired || s.UAV != "u1" {
		return nil, eddi.Advice{}, nil
	}
	m.fired = true
	return []eddi.Event{{
		Kind: eddi.KindSafety, UAV: s.UAV, Time: s.Time,
		Severity: 2, Summary: "invalid severity",
	}}, eddi.Advice{}, nil
}

// TestDropCountersAllCategories drives at least one drop through every
// DropCounters category end-to-end and checks Status.Drops reflects
// each one.
func TestDropCountersAllCategories(t *testing.T) {
	var total DropCounters

	// Platform A: events (invalid severity), perception (corrupt frame),
	// database (permanently unavailable store for u3, retries exhausted),
	// availability (tracker missing a crashed UAV).
	cfg := DefaultConfig()
	cfg.ExtraMonitors = []func(uav string) (eddi.Runtime, error){
		func(uav string) (eddi.Runtime, error) { return &severityBomb{}, nil },
	}
	a := buildPlatform(t, cfg, 51, 0)
	if err := a.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	a.DB.SetFaultHook(func(uav string) error {
		if uav == "u3" {
			return ErrUnavailable
		}
		return nil
	})
	// Shrink the availability tracker behind the platform's back so the
	// crash-path MarkDown has an unknown UAV to fail on.
	tr, err := sar.NewAvailabilityTracker(a.World.Clock.Now(), []string{"u1", "u3"})
	if err != nil {
		t.Fatal(err)
	}
	a.avail = tr
	now := a.World.Clock.Now()
	for idx := 0; idx < 3; idx++ {
		if err := a.World.ScheduleFault(uavsim.RotorFailureFault(now+10+float64(idx), "u2", idx)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			a.states["u1"].perceptionMon.stage(&detection.Frame{UAV: "u1", Features: []float64{1}})
		}
	}
	stA := a.Status()
	if stA.Drops.Events == 0 {
		t.Errorf("events drop not induced: %+v", stA.Drops)
	}
	if stA.Drops.Perception == 0 {
		t.Errorf("perception drop not induced: %+v", stA.Drops)
	}
	if stA.Drops.Database == 0 {
		t.Errorf("database drop not induced: %+v", stA.Drops)
	}
	if stA.Drops.Availability == 0 {
		t.Errorf("availability drop not induced: %+v", stA.Drops)
	}
	if stA.DBRetries.Scheduled == 0 || stA.DBRetries.Abandoned == 0 {
		t.Errorf("retry machinery not exercised: %+v", stA.DBRetries)
	}
	total.Events += stA.Drops.Events
	total.Perception += stA.Drops.Perception
	total.Database += stA.Drops.Database
	total.Availability += stA.Drops.Availability

	// Platform B (baseline, solo): a rotor failure during the on-ground
	// battery swap makes the redeploy TakeOff fail — a commands drop.
	wb := uavsim.NewWorld(origin, 52)
	home := geo.Destination(origin, 200, 20)
	if _, err := wb.AddUAV(uavsim.UAVConfig{ID: "solo", Home: home, CruiseSpeedMS: 12}); err != nil {
		t.Fatal(err)
	}
	bcfg := DefaultConfig()
	bcfg.SESAME = false
	b, err := New(wb, nil, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if err := b.StartMission(classicArea(200)); err != nil {
		t.Fatal(err)
	}
	if err := b.World.ScheduleFault(uavsim.BatteryCollapseFault(b.World.Clock.Now()+30, "solo", 70, 40)); err != nil {
		t.Fatal(err)
	}
	stSolo := b.states["solo"]
	broke := false
	for i := 0; i < 1200 && b.Drops().Commands == 0; i++ {
		if err := b.Tick(); err != nil {
			t.Fatal(err)
		}
		if !broke && stSolo.swapPending && stSolo.uav.Mode() == uavsim.ModeLanded {
			broke = true
			if err := stSolo.uav.FailRotor(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !broke {
		t.Fatal("battery-swap scenario never landed for the swap")
	}
	stB := b.Status()
	if stB.Drops.Commands == 0 {
		t.Errorf("commands drop not induced: %+v", stB.Drops)
	}
	total.Commands += stB.Drops.Commands

	// Platform C (solo, permanent link loss): the watchdog's task
	// redistribution has no survivors to hand the work to — a mission
	// drop.
	wc := uavsim.NewWorld(origin, 53)
	if _, err := wc.AddUAV(uavsim.UAVConfig{ID: "solo", Home: home, CruiseSpeedMS: 12}); err != nil {
		t.Fatal(err)
	}
	c, err := New(wc, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	layer := attachLinkLayer(c)
	if err := c.StartMission(classicArea(200)); err != nil {
		t.Fatal(err)
	}
	layer.Link("solo").DownAt(c.World.Clock.Now() + 5)
	for i := 0; i < 60; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	stC := c.Status()
	if stC.Drops.Mission == 0 {
		t.Errorf("mission drop not induced: %+v", stC.Drops)
	}
	total.Mission += stC.Drops.Mission

	if total.Database == 0 || total.Events == 0 || total.Availability == 0 ||
		total.Commands == 0 || total.Mission == 0 || total.Perception == 0 {
		t.Errorf("not every category induced: %+v", total)
	}
}

// TestDBRetryRecoversFromTransientOutage proves a short database
// brownout loses nothing: every failed write is retried with backoff
// until it lands, and no drop is counted.
func TestDBRetryRecoversFromTransientOutage(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 61, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	t0 := p.World.Clock.Now()
	clock := p.World.Clock
	p.DB.SetFaultHook(func(uav string) error {
		if now := clock.Now(); now >= t0 && now < t0+5 {
			return ErrUnavailable
		}
		return nil
	})
	for i := 0; i < 20; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Status()
	if st.DBRetries.Scheduled == 0 {
		t.Fatal("brownout scheduled no retries")
	}
	if st.DBRetries.Succeeded != st.DBRetries.Scheduled {
		t.Errorf("retries: %+v, want all scheduled writes to succeed", st.DBRetries)
	}
	if st.DBRetries.Abandoned != 0 || st.Drops.Database != 0 {
		t.Errorf("transient outage lost data: retries %+v drops %+v", st.DBRetries, st.Drops)
	}
}

// TestNoFaultRunsUnchanged pins the zero-cost property: with a link
// layer attached but no profiles or outages configured, a mission run
// digests identically to one without any layer at all.
func TestNoFaultRunsUnchanged(t *testing.T) {
	run := func(attach bool) string {
		p := buildPlatform(t, DefaultConfig(), 71, 0)
		if attach {
			layer := attachLinkLayer(p)
			// Links exist but are perfect.
			layer.Link("u1")
			layer.Link("u2")
			layer.Link("u3")
		}
		if err := p.StartMission(classicArea(300)); err != nil {
			t.Fatal(err)
		}
		if err := p.RunMission(1200); err != nil {
			t.Fatal(err)
		}
		return digestPlatform(t, p)
	}
	if plain, wrapped := run(false), run(true); plain != wrapped {
		t.Errorf("perfect link layer changed the run: %s vs %s", plain, wrapped)
	}
}
