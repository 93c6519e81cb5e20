package platform

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sesame/internal/eddi"
	"sesame/internal/geo"
	"sesame/internal/uavsim"
)

// digestPlatform hashes everything observable about a finished run:
// the Fig. 4 status, the mission decision, the full event history and
// the fleet availability.
func digestPlatform(t *testing.T, p *Platform) string {
	t.Helper()
	blob := struct {
		Status   Status
		Decision string
		History  interface{}
	}{p.Status(), p.Decision().String(), p.Coordinator.History("")}
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

// schedulerScenarios are the experiment regimes the determinism check
// covers: nominal, battery events under both policies, spoofing,
// perception-driven descent, rotor loss, comms loss, combined stress
// and night/thermal operations.
func schedulerScenarios() []struct {
	name    string
	cfg     func() Config
	seed    int64
	persons int
	faults  func(p *Platform)
	horizon float64
} {
	return []struct {
		name    string
		cfg     func() Config
		seed    int64
		persons int
		faults  func(p *Platform)
		horizon float64
	}{
		{"nominal", DefaultConfig, 2, 0, nil, 1800},
		{"battery-sesame", DefaultConfig, 3, 0, func(p *Platform) {
			at := p.World.Clock.Now() + 60
			_ = p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "u1", 70, 40))
		}, 1200},
		{"battery-baseline", func() Config { c := DefaultConfig(); c.SESAME = false; return c }, 3, 0, func(p *Platform) {
			at := p.World.Clock.Now() + 60
			_ = p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "u1", 70, 40))
		}, 1200},
		{"spoofing", DefaultConfig, 4, 0, func(p *Platform) {
			at := p.World.Clock.Now() + 30
			_ = p.World.ScheduleFault(uavsim.GPSSpoofFault(at, "u2", 135, 3))
		}, 1500},
		{"perception-descend", DefaultConfig, 5, 12, nil, 900},
		{"rotor-loss", DefaultConfig, 10, 0, func(p *Platform) {
			at := p.World.Clock.Now() + 30
			_ = p.World.ScheduleFault(uavsim.RotorFailureFault(at, "u3", 1))
		}, 1200},
		{"combined-stress", DefaultConfig, 15, 0, func(p *Platform) {
			now := p.World.Clock.Now()
			_ = p.World.ScheduleFault(uavsim.BatteryCollapseFault(now+50, "u1", 70, 40))
			_ = p.World.ScheduleFault(uavsim.GPSSpoofFault(now+40, "u2", 135, 3))
		}, 1500},
		{"night-thermal", func() Config {
			c := DefaultConfig()
			c.Visibility = 0.3
			c.SurveyAltitudeM = 30
			return c
		}, 16, 10, nil, 900},
	}
}

// TestSchedulerDeterminism proves the concurrent fleet scheduler is
// bit-identical to the serial path: every scenario must produce the
// same status, decision, event history and availability whether the
// observe phase runs inline (Workers=1) or on a worker pool
// (Workers=8). Run with -race, this also exercises the pool for data
// races.
func TestSchedulerDeterminism(t *testing.T) {
	for _, sc := range schedulerScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			digests := make(map[int]string, 2)
			for _, workers := range []int{1, 8} {
				cfg := sc.cfg()
				cfg.Workers = workers
				p := buildPlatform(t, cfg, sc.seed, sc.persons)
				if err := p.StartMission(ClassicArea(350)); err != nil {
					t.Fatal(err)
				}
				if sc.faults != nil {
					sc.faults(p)
				}
				if err := p.RunMission(sc.horizon); err != nil {
					t.Fatal(err)
				}
				digests[workers] = digestPlatform(t, p)
			}
			if digests[1] != digests[8] {
				t.Errorf("scheduler output diverges: serial %s != pooled %s", digests[1], digests[8])
			}
		})
	}
}

// TestMonitorRegistry checks the per-UAV chain composition for both
// policies and the ExtraMonitors extension point.
func TestMonitorRegistry(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 1, 0)
	want := []string{"colloc", "safedrones", "safeml", "sinadra"}
	got := p.Monitors("u1")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SESAME chain = %v, want %v", got, want)
	}
	if p.Monitors("nope") != nil {
		t.Error("unknown UAV must return nil")
	}

	base := DefaultConfig()
	base.SESAME = false
	pb := buildPlatform(t, base, 1, 0)
	wantB := []string{"colloc", "safedrones", "baseline"}
	if got := pb.Monitors("u2"); fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Errorf("baseline chain = %v, want %v", got, wantB)
	}
}

// noteMonitor is a trivial custom monitor used to test ExtraMonitors.
type noteMonitor struct{ uav string }

func (m *noteMonitor) Name() string { return "note" }

func (m *noteMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	return []eddi.Event{{
		Kind: eddi.KindSafety, UAV: s.UAV, Time: s.Time,
		Severity: 0.1, Summary: "note: observed " + m.uav,
	}}, eddi.Advice{}, nil
}

func TestExtraMonitors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtraMonitors = []func(uav string) (eddi.Runtime, error){
		func(uav string) (eddi.Runtime, error) { return &noteMonitor{uav: uav}, nil },
	}
	p := buildPlatform(t, cfg, 7, 0)
	chain := p.Monitors("u1")
	if len(chain) == 0 || chain[len(chain)-1] != "note" {
		t.Fatalf("custom monitor not appended: %v", chain)
	}
	if err := p.StartMission(ClassicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, ev := range p.Coordinator.History("u1") {
		if strings.HasPrefix(ev.Summary, "note:") {
			found = true
			break
		}
	}
	if !found {
		t.Error("custom monitor events were not emitted")
	}

	bad := DefaultConfig()
	bad.ExtraMonitors = []func(uav string) (eddi.Runtime, error){
		func(uav string) (eddi.Runtime, error) { return nil, fmt.Errorf("boom") },
	}
	w := uavsim.NewWorld(origin, 1)
	if _, err := w.AddUAV(uavsim.UAVConfig{ID: "u1", Home: origin}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(w, nil, bad); err == nil {
		t.Error("failing monitor builder must fail New")
	}
}

// TestDropCountersSurfaced proves the previously-silent data-path
// failures are counted and exposed: a platform configured with a
// public (forbidden) database origin has every telemetry write
// rejected, and the rejections must show up in Status.
func TestDropCountersSurfaced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Origin = "203.0.113.5" // public address: Database rejects it
	p := buildPlatform(t, cfg, 6, 0)
	if err := p.StartMission(ClassicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Status()
	// 3 UAVs x 2 writes x 10 ticks.
	if st.Drops.Database != 60 {
		t.Errorf("Status.Drops.Database = %d, want 60", st.Drops.Database)
	}
	if got := p.Drops(); got != st.Drops {
		t.Errorf("Drops() = %+v disagrees with Status %+v", got, st.Drops)
	}
	if st.Drops.Total() != st.Drops.Database {
		t.Errorf("unexpected non-database drops: %+v", st.Drops)
	}

	// A loopback origin keeps the path clean.
	clean := buildPlatform(t, DefaultConfig(), 6, 0)
	if err := clean.StartMission(ClassicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := clean.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if total := clean.Drops().Total(); total != 0 {
		t.Errorf("clean run dropped %d operations: %+v", total, clean.Drops())
	}
}

// TestLastUAVCrash drives a single-vehicle mission into a crash: with
// nobody left to take over there is no redistribution (the assignment
// guard), the mission ends, and the run must terminate cleanly.
func TestLastUAVCrash(t *testing.T) {
	w := uavsim.NewWorld(origin, 9)
	home := geo.Destination(origin, 200, 20)
	if _, err := w.AddUAV(uavsim.UAVConfig{ID: "solo", Home: home, CruiseSpeedMS: 12}); err != nil {
		t.Fatal(err)
	}
	p, err := New(w, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if err := p.StartMission(ClassicArea(200)); err != nil {
		t.Fatal(err)
	}
	// Fail three rotors: a quad cannot reconfigure, it crashes.
	now := p.World.Clock.Now()
	for idx := 0; idx < 3; idx++ {
		if err := p.World.ScheduleFault(uavsim.RotorFailureFault(now+20+float64(idx), "solo", idx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RunMission(600); err != nil {
		t.Fatalf("RunMission after last-UAV crash: %v", err)
	}
	if mode := w.UAVs()[0].Mode(); mode != uavsim.ModeCrashed {
		t.Fatalf("solo UAV mode = %v, want crashed", mode)
	}
	// The crashed UAV keeps its assignment: nobody survived to take it.
	if _, ok := p.Mission().Assignments["solo"]; !ok {
		t.Error("last UAV's assignment must not be redistributed")
	}
	if !p.missionComplete() {
		t.Error("mission must read complete after the only UAV crashed")
	}
	// RunMission stops on the crash tick; advance the clock so the
	// outage accumulates measurable downtime.
	for i := 0; i < 30; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if a, err := p.UAVAvailability("solo"); err != nil {
		t.Fatal(err)
	} else if a >= 1 {
		t.Errorf("availability = %.3f, want < 1 after crash", a)
	}
}

// TestMissionCompleteDuringSwap holds the mission open while a baseline
// battery swap is pending: a UAV sitting landed at base mid-swap is
// not "done", and the mission must resume and finish afterwards.
func TestMissionCompleteDuringSwap(t *testing.T) {
	w := uavsim.NewWorld(origin, 8)
	home := geo.Destination(origin, 200, 20)
	if _, err := w.AddUAV(uavsim.UAVConfig{ID: "solo", Home: home, CruiseSpeedMS: 12}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SESAME = false
	p, err := New(w, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if err := p.StartMission(ClassicArea(200)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 30
	if err := p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "solo", 70, 40)); err != nil {
		t.Fatal(err)
	}
	st := p.states["solo"]
	sawPendingOnGround := false
	for i := 0; i < 1200; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
		if st.swapPending && st.uav.Mode() == uavsim.ModeLanded {
			sawPendingOnGround = true
			if p.missionComplete() {
				t.Fatal("missionComplete true while a battery swap is pending")
			}
		}
		if sawPendingOnGround && p.missionComplete() {
			break
		}
	}
	if !sawPendingOnGround {
		t.Fatal("scenario never reached the landed-with-pending-swap state")
	}
	if !p.missionComplete() {
		t.Error("mission must complete after the swap resumes and finishes")
	}
	if st.swapPending {
		t.Error("swap must have been completed")
	}
}
