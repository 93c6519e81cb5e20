package platform

// Additional fault-injection scenarios exercising the integration
// paths not covered by the headline §V experiments: rotor loss on a
// quad, C2-link loss, and camera failure during a perception mission.

import (
	"testing"

	"sesame/internal/sar"
	"sesame/internal/uavsim"
)

func TestRotorFailureEmergencyLandsAndRedistributes(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 10, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 30
	if err := p.World.ScheduleFault(uavsim.RotorFailureFault(at, "u3", 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1200); err != nil {
		t.Fatal(err)
	}
	victim, _ := p.World.UAV("u3")
	// A quad with a failed rotor is uncontrollable: the vehicle model
	// crashes it (the monitor's emergency-land advice races the
	// physics; either way it is down).
	if victim.Mode() != uavsim.ModeCrashed && victim.Mode() != uavsim.ModeLanded {
		t.Fatalf("u3 mode = %v, want crashed or landed", victim.Mode())
	}
	// Its strip was redistributed: survivors finished the mission.
	if _, still := p.Mission().Assignments["u3"]; still {
		t.Fatal("u3 still assigned after loss")
	}
	for _, id := range []string{"u1", "u2"} {
		u, _ := p.World.UAV(id)
		if u.RemainingWaypoints() != 0 {
			t.Fatalf("%s did not finish the redistributed work (%d wps left)", id, u.RemainingWaypoints())
		}
	}
	av, err := p.UAVAvailability("u3")
	if err != nil {
		t.Fatal(err)
	}
	if av >= 1 {
		t.Fatal("u3 availability must reflect the loss")
	}
}

func TestCommsLossGroundsUAV(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 11, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 30
	if err := p.World.ScheduleFault(uavsim.CommsFailureFault(at, "u1")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1200); err != nil {
		t.Fatal(err)
	}
	u, _ := p.World.UAV("u1")
	// Total C2 loss drives the comms PoF to 1 -> emergency landing.
	if u.Mode() != uavsim.ModeLanded && u.Mode() != uavsim.ModeEmergencyLanding {
		t.Fatalf("u1 mode = %v after comms loss", u.Mode())
	}
	// The event stream recorded the safety degradation.
	found := false
	for _, ev := range p.Coordinator.History("u1") {
		if ev.Kind.String() == "safety" && ev.Severity > 0.9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no critical safety event recorded for comms loss")
	}
}

func TestCameraFailureDoesNotStopGPSMission(t *testing.T) {
	// Camera loss alone leaves high-performance GPS navigation intact
	// (Fig. 1): the mission continues.
	p := buildPlatform(t, DefaultConfig(), 12, 6)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 20
	if err := p.World.ScheduleFault(uavsim.CameraFailureFault(at, "u2")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1500); err != nil {
		t.Fatal(err)
	}
	u, _ := p.World.UAV("u2")
	if u.Mode() != uavsim.ModeHold || u.RemainingWaypoints() != 0 {
		t.Fatalf("u2 should have finished its sweep: mode %v, %d wps", u.Mode(), u.RemainingWaypoints())
	}
	av, _ := p.UAVAvailability("u2")
	if av < 0.999 {
		t.Fatalf("camera loss must not cost availability on a GPS mission: %v", av)
	}
}

func TestBatterySwapClearsThermalFault(t *testing.T) {
	// Unit-level check of the baseline swap: the replacement pack is
	// healthy even though the old one had a persistent thermal fault.
	b := uavsim.DefaultBattery()
	b.InjectThermalFault(70, 40)
	if !b.Overheating() || b.ChargePct != 40 {
		t.Fatalf("fault not applied: %+v", b)
	}
	b.Swap()
	if b.Overheating() || b.ChargePct != 100 || b.TempC != 25 {
		t.Fatalf("swap did not restore the pack: charge=%v temp=%v", b.ChargePct, b.TempC)
	}
	// The swapped pack no longer self-heats.
	b.Step(100, 0, true)
	if b.TempC > 40 {
		t.Fatalf("swapped pack reheated to %v", b.TempC)
	}
}

func TestBaselineResumesAfterSwap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SESAME = false
	p := buildPlatform(t, cfg, 13, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 60
	if err := p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "u1", 70, 40)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1500); err != nil {
		t.Fatal(err)
	}
	u, _ := p.World.UAV("u1")
	// After abort, swap and redeploy the UAV finishes its own strip.
	if u.Mode() != uavsim.ModeHold || u.RemainingWaypoints() != 0 {
		t.Fatalf("baseline u1 did not resume and finish: mode %v, %d wps", u.Mode(), u.RemainingWaypoints())
	}
	// Its pack is the fresh one.
	if u.Battery.Overheating() {
		t.Fatal("battery was not swapped")
	}
	av, _ := p.UAVAvailability("u1")
	if av >= 0.95 || av <= 0.3 {
		t.Fatalf("baseline u1 availability = %v, want a clear but partial loss", av)
	}
}

func TestJammingDetectedViaHijackTree(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 14, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 30
	if err := p.World.ScheduleFault(uavsim.CommsFailureFault(at, "u2")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(600); err != nil {
		t.Fatal(err)
	}
	// The silenced telemetry topics trip the IDS link-silence rule and
	// reach the C2-hijack attack-tree root.
	if !p.Security.CompromisedBy("u2", "u2/c2-hijack") {
		t.Fatalf("hijack tree not reached; alerts: %v", p.IDS.Alerts())
	}
	// The spoofing tree stays untouched (silence is not a GPS anomaly),
	// so no collaborative landing was triggered.
	if p.Security.CompromisedBy("u2", "u2/map-manipulation") {
		t.Fatal("spoofing tree should not fire on jamming")
	}
	if p.states["u2"].collocCtrl != nil {
		t.Fatal("jamming must not trigger collaborative localization")
	}
	// The vehicle itself was grounded by the comms-loss PoF.
	u, _ := p.World.UAV("u2")
	if u.Mode() != uavsim.ModeLanded && u.Mode() != uavsim.ModeEmergencyLanding {
		t.Fatalf("u2 mode = %v", u.Mode())
	}
}

func TestCombinedBatteryAndSpoofingStress(t *testing.T) {
	// Both headline faults in one mission: u1's battery collapses while
	// u2 is being spoofed. The platform must mitigate both — u2 lands
	// collaboratively, u1 flies on under the EDDI policy — and the
	// survivors absorb the work.
	p := buildPlatform(t, DefaultConfig(), 15, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	now := p.World.Clock.Now()
	if err := p.World.ScheduleFault(uavsim.BatteryCollapseFault(now+50, "u1", 70, 40)); err != nil {
		t.Fatal(err)
	}
	if err := p.World.ScheduleFault(uavsim.GPSSpoofFault(now+40, "u2", 135, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1500); err != nil {
		t.Fatal(err)
	}
	// u2: detected, collaboratively landed.
	if !p.Security.CompromisedBy("u2", "u2/map-manipulation") {
		t.Fatal("spoofing undetected under combined stress")
	}
	u2, _ := p.World.UAV("u2")
	if u2.Mode() != uavsim.ModeLanded {
		t.Fatalf("u2 mode = %v", u2.Mode())
	}
	// u1: kept flying (EDDI policy) and finished its own strip.
	u1, _ := p.World.UAV("u1")
	if u1.Mode() == uavsim.ModeCrashed {
		t.Fatal("u1 crashed; the EDDI should have managed the battery fault")
	}
	if u1.RemainingWaypoints() != 0 {
		t.Fatalf("u1 left %d waypoints", u1.RemainingWaypoints())
	}
	// u3 absorbed u2's redistribution and finished.
	u3, _ := p.World.UAV("u3")
	if u3.RemainingWaypoints() != 0 {
		t.Fatalf("u3 left %d waypoints", u3.RemainingWaypoints())
	}
	if _, still := p.Mission().Assignments["u2"]; still {
		t.Fatal("u2 still assigned")
	}
}

func TestNightMissionAutoThermal(t *testing.T) {
	// At visibility 0.3 the platform flies thermal: perception
	// uncertainty reflects only the altitude drift (manageable by
	// descending), not the optical collapse that would floor an RGB
	// pipeline.
	cfg := DefaultConfig()
	cfg.Visibility = 0.3
	cfg.SurveyAltitudeM = 30 // near reference: little altitude drift
	thermal := buildPlatform(t, cfg, 16, 10)
	if err := thermal.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	if err := thermal.RunMission(900); err != nil {
		t.Fatal(err)
	}

	cfgRGB := cfg
	cfgRGB.UseThermalBelow = 0 // force RGB at night
	rgb := buildPlatform(t, cfgRGB, 16, 10)
	if err := rgb.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	if err := rgb.RunMission(900); err != nil {
		t.Fatal(err)
	}

	maxUncert := func(p *Platform) float64 {
		worst := 0.0
		for _, ev := range p.Coordinator.History("") {
			if ev.Kind.String() == "perception" && ev.Severity > worst {
				worst = ev.Severity
			}
		}
		return worst
	}
	uThermal := maxUncert(thermal)
	uRGB := maxUncert(rgb)
	if uThermal == 0 || uRGB == 0 {
		t.Fatalf("missing perception events: thermal=%v rgb=%v", uThermal, uRGB)
	}
	// RGB at night drifts hard against its daylight reference; the
	// thermal pipeline, referenced on thermal frames, stays calm.
	if uRGB < 0.9 {
		t.Fatalf("night RGB uncertainty = %v, expected reject-level", uRGB)
	}
	if uThermal >= uRGB {
		t.Fatalf("thermal uncertainty (%v) must stay below RGB (%v)", uThermal, uRGB)
	}
}

func TestMissionWithExpandingSquarePlanner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoveragePlanner = sar.ExpandingSquarePath
	cfg.SweepSpacingM = 45
	p := buildPlatform(t, cfg, 17, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1800); err != nil {
		t.Fatal(err)
	}
	for _, u := range p.World.UAVs() {
		if u.Mode() != uavsim.ModeHold || u.RemainingWaypoints() != 0 {
			t.Fatalf("%s did not finish its expanding square: mode %v, %d wps",
				u.ID(), u.Mode(), u.RemainingWaypoints())
		}
	}
	av, err := p.Availability()
	if err != nil || av < 0.999 {
		t.Fatalf("availability = %v err = %v", av, err)
	}
}
