package uavsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sesame/internal/geo"
	"sesame/internal/rosbus"
)

var testOrigin = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

func newTestWorld(t *testing.T) *World {
	t.Helper()
	return NewWorld(testOrigin, 42)
}

func addUAV(t *testing.T, w *World, id string) *UAV {
	t.Helper()
	u, err := w.AddUAV(UAVConfig{ID: id, Home: testOrigin, CruiseSpeedMS: 10, ClimbRateMS: 3})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestAddUAVValidation(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.AddUAV(UAVConfig{ID: "", Home: testOrigin}); err == nil {
		t.Error("empty id must fail")
	}
	if _, err := w.AddUAV(UAVConfig{ID: "u1", Home: geo.LatLng{Lat: 999}}); err == nil {
		t.Error("invalid home must fail")
	}
	addUAV(t, w, "u1")
	if _, err := w.AddUAV(UAVConfig{ID: "u1", Home: testOrigin}); err == nil {
		t.Error("duplicate id must fail")
	}
	if _, err := w.UAV("u1"); err != nil {
		t.Error("lookup failed")
	}
	if _, err := w.UAV("nope"); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestTakeOffAndClimb(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	if err := u.TakeOff(30); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeHold {
		t.Fatalf("mode = %v", u.Mode())
	}
	if err := w.Run(15, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.AltitudeM()-30) > 0.01 {
		t.Fatalf("altitude = %v, want 30 (3 m/s for >=10 s)", u.AltitudeM())
	}
}

func TestTakeOffValidation(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	if err := u.TakeOff(-5); err == nil {
		t.Error("negative altitude must fail")
	}
	if err := u.TakeOff(30); err != nil {
		t.Fatal(err)
	}
	if err := u.TakeOff(30); err == nil {
		t.Error("double takeoff must fail")
	}
}

func TestMissionFliesWaypoints(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 30)

	wp1 := geo.Destination(testOrigin, 90, 200)
	wp2 := geo.Destination(wp1, 0, 100)
	if err := u.FlyMission([]geo.LatLng{wp1, wp2}, 30); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(w.Clock.Now()+120, 0.5); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeHold {
		t.Fatalf("mode = %v, want hold after mission", u.Mode())
	}
	if d := geo.Haversine(u.TruePosition(), wp2); d > 5 {
		t.Fatalf("final position %.1f m from last waypoint", d)
	}
}

func mustTakeOff(t *testing.T, w *World, u *UAV, alt float64) {
	t.Helper()
	if err := u.TakeOff(alt); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(w.Clock.Now()+alt/3+2, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestMissionRequiresAirborne(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	if err := u.FlyMission([]geo.LatLng{testOrigin}, 30); err == nil {
		t.Fatal("grounded mission must fail")
	}
	if err := u.TakeOff(10); err != nil {
		t.Fatal(err)
	}
	if err := u.FlyMission(nil, 30); err == nil {
		t.Fatal("empty waypoints must fail")
	}
}

func TestReturnToBaseLands(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 20)
	wp := geo.Destination(testOrigin, 45, 150)
	if err := u.FlyMission([]geo.LatLng{wp}, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(w.Clock.Now()+30, 0.5); err != nil {
		t.Fatal(err)
	}
	u.ReturnToBase()
	if err := w.Run(w.Clock.Now()+60, 0.5); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeLanded {
		t.Fatalf("mode = %v, want landed", u.Mode())
	}
	if d := geo.Haversine(u.TruePosition(), testOrigin); d > 5 {
		t.Fatalf("landed %.1f m from home", d)
	}
	if u.AltitudeM() != 0 {
		t.Fatalf("altitude = %v after landing", u.AltitudeM())
	}
}

func TestEmergencyLandFaster(t *testing.T) {
	w := newTestWorld(t)
	a := addUAV(t, w, "a")
	b := addUAV(t, w, "b")
	mustTakeOff(t, w, a, 30)
	mustTakeOff(t, w, b, 30)
	a.Land()
	b.EmergencyLand()
	_ = w.Step(1)
	if b.AltitudeM() >= a.AltitudeM() {
		t.Fatalf("emergency landing must descend faster: a=%v b=%v", a.AltitudeM(), b.AltitudeM())
	}
}

func TestBatteryDrainsInFlight(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	start := u.Battery.ChargePct
	mustTakeOff(t, w, u, 20)
	if err := w.Run(w.Clock.Now()+100, 1); err != nil {
		t.Fatal(err)
	}
	if u.Battery.ChargePct >= start {
		t.Fatal("battery did not drain")
	}
	if u.Battery.TempC <= 25 {
		t.Fatalf("battery did not heat under load: %v", u.Battery.TempC)
	}
}

func TestBatteryCollapseFault(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 20)
	if err := w.ScheduleFault(BatteryCollapseFault(w.Clock.Now()+10, "u1", 70, 40)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(w.Clock.Now()+9, 1); err != nil {
		t.Fatal(err)
	}
	if u.Battery.ChargePct < 50 {
		t.Fatalf("fault fired early: %v", u.Battery.ChargePct)
	}
	if err := w.Run(w.Clock.Now()+2, 1); err != nil {
		t.Fatal(err)
	}
	if u.Battery.ChargePct > 40 {
		t.Fatalf("charge = %v, want <= 40 after fault", u.Battery.ChargePct)
	}
	if !u.Battery.Overheating() {
		t.Fatal("pack must be overheating after thermal fault")
	}
}

func TestDepletedBatteryCrashes(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 20)
	u.Battery.ChargePct = 0.001
	if err := w.Run(w.Clock.Now()+5, 1); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeCrashed {
		t.Fatalf("mode = %v, want crashed", u.Mode())
	}
}

// TestCriticalChargeLands pins the critical-charge failsafe: a vehicle
// that reaches it lands where it is instead of flying its pack flat,
// also while an external guidance override steers it.
func TestCriticalChargeLands(t *testing.T) {
	for _, override := range []bool{false, true} {
		w := newTestWorld(t)
		u := addUAV(t, w, "u1")
		mustTakeOff(t, w, u, 20)
		if override {
			u.GuidanceOverride = func(*UAV, float64) geo.ENU { return geo.ENU{East: 5} }
		}
		u.Battery.ChargePct = criticalChargePct + 1
		if err := w.Run(w.Clock.Now()+120, 1); err != nil {
			t.Fatal(err)
		}
		if u.Mode() != ModeLanded || u.Battery.Depleted() {
			t.Fatalf("override %v: mode %v at %.2f %% charge, want landed on charge left", override, u.Mode(), u.Battery.ChargePct)
		}
	}
}

func TestRotorFailureQuadCrashes(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 20)
	if err := w.ScheduleFault(RotorFailureFault(w.Clock.Now()+1, "u1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(w.Clock.Now()+3, 1); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeCrashed {
		t.Fatalf("quad with failed rotor must crash, mode = %v", u.Mode())
	}
	if u.FailedRotors() != 1 {
		t.Fatalf("FailedRotors = %d", u.FailedRotors())
	}
}

func TestRotorFailureHexSurvives(t *testing.T) {
	w := newTestWorld(t)
	u, err := w.AddUAV(UAVConfig{ID: "hex", Home: testOrigin, Rotors: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.TakeOff(20); err != nil {
		t.Fatal(err)
	}
	_ = w.Run(10, 1)
	_ = u.FailRotor(0)
	_ = u.FailRotor(3)
	_ = w.Run(12, 1)
	if u.Mode() == ModeCrashed {
		t.Fatal("hexrotor must tolerate two failures")
	}
	_ = u.FailRotor(1)
	if u.Mode() != ModeCrashed {
		t.Fatal("three failures must crash a hexrotor")
	}
	if err := u.FailRotor(99); err == nil {
		t.Fatal("out of range rotor must fail")
	}
}

func TestGPSSpoofDeflectsTrajectory(t *testing.T) {
	// Two identical missions; one vehicle gets spoofed. The spoofed
	// vehicle's true track must deviate from the clean one.
	clean := NewWorld(testOrigin, 7)
	attacked := NewWorld(testOrigin, 7)
	for _, w := range []*World{clean, attacked} {
		u, err := w.AddUAV(UAVConfig{ID: "u1", Home: testOrigin, CruiseSpeedMS: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.TakeOff(25); err != nil {
			t.Fatal(err)
		}
		_ = w.Run(10, 0.5)
		wps := []geo.LatLng{
			geo.Destination(testOrigin, 90, 300),
			geo.Destination(geo.Destination(testOrigin, 90, 300), 0, 100),
		}
		if err := u.FlyMission(wps, 25); err != nil {
			t.Fatal(err)
		}
	}
	if err := attacked.ScheduleFault(GPSSpoofFault(15, "u1", 180, 2.0)); err != nil {
		t.Fatal(err)
	}
	_ = clean.Run(60, 0.5)
	_ = attacked.Run(60, 0.5)
	cu, _ := clean.UAV("u1")
	au, _ := attacked.UAV("u1")
	dev := geo.Haversine(cu.TruePosition(), au.TruePosition())
	if dev < 20 {
		t.Fatalf("spoofed trajectory deviated only %.1f m", dev)
	}
	// The spoofed UAV's reported (believed) position differs from truth.
	fix, ok := au.GPS.Fix(au.TruePosition(), au.AltitudeM(), "u1", 0)
	if !ok {
		t.Fatal("spoofed GPS must still produce a fix")
	}
	if d := geo.Haversine(fix.Position, au.TruePosition()); d < 20 {
		t.Fatalf("spoof offset only %.1f m", d)
	}
}

func TestGPSDropout(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	u.GPS.Mode = GPSModeDropout
	fix, ok := u.GPS.Fix(u.TruePosition(), 0, "u1", 0)
	if ok {
		t.Fatal("dropout must not produce a fix")
	}
	if fix.Quality != GPSLost {
		t.Fatalf("quality = %v, want lost", fix.Quality)
	}
}

func TestTelemetryPublished(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	var gps []GPSFix
	var batt []BatteryState
	var health []HealthState
	var status []StatusReport
	_, _ = w.Bus.Subscribe(GPSTopic("u1"), func(m rosbus.Message) { gps = append(gps, m.Payload.(GPSFix)) })
	_, _ = w.Bus.Subscribe(BatteryTopic("u1"), func(m rosbus.Message) { batt = append(batt, m.Payload.(BatteryState)) })
	_, _ = w.Bus.Subscribe(HealthTopic("u1"), func(m rosbus.Message) { health = append(health, m.Payload.(HealthState)) })
	_, _ = w.Bus.Subscribe(StatusTopic("u1"), func(m rosbus.Message) { status = append(status, m.Payload.(StatusReport)) })
	if err := u.TakeOff(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5, 1); err != nil {
		t.Fatal(err)
	}
	if len(gps) != 5 || len(batt) != 5 || len(health) != 5 || len(status) != 5 {
		t.Fatalf("telemetry counts: gps=%d batt=%d health=%d status=%d", len(gps), len(batt), len(health), len(status))
	}
	if gps[0].UAV != "u1" || batt[0].UAV != "u1" {
		t.Fatal("telemetry mislabelled")
	}
	if status[4].Mode != ModeHold && status[4].Mode != ModeMission {
		t.Fatalf("status mode = %v", status[4].Mode)
	}
	if batt[4].ChargePct >= batt[0].ChargePct {
		t.Fatal("battery telemetry must show drain")
	}
}

func TestTelemetryPublishFailuresCounted(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	if err := u.TakeOff(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := w.Drops().TelemetryPublish; got != 0 {
		t.Fatalf("healthy bus produced %d telemetry drops", got)
	}
	// A bus filter rejecting every frame from u1 models a refusing
	// link; every failed publish must be counted, not discarded.
	boom := errors.New("link rejects frame")
	w.Bus.SetFilter(func(m rosbus.Message) (bool, error) {
		if m.Publisher == "u1" {
			return false, boom
		}
		return true, nil
	})
	if err := w.Run(5, 1); err != nil {
		t.Fatal(err)
	}
	// 3 seconds × 4 topics.
	if got := w.Drops().TelemetryPublish; got != 12 {
		t.Fatalf("TelemetryPublish = %d, want 12", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() geo.LatLng {
		w := NewWorld(testOrigin, 99)
		u, _ := w.AddUAV(UAVConfig{ID: "u1", Home: testOrigin})
		_ = u.TakeOff(20)
		_ = w.Run(8, 0.5)
		_ = u.FlyMission([]geo.LatLng{geo.Destination(testOrigin, 60, 250)}, 20)
		_ = w.Run(40, 0.5)
		return u.TruePosition()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestWindDrift(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	mustTakeOff(t, w, u, 20)
	w.Wind = geo.ENU{East: 3, North: 0}
	u.Hold() // hovering, wind pushes it
	start := u.TrueENU()
	_ = w.Run(w.Clock.Now()+10, 1)
	drift := u.TrueENU().Sub(start)
	if drift.East < 25 {
		t.Fatalf("wind drift east = %v, want ~30", drift.East)
	}
}

func TestModeStrings(t *testing.T) {
	for m := ModeIdle; m <= ModeCrashed; m++ {
		if m.String() == "" {
			t.Fatalf("mode %d has empty name", m)
		}
	}
	if FlightMode(99).String() == "" || GPSQuality(99).String() == "" {
		t.Fatal("unknown values must render")
	}
	if !ModeMission.Airborne() || ModeLanded.Airborne() {
		t.Fatal("Airborne classification wrong")
	}
}

func TestScheduleFaultValidation(t *testing.T) {
	w := newTestWorld(t)
	addUAV(t, w, "u1")
	if err := w.ScheduleFault(Fault{At: 1, UAV: "u1"}); err == nil {
		t.Error("nil Apply must fail")
	}
	if err := w.ScheduleFault(BatteryCollapseFault(1, "ghost", 70, 40)); err == nil {
		t.Error("unknown UAV must fail")
	}
	if err := w.Step(0); err == nil {
		t.Error("zero dt must fail")
	}
}

func TestCameraFault(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	_ = w.ScheduleFault(CameraFailureFault(2, "u1"))
	_ = w.Run(3, 1)
	if u.Camera.OK {
		t.Fatal("camera must be failed")
	}
}

func BenchmarkWorldStepThreeUAVs(b *testing.B) {
	w := NewWorld(testOrigin, 1)
	for _, id := range []string{"u1", "u2", "u3"} {
		u, _ := w.AddUAV(UAVConfig{ID: id, Home: testOrigin})
		_ = u.TakeOff(20)
	}
	_ = w.Run(10, 1)
	for _, u := range w.UAVs() {
		_ = u.FlyMission([]geo.LatLng{geo.Destination(testOrigin, 90, 5000)}, 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Step(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGustDriftBounded(t *testing.T) {
	w := newTestWorld(t)
	u := addUAV(t, w, "u1")
	w.GustSigmaMS = 2
	w.GustTauS = 20
	mustTakeOff(t, w, u, 20)
	u.Hold()
	start := u.TrueENU()
	_ = w.Run(w.Clock.Now()+120, 1)
	drift := u.TrueENU().Sub(start).Norm()
	// A zero-mean gust wanders the hover but must stay well below the
	// ballistic bound sigma*t.
	if drift == 0 {
		t.Fatal("gusts produced no drift at all")
	}
	if drift > 2*120*0.5 {
		t.Fatalf("gust drift %v m too large for zero-mean turbulence", drift)
	}
	// Current wind differs from the configured mean while gusting.
	if w.CurrentWind() == w.Wind {
		t.Fatal("gust component missing from CurrentWind")
	}
}

func TestGustDisabledByDefault(t *testing.T) {
	w := newTestWorld(t)
	if w.CurrentWind() != w.Wind {
		t.Fatal("no gusts expected by default")
	}
	_ = w.Step(1)
	if w.CurrentWind() != w.Wind {
		t.Fatal("gust state must stay zero when disabled")
	}
}

func TestBatteryChargeMonotoneProperty(t *testing.T) {
	f := func(seed int64, speedRaw float64) bool {
		b := DefaultBattery()
		speed := math.Mod(math.Abs(speedRaw), 20)
		prev := b.ChargePct
		for i := 0; i < 500; i++ {
			b.Step(1, speed, true)
			if b.ChargePct > prev || b.ChargePct < 0 {
				return false
			}
			prev = b.ChargePct
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryVoltageTracksCharge(t *testing.T) {
	b := DefaultBattery()
	vFull := b.Voltage()
	b.ChargePct = 0
	vEmpty := b.Voltage()
	if vEmpty >= vFull {
		t.Fatalf("voltage must sag: %v -> %v", vFull, vEmpty)
	}
	if vEmpty < 0.8*b.NominalVoltage {
		t.Fatalf("empty voltage %v implausibly low", vEmpty)
	}
}
