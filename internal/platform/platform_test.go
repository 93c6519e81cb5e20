package platform

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"sesame/internal/conserts"
	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/obsv"
	"sesame/internal/safedrones"
	"sesame/internal/safeml"
	"sesame/internal/scenario"
	"sesame/internal/sinadra"
	"sesame/internal/uavsim"
)

// origin and classicArea are the classic mission's home point and
// survey square.
var (
	origin      = scenario.Home.LatLng()
	classicArea = scenario.ClassicSquare
)

// buildPlatform spins up a 3-UAV world with an optional scene.
func buildPlatform(t *testing.T, cfg Config, seed int64, persons int) *Platform {
	t.Helper()
	w := uavsim.NewWorld(origin, seed)
	for _, id := range []string{"u1", "u2", "u3"} {
		home := geo.Destination(origin, 200, 20)
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: id, Home: home, CruiseSpeedMS: 12}); err != nil {
			t.Fatal(err)
		}
	}
	var scene *detection.Scene
	if persons > 0 {
		var err error
		scene, err = detection.NewRandomScene(classicArea(400), persons, 0.2, w.Clock.Stream("scene"))
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(w, scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, DefaultConfig()); err == nil {
		t.Error("nil world must fail")
	}
	w := uavsim.NewWorld(origin, 1)
	if _, err := New(w, nil, DefaultConfig()); err == nil {
		t.Error("empty fleet must fail")
	}
	_, _ = w.AddUAV(uavsim.UAVConfig{ID: "u1", Home: origin})
	bad := DefaultConfig()
	bad.SurveyAltitudeM = 0
	if _, err := New(w, nil, bad); err == nil {
		t.Error("zero altitude must fail")
	}
	for _, o := range []string{"", "not-an-ip", "10.0.0.1:port", "fe80::1%eth0"} {
		bad := DefaultConfig()
		bad.Origin = o
		if _, err := New(w, nil, bad); err == nil {
			t.Errorf("origin %q must fail", o)
		}
	}
	// A public origin parses: the database refuses each write instead,
	// as a counted drop.
	public := DefaultConfig()
	public.Origin = "203.0.113.5"
	p, err := New(w, nil, public)
	if err != nil {
		t.Fatalf("public origin: %v", err)
	}
	p.Close()
}

// TestConfigDigestCoversConfig holds ConfigDigest to Config: every
// field that shapes the trajectory moves the digest, the layout and
// instrumentation fields leave it alone, and each Config field is
// classified as one or the other, so a new field cannot slip past the
// digest unnoticed.
func TestConfigDigestCoversConfig(t *testing.T) {
	digest := func(c Config) string { return (&Platform{cfg: c}).ConfigDigest() }
	base := digest(DefaultConfig())
	shaping := map[string]func(*Config){
		"SESAME":          func(c *Config) { c.SESAME = false },
		"SurveyAltitudeM": func(c *Config) { c.SurveyAltitudeM = 50 },
		"SweepSpacingM":   func(c *Config) { c.SweepSpacingM = 25 },
		"Visibility":      func(c *Config) { c.Visibility = 0.4 },
		"UseThermalBelow": func(c *Config) { c.UseThermalBelow = 0.3 },
		"Origin":          func(c *Config) { c.Origin = "10.0.0.2" },
		"Scenario":        func(c *Config) { c.Scenario = scenario.Classic(1, 3, 10, 400) },
	}
	neutral := map[string]func(*Config){
		"Workers":       func(c *Config) { c.Workers = 7 },
		"Cells":         func(c *Config) { c.Cells = 5 },
		"Observability": func(c *Config) { c.Observability = obsv.NewRegistry() },
	}
	// Function-typed fields cannot be digested; the caller keeps them
	// consistent across a resume.
	undigestable := map[string]bool{"CoveragePlanner": true, "ExtraMonitors": true}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if shaping[name] == nil && neutral[name] == nil && !undigestable[name] {
			t.Errorf("Config.%s is not classified for ConfigDigest", name)
		}
	}
	for name, perturb := range shaping {
		c := DefaultConfig()
		perturb(&c)
		if digest(c) == base {
			t.Errorf("perturbing %s left ConfigDigest unchanged", name)
		}
	}
	for name, perturb := range neutral {
		c := DefaultConfig()
		perturb(&c)
		if digest(c) != base {
			t.Errorf("perturbing %s changed ConfigDigest", name)
		}
	}
}

func TestStartMissionDispatchesFleet(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 1, 0)
	if err := p.StartMission(classicArea(400)); err != nil {
		t.Fatal(err)
	}
	if err := p.StartMission(classicArea(400)); err == nil {
		t.Fatal("double start must fail")
	}
	for _, u := range p.World.UAVs() {
		if u.Mode() != uavsim.ModeMission {
			t.Fatalf("%s mode = %v, want mission", u.ID(), u.Mode())
		}
		if u.RemainingWaypoints() == 0 {
			t.Fatalf("%s has no waypoints", u.ID())
		}
	}
	if p.Mission() == nil {
		t.Fatal("mission not recorded")
	}
}

func TestNominalMissionCompletes(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 2, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1800); err != nil {
		t.Fatal(err)
	}
	av, err := p.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if av < 0.999 {
		t.Fatalf("nominal availability = %v, want 1", av)
	}
	if p.Decision() != conserts.MissionAsPlanned {
		t.Fatalf("decision = %v", p.Decision())
	}
	// Every UAV finished its sweep (holding with no waypoints).
	for _, u := range p.World.UAVs() {
		if u.Mode() != uavsim.ModeHold || u.RemainingWaypoints() != 0 {
			t.Fatalf("%s did not finish: mode %v, %d wps", u.ID(), u.Mode(), u.RemainingWaypoints())
		}
	}
}

// TestFig5BatteryScenario reproduces the §V-A comparison through the
// full platform: a battery collapse on one UAV mid-mission.
func TestFig5BatteryScenario(t *testing.T) {
	run := func(sesame bool) (avail, completion float64) {
		cfg := DefaultConfig()
		cfg.SESAME = sesame
		p := buildPlatform(t, cfg, 3, 0)
		start := p.World.Clock.Now()
		if err := p.StartMission(classicArea(350)); err != nil {
			t.Fatal(err)
		}
		// Fault at mission-relative t=60: drop to 40% at 70C.
		at := p.World.Clock.Now() + 60
		if err := p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "u1", 70, 40)); err != nil {
			t.Fatal(err)
		}
		if err := p.RunMission(1200); err != nil {
			t.Fatal(err)
		}
		a, err := p.Availability()
		if err != nil {
			t.Fatal(err)
		}
		return a, p.World.Clock.Now() - start
	}
	withAvail, withTime := run(true)
	withoutAvail, withoutTime := run(false)
	// The §V-A shape: SESAME keeps the faulted UAV flying (PoF below
	// threshold) and it finishes its own task; the baseline aborts,
	// swaps the battery at base (60 s) and redeploys, stretching the
	// mission and losing availability.
	if withAvail < withoutAvail+0.05 {
		t.Fatalf("SESAME availability (%v) must clearly beat baseline (%v); paper shape is 91%% vs 80%%", withAvail, withoutAvail)
	}
	if withAvail < 0.95 {
		t.Fatalf("SESAME availability = %v; the faulted UAV should finish its task", withAvail)
	}
	if withTime >= withoutTime {
		t.Fatalf("SESAME completion (%v s) must beat baseline (%v s); paper: ~11%% improvement", withTime, withoutTime)
	}
}

// TestSpoofingMitigationChain reproduces §V-C end to end on the
// platform: spoof -> IDS -> Security EDDI -> ConSerts evidence ->
// Collaborative Localization -> safe landing; survivors absorb the
// victim's waypoints. The chain is checked at seed 4; the landing
// precision is a band over a seed sweep, since one seed's error is a
// lottery ticket that any change to the random streams redraws.
func TestSpoofingMitigationChain(t *testing.T) {
	p := flySpoofChain(t, 4)
	if !p.Security.Compromised("u2") {
		t.Fatal("spoofing never detected")
	}
	victim, _ := p.World.UAV("u2")
	if victim.Mode() != uavsim.ModeLanded {
		t.Fatalf("victim mode = %v, want landed", victim.Mode())
	}
	if p.states["u2"].collocCtrl == nil {
		t.Fatal("collaborative localization never engaged")
	}
	// Victim's waypoints were redistributed to survivors.
	if _, still := p.Mission().Assignments["u2"]; still {
		t.Fatal("victim still assigned")
	}
	// Security events were coordinated.
	found := false
	for _, ev := range p.Coordinator.History("u2") {
		if ev.Severity == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no critical security event recorded")
	}

	// Landing precision: the nearest-rank p90 of the landing error over
	// seeds 1..64 (1..16 under -short) stays within 15 m. The code this
	// band was set on read p90 14.4 m over 64 seeds (p50 11.4 m, 6 seeds
	// over 15 m; seed 4 alone 14.0 m). A run whose collaborative landing
	// never engaged counts as infinitely far off.
	seeds := 64
	if testing.Short() {
		seeds = 16
	}
	errs := make([]float64, 0, seeds)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		e := math.Inf(1)
		if ctrl := flySpoofChain(t, seed).states["u2"].collocCtrl; ctrl != nil {
			e = ctrl.LandingError()
		}
		errs = append(errs, e)
	}
	sort.Float64s(errs)
	rank := func(q float64) float64 { return errs[int(math.Ceil(q*float64(len(errs))))-1] }
	p90 := rank(0.9)
	t.Logf("landing error over %d seeds: p50 %.1f m, p90 %.1f m", seeds, rank(0.5), p90)
	if p90 > 15 {
		t.Fatalf("landing error p90 %.1f m over %d seeds, want <= 15 m", p90, seeds)
	}
}

// flySpoofChain flies the 3-UAV classic mission with u2 spoofed 30 s
// after the start and returns the platform at the end of the run.
func flySpoofChain(t *testing.T, seed int64) *Platform {
	t.Helper()
	p := buildPlatform(t, DefaultConfig(), seed, 0)
	if err := p.StartMission(classicArea(350)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 30
	if err := p.World.ScheduleFault(uavsim.GPSSpoofFault(at, "u2", 135, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(1500); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAccuracyPipelineDescends reproduces the §V-B trigger: at 60 m
// the SafeML uncertainty exceeds 90% and SINADRA advises descending.
func TestAccuracyPipelineDescends(t *testing.T) {
	cfg := DefaultConfig() // survey at 60 m
	p := buildPlatform(t, cfg, 5, 12)
	if err := p.StartMission(classicArea(400)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunMission(900); err != nil {
		t.Fatal(err)
	}
	descended := 0
	for _, id := range []string{"u1", "u2", "u3"} {
		if p.states[id].descended {
			descended++
		}
	}
	if descended == 0 {
		t.Fatal("no UAV descended despite high-altitude uncertainty")
	}
	// Perception events were emitted.
	sawPerception := false
	for _, ev := range p.Coordinator.History("") {
		if ev.Kind.String() == "perception" {
			sawPerception = true
			break
		}
	}
	if !sawPerception {
		t.Fatal("no perception events recorded")
	}
}

func TestDatabasePopulated(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 6, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	uavs, err := p.DB.KnownUAVs("10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(uavs) != 3 {
		t.Fatalf("DB knows %v", uavs)
	}
	pos, ts, err := p.DB.Location("127.0.0.1", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if !pos.Valid() || ts <= 0 {
		t.Fatalf("location = %v @ %v", pos, ts)
	}
	recs, err := p.DB.Records("10.1.2.3", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Key != "battery" {
		t.Fatalf("records = %v", recs)
	}
	// External origins are rejected.
	if _, err := p.DB.Records("8.8.8.8", "u1"); err != ErrForbiddenOrigin {
		t.Fatalf("external origin err = %v", err)
	}
}

func TestDatabaseOriginValidation(t *testing.T) {
	db := NewDatabase(10)
	if err := db.PutRecord("8.8.8.8:443", "u1", Record{Key: "k"}); err != ErrForbiddenOrigin {
		t.Fatalf("err = %v", err)
	}
	if err := db.PutRecord("not-an-ip", "u1", Record{Key: "k"}); err == nil {
		t.Fatal("garbage origin must fail")
	}
	if err := db.PutRecord("192.168.1.5:1234", "u1", Record{Key: "k"}); err != nil {
		t.Fatalf("private origin rejected: %v", err)
	}
	if err := db.PutRecord("10.0.0.1", "", Record{Key: "k"}); err == nil {
		t.Fatal("empty uav must fail")
	}
	if err := db.PutLocation("10.0.0.1", "u1", geo.LatLng{Lat: 999}, 1); err == nil {
		t.Fatal("invalid position must fail")
	}
	if _, _, err := db.Location("10.0.0.1", "ghost"); err == nil {
		t.Fatal("unknown uav must fail")
	}
	// Record limit enforced.
	for i := 0; i < 20; i++ {
		_ = db.PutRecord("10.0.0.1", "u1", Record{Key: "k", Time: float64(i)})
	}
	recs, _ := db.Records("10.0.0.1", "u1")
	if len(recs) != 10 {
		t.Fatalf("limit failed: %d records", len(recs))
	}
	if recs[0].Time != 10 {
		t.Fatalf("oldest kept = %v", recs[0].Time)
	}
}

// TestCheckOrigin pins which origin spellings the database admits.
func TestCheckOrigin(t *testing.T) {
	for _, tc := range []struct {
		origin string
		want   string // "ok", "forbidden" or "unparseable"
	}{
		{"10.0.0.1", "ok"},
		{"127.0.0.1:8080", "ok"},
		{"192.168.1.5:1234", "ok"},
		{"::1", "ok"},
		{"[::1]:80", "ok"},
		{"fd00::1", "ok"},
		{"::ffff:10.0.0.1", "ok"},
		{"8.8.8.8", "forbidden"},
		{"8.8.8.8:443", "forbidden"},
		{"[2001:db8::1]:443", "forbidden"},
		{"not-an-ip", "unparseable"},
		{"", "unparseable"},
		{"10.0.0.1:", "unparseable"},
		{"10.0.0.1:http", "unparseable"},
		{"[10.0.0.1]:80", "unparseable"},
		{"[::1]", "unparseable"},
		{"fe80::1%eth0", "unparseable"},
		{"[fe80::1%eth0]:80", "unparseable"},
	} {
		err := checkOrigin(tc.origin)
		got := "unparseable"
		switch {
		case err == nil:
			got = "ok"
		case err == ErrForbiddenOrigin:
			got = "forbidden"
		}
		if got != tc.want {
			t.Errorf("%q: %s (%v), want %s", tc.origin, got, err, tc.want)
		}
	}
}

// TestBatteryValueFormat: the telemetry record's value is the "%.1f"
// rendering of the charge for every float64, special values included.
func TestBatteryValueFormat(t *testing.T) {
	for _, v := range []float64{0, -0.0, 0.05, 0.15, 0.25, 49.95, 99.99, 100, 1e21, -3.25,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		want := fmt.Sprintf("%.1f", v)
		if got := strconv.FormatFloat(v, 'f', 1, 64); got != want {
			t.Errorf("%v: FormatFloat %q, Sprintf %q", v, got, want)
		}
	}
}

// TestEventSummaryFormat: the monitors' event summaries are the fmt
// renderings they replaced, byte for byte, for every float64 (special
// values and rounding edges included) and every enum value, named or
// not.
func TestEventSummaryFormat(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 0.005, 0.015, 0.125, 0.0005, 0.0015, 0.9995,
		0.995, 1, -0.004, -0.0004, 2.675, 1e21, -3.25, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range values {
		for a := safeml.Action(-1); a <= safeml.ActionReject+1; a++ {
			if got, want := perceptionSummary(v, a), fmt.Sprintf("perception uncertainty %.2f (%s)", v, a); got != want {
				t.Errorf("perception %v %v: %q, want %q", v, a, got, want)
			}
		}
		for a := sinadra.Advice(-1); a <= sinadra.AdviceRescan+1; a++ {
			if got, want := riskSummary(v, a), fmt.Sprintf("risk %.2f advice %s", v, a); got != want {
				t.Errorf("risk %v %v: %q, want %q", v, a, got, want)
			}
		}
		for l := safedrones.Level(-1); l <= safedrones.LevelHigh+1; l++ {
			if got, want := safetySummary(v, l), fmt.Sprintf("PoF %.3f level %s", v, l); got != want {
				t.Errorf("safety %v %v: %q, want %q", v, l, got, want)
			}
		}
	}
}

func TestStatusAndHandler(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 7, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Status()
	if len(s.UAVs) != 3 || !s.SESAME || s.Time <= 0 {
		t.Fatalf("status = %+v", s)
	}
	for _, us := range s.UAVs {
		if us.Mode == "" || us.BatteryPct <= 0 || us.Reliability == "" {
			t.Fatalf("uav status incomplete: %+v", us)
		}
	}
	// HTTP facade serves the same snapshot.
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.UAVs) != 3 {
		t.Fatalf("HTTP status uavs = %d", len(got.UAVs))
	}
	resp2, err := srv.Client().Get(srv.URL + "/events?uav=u1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var events []map[string]interface{}
	if err := json.NewDecoder(resp2.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events served")
	}
}

func TestBaselineHasNoSecurityDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SESAME = false
	p := buildPlatform(t, cfg, 8, 0)
	if err := p.StartMission(classicArea(300)); err != nil {
		t.Fatal(err)
	}
	at := p.World.Clock.Now() + 20
	_ = p.World.ScheduleFault(uavsim.GPSSpoofFault(at, "u1", 135, 3))
	if err := p.RunMission(200); err != nil {
		t.Fatal(err)
	}
	if p.Security != nil {
		t.Fatal("baseline must not run the Security EDDI")
	}
	// The spoofed UAV keeps flying on falsified positions — its true
	// track deviates and nobody intervenes.
	victim, _ := p.World.UAV("u1")
	if victim.Mode() == uavsim.ModeLanded && victim.Mode() != uavsim.ModeHold {
		t.Fatalf("baseline should not have landed the victim (mode %v)", victim.Mode())
	}
}

func BenchmarkPlatformTick(b *testing.B) {
	b.ReportAllocs()
	w := uavsim.NewWorld(origin, 1)
	for _, id := range []string{"u1", "u2", "u3"} {
		_, _ = w.AddUAV(uavsim.UAVConfig{ID: id, Home: origin})
	}
	p, err := New(w, nil, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if err := p.StartMission(classicArea(2000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
