package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sesame/internal/chaos"
	"sesame/internal/geo"
	"sesame/internal/linksim"
)

// valid returns a minimal scenario that passes Validate; mutation
// tests each break one field.
func valid() *Scenario {
	return &Scenario{
		Name:     "unit-test",
		Seed:     1,
		Origin:   Point{Lat: 35.18, Lng: 33.38},
		HorizonS: 600,
		Sites: []Site{{Area: []Point{
			{Lat: 35.181, Lng: 33.381}, {Lat: 35.181, Lng: 33.384},
			{Lat: 35.184, Lng: 33.384}, {Lat: 35.184, Lng: 33.381},
		}}},
		Fleet: []Vehicle{
			{ID: "u1"},
			{ID: "u2", Kind: KindFixedWing, CruiseSpeedMS: 18, MinSpeedMS: 10},
		},
	}
}

func TestLoadStrictness(t *testing.T) {
	base, err := json.Marshal(valid())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(base); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	// chaos.LoadPlan's contract: unknown fields fail loudly.
	unknown := []byte(strings.Replace(string(base), `"name"`, `"wibble":1,"name"`, 1))
	if _, err := Load(unknown); err == nil || !strings.Contains(err.Error(), "wibble") {
		t.Errorf("unknown field not rejected: %v", err)
	}

	// Keys match fields exactly: encoding/json alone would load "SEED"
	// as the seed, at the top level and in nested objects alike.
	for _, key := range []string{`"seed"`, `"lat"`, `"id"`} {
		folded := []byte(strings.Replace(string(base), key, strings.ToUpper(key), 1))
		if _, err := Load(folded); err == nil || !strings.Contains(err.Error(), strings.ToUpper(key)) {
			t.Errorf("case-folded key %s not rejected: %v", key, err)
		}
	}

	// Trailing data after the scenario object fails loudly.
	if _, err := Load(append(append([]byte{}, base...), []byte("{}")...)); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Errorf("trailing data not rejected: %v", err)
	}

	// Malformed JSON fails as a parse error.
	if _, err := Load([]byte(`{"name":`)); err == nil || !strings.Contains(err.Error(), "parsing") {
		t.Errorf("malformed JSON not rejected: %v", err)
	}

	// Out-of-range values are rejected at load, not at build.
	bad := valid()
	bad.HorizonS = -5
	data, _ := json.Marshal(bad)
	if _, err := Load(data); err == nil || !strings.Contains(err.Error(), "horizon_s") {
		t.Errorf("out-of-range horizon not rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	inf := func() float64 { var z float64; return 1 / z }
	cases := []struct {
		name string
		mut  func(s *Scenario)
		want string
	}{
		{"empty-name", func(s *Scenario) { s.Name = "" }, "name"},
		{"name-space", func(s *Scenario) { s.Name = "has space" }, "name"},
		{"origin-lat", func(s *Scenario) { s.Origin.Lat = 91 }, "origin"},
		{"origin-nan", func(s *Scenario) { s.Origin.Lng = inf() }, "origin"},
		{"horizon-zero", func(s *Scenario) { s.HorizonS = 0 }, "horizon_s"},
		{"horizon-huge", func(s *Scenario) { s.HorizonS = 1e9 }, "horizon_s"},
		{"persons-negative", func(s *Scenario) { s.Persons = -1 }, "persons"},
		{"critical-prob", func(s *Scenario) { s.CriticalProb = 1.5 }, "critical_prob"},
		{"wind-speed", func(s *Scenario) { s.Wind = &Wind{EastMS: 100} }, "wind"},
		{"gust-sigma", func(s *Scenario) { s.Wind = &Wind{GustSigmaMS: -1} }, "gust_sigma_ms"},
		{"gust-tau", func(s *Scenario) { s.Wind = &Wind{GustTauS: -2} }, "gust_tau_s"},
		{"gust-no-tau", func(s *Scenario) { s.Wind = &Wind{GustSigmaMS: 1} }, "gust_tau_s"},
		{"visibility-zero", func(s *Scenario) { s.Visibility = &Visibility{Value: 0} }, "visibility"},
		{"visibility-thermal", func(s *Scenario) { s.Visibility = &Visibility{Value: 1, ThermalBelow: 2} }, "thermal_below"},
		{"no-sites", func(s *Scenario) { s.Sites = nil }, "sites"},
		{"site-name", func(s *Scenario) { s.Sites[0].Name = "bad name!" }, "name"},
		{"site-two-vertices", func(s *Scenario) { s.Sites[0].Area = s.Sites[0].Area[:2] }, "vertices"},
		{"site-bad-vertex", func(s *Scenario) { s.Sites[0].Area[0].Lat = -91 }, "vertex"},
		{"site-far-vertex", func(s *Scenario) { s.Sites[0].Area[0] = Point{Lat: 36.5, Lng: 33.38} }, "beyond"},
		{"site-degenerate", func(s *Scenario) {
			s.Sites[0].Area = []Point{
				{Lat: 35.181, Lng: 33.381}, {Lat: 35.181, Lng: 33.384}, {Lat: 35.181, Lng: 33.382},
			}
		}, "degenerate"},
		{"no-fleet", func(s *Scenario) { s.Fleet = nil }, "fleet"},
		{"fleet-bad-id", func(s *Scenario) { s.Fleet[0].ID = "u 1" }, "id"},
		{"fleet-dup-id", func(s *Scenario) { s.Fleet[1] = Vehicle{ID: "u1"} }, "duplicate"},
		{"fleet-bad-kind", func(s *Scenario) { s.Fleet[0].Kind = "zeppelin" }, "kind"},
		{"fleet-speed", func(s *Scenario) { s.Fleet[0].CruiseSpeedMS = 500 }, "cruise_speed_ms"},
		{"fleet-climb-nan", func(s *Scenario) { s.Fleet[0].ClimbRateMS = inf() }, "climb_rate_ms"},
		{"min-speed-rotorcraft", func(s *Scenario) { s.Fleet[0].MinSpeedMS = 5 }, "fixed-wing only"},
		{"min-above-cruise", func(s *Scenario) { s.Fleet[1].MinSpeedMS = 20 }, "above cruise"},
		{"rotors", func(s *Scenario) { s.Fleet[0].Rotors = 13 }, "rotors"},
		{"battery-endurance", func(s *Scenario) { s.Fleet[0].Battery = &Battery{EnduranceMin: -1} }, "endurance_min"},
		{"battery-voltage", func(s *Scenario) { s.Fleet[0].Battery = &Battery{NominalVoltage: 2000} }, "nominal_voltage"},
		{"battery-drain", func(s *Scenario) { s.Fleet[0].Battery = &Battery{SpeedDrainFactor: 200} }, "speed_drain_factor"},
		{"sites-outnumber-fleet", func(s *Scenario) {
			s.Sites = append(s.Sites, s.Sites[0], s.Sites[0])
		}, "at least as many vehicles"},
		{"link-unknown-uav", func(s *Scenario) { s.Links = []Link{{UAV: "ghost"}} }, "unknown uav"},
		{"link-drop-prob", func(s *Scenario) {
			s.Links = []Link{{Profile: linksim.Profile{DropProb: 2}}}
		}, "drop_prob"},
		{"link-delay-window", func(s *Scenario) {
			s.Links = []Link{{Profile: linksim.Profile{DelayMinS: 2, DelayMaxS: 1}}}
		}, "delay window"},
		{"link-hold", func(s *Scenario) {
			s.Links = []Link{{Profile: linksim.Profile{HoldMaxS: -1}}}
		}, "hold_max_s"},
		{"link-outage", func(s *Scenario) { s.Links = []Link{{OutageFromS: 10, OutageToS: 5}} }, "outage"},
		{"event-late", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 601, UAV: "u1", Kind: EventCommsFailure}}
		}, "at_s"},
		{"event-unknown-uav", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "ghost", Kind: EventCommsFailure}}
		}, "unknown uav"},
		{"event-unknown-kind", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: "volcano"}}
		}, "unknown kind"},
		{"battery-temp", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: EventBatteryCollapse, TempC: 0, ChargePct: 50}}
		}, "temp_c"},
		{"battery-charge", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: EventBatteryCollapse, TempC: 70, ChargePct: 150}}
		}, "charge_pct"},
		{"spoof-bearing", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: EventGPSSpoof, BearingDeg: 360, DriftMS: 3}}
		}, "bearing_deg"},
		{"spoof-drift", func(s *Scenario) {
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: EventGPSSpoof, BearingDeg: 90, DriftMS: 0}}
		}, "drift_ms"},
		{"rotor-index", func(s *Scenario) {
			// u1 is a default multirotor: 4 motors, so index 4 is out.
			s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: EventRotorFailure, Rotor: 4}}
		}, "rotor"},
		{"rotor-index-fixed-wing", func(s *Scenario) {
			// u2 is fixed-wing: a single motor, index 1 is out.
			s.Timeline = []Event{{AtS: 1, UAV: "u2", Kind: EventRotorFailure, Rotor: 1}}
		}, "rotor"},
		{"chaos-invalid", func(s *Scenario) {
			s.Chaos = &chaos.Plan{Monitors: []chaos.MonitorFault{{Mode: "explode", Prob: 1}}}
		}, "chaos plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	s := valid()
	s.Wind = &Wind{EastMS: 4, NorthMS: -2, GustSigmaMS: 1.5, GustTauS: 8}
	s.Visibility = &Visibility{Value: 0.4, ThermalBelow: 0.5}
	s.Persons = 5
	s.CriticalProb = 0.3
	s.Links = []Link{
		{Profile: linksim.Profile{DropProb: 0.02, DelayProb: 0.1, DelayMinS: 0.1, DelayMaxS: 0.4}},
		{UAV: "u2", OutageFromS: 30, OutageToS: 60},
	}
	s.Timeline = []Event{
		{AtS: 10, UAV: "u1", Kind: EventBatteryCollapse, TempC: 70, ChargePct: 40},
		{AtS: 20, UAV: "u2", Kind: EventGPSSpoof, BearingDeg: 135, DriftMS: 3},
		{AtS: 30, UAV: "u1", Kind: EventRotorFailure, Rotor: 3},
		{AtS: 40, UAV: "u1", Kind: EventCommsFailure},
		{AtS: 50, UAV: "u2", Kind: EventCameraFailure},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("full-featured scenario rejected: %v", err)
	}
}

func TestDigestStability(t *testing.T) {
	a, b := valid(), valid()
	if a.Digest() != b.Digest() {
		t.Error("identical scenarios digest differently")
	}
	b.Seed = 2
	if a.Digest() == b.Digest() {
		t.Error("different scenarios share a digest")
	}
	if !strings.HasPrefix(a.Digest(), "sha256:") {
		t.Errorf("digest %q missing scheme prefix", a.Digest())
	}
}

func TestRotorsResolution(t *testing.T) {
	for _, tc := range []struct {
		v    Vehicle
		want int
	}{
		{Vehicle{}, 4},
		{Vehicle{Kind: KindMultirotor}, 4},
		{Vehicle{Kind: KindFixedWing}, 1},
		{Vehicle{Kind: KindFixedWing, Rotors: 2}, 2},
		{Vehicle{Rotors: 6}, 6},
	} {
		if got := tc.v.rotors(); got != tc.want {
			t.Errorf("rotors(%+v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestAreasAndFleetIDs(t *testing.T) {
	s := valid()
	areas := s.Areas()
	if len(areas) != 1 || len(areas[0]) != 4 {
		t.Fatalf("Areas() = %v", areas)
	}
	ids := s.FleetIDs()
	if len(ids) != 2 || ids[0] != "u1" || ids[1] != "u2" {
		t.Fatalf("FleetIDs() = %v", ids)
	}
}

func TestBatteryPack(t *testing.T) {
	b := &Battery{EnduranceMin: 50, NominalVoltage: 44.4, SpeedDrainFactor: 0.001}
	p := b.pack()
	if want := 100.0 / (50 * 60); p.BaseDrainPctPerS != want {
		t.Errorf("BaseDrainPctPerS = %v, want %v", p.BaseDrainPctPerS, want)
	}
	if p.NominalVoltage != 44.4 || p.SpeedDrainFactor != 0.001 {
		t.Errorf("overrides not applied: %+v", p)
	}
	// Zero fields keep the default pack's values.
	d := (&Battery{}).pack()
	if d.NominalVoltage == 0 || d.BaseDrainPctPerS == 0 {
		t.Errorf("zero battery lost defaults: %+v", d)
	}
}

func TestBuildWorldFleet(t *testing.T) {
	s := valid()
	s.Wind = &Wind{EastMS: 3, NorthMS: 1, GustSigmaMS: 1, GustTauS: 10}
	w, err := s.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	uavs := w.UAVs()
	if len(uavs) != 2 {
		t.Fatalf("built %d UAVs, want 2", len(uavs))
	}
	if w.Wind.East != 3 || w.Wind.North != 1 || w.GustSigmaMS != 1 || w.GustTauS != 10 {
		t.Errorf("wind field not applied: %+v sigma=%v tau=%v", w.Wind, w.GustSigmaMS, w.GustTauS)
	}
	// Building the same scenario twice yields bit-identical worlds.
	w2, err := s.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.UAVs()) != len(uavs) {
		t.Error("rebuild diverged")
	}
}

func TestBuildSceneDistribution(t *testing.T) {
	s := valid()
	if scene, err := s.BuildScene(nil); err != nil || scene != nil {
		t.Fatalf("zero persons must build a nil scene, got %v, %v", scene, err)
	}

	// Two sites, five persons: 3 land on the first site, 2 on the
	// second, IDs renumbered sequentially.
	s.Sites = append(s.Sites, Site{Area: []Point{
		{Lat: 35.19, Lng: 33.39}, {Lat: 35.19, Lng: 33.393},
		{Lat: 35.193, Lng: 33.393}, {Lat: 35.193, Lng: 33.39},
	}})
	s.Fleet = append(s.Fleet, Vehicle{ID: "u3"})
	s.Persons = 5
	s.CriticalProb = 0.5
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := s.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	scene, err := s.BuildScene(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(scene.Persons) != 5 {
		t.Fatalf("scene has %d persons, want 5", len(scene.Persons))
	}
	for i, p := range scene.Persons {
		if p.ID != i {
			t.Errorf("person %d has ID %d; IDs must be sequential", i, p.ID)
		}
	}
	first, second := s.Sites[0].Polygon(), s.Sites[1].Polygon()
	inFirst, inSecond := 0, 0
	for _, p := range scene.Persons {
		if first.Contains(p.Position) {
			inFirst++
		}
		if second.Contains(p.Position) {
			inSecond++
		}
	}
	if inFirst != 3 || inSecond != 2 {
		t.Errorf("persons dealt %d/%d across sites, want 3/2", inFirst, inSecond)
	}
}

func TestScheduleTimelineUnknownKind(t *testing.T) {
	s := valid()
	w, err := s.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	// Bypass Validate to hit the builder's own guard.
	s.Timeline = []Event{{AtS: 1, UAV: "u1", Kind: "volcano"}}
	if err := s.ScheduleTimeline(w, 0); err == nil {
		t.Error("unknown timeline kind must fail at build")
	}
}

func TestApplyLinksFleetWide(t *testing.T) {
	s := valid()
	s.Links = []Link{
		{Profile: linksim.Profile{DropProb: 0.5}},
		{UAV: "u2", OutageFromS: 10, OutageToS: 20},
	}
	w, err := s.BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	layer := linksim.New(w.Clock, "test")
	s.ApplyLinks(layer, 100)
	if got := layer.Links(); len(got) != 2 {
		t.Fatalf("links configured: %v, want u1 and u2", got)
	}
	// The outage window is offset by mission start.
	if !layer.Link("u2").DownNow(115) {
		t.Error("u2 outage window not offset from mission start")
	}
	if layer.Link("u2").DownNow(95) || layer.Link("u1").DownNow(115) {
		t.Error("outage leaked outside its window or onto another link")
	}
}

func TestGenerateN(t *testing.T) {
	if _, err := Generate(1, "atlantis"); err == nil {
		t.Error("unknown archetype accepted")
	}
	if _, err := GenerateN(1, MaritimeSAR, -1); err == nil {
		t.Error("negative fleet size accepted")
	}
	for _, arch := range Archetypes() {
		for _, n := range []int{0, 1, 2, 5, 9} {
			sc, err := GenerateN(int64(31+n), arch, n)
			if err != nil {
				t.Fatalf("GenerateN(%s, %d): %v", arch, n, err)
			}
			if n > 0 && len(sc.Fleet) != n {
				t.Errorf("%s: requested fleet %d, got %d", arch, n, len(sc.Fleet))
			}
			if n == 0 && (len(sc.Fleet) < 2 || len(sc.Fleet) > 6) {
				t.Errorf("%s: default fleet size %d outside the 2-6 envelope", arch, len(sc.Fleet))
			}
			if len(sc.Fleet) < len(sc.Sites) {
				t.Errorf("%s: %d sites for %d vehicles", arch, len(sc.Sites), len(sc.Fleet))
			}
		}
	}
	// A single-vehicle multi-site request clamps to one site.
	sc, err := GenerateN(3, MultiSite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Sites) != 1 {
		t.Errorf("fleet of 1 got %d sites", len(sc.Sites))
	}
}

func TestKnownArchetype(t *testing.T) {
	for _, a := range Archetypes() {
		if !KnownArchetype(a) {
			t.Errorf("KnownArchetype(%q) = false", a)
		}
	}
	if KnownArchetype("atlantis") || KnownArchetype("") {
		t.Error("unknown archetype reported known")
	}
}

func TestGeneratedScenariosRoundTrip(t *testing.T) {
	// Every generated scenario must survive its own serialization:
	// Marshal -> Load -> identical digest. This pins that the generator
	// only emits loadable worlds.
	for i, arch := range Archetypes() {
		sc, err := Generate(int64(i)+11, arch)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Load(data)
		if err != nil {
			t.Fatalf("%s: generated scenario does not reload: %v", arch, err)
		}
		if back.Digest() != sc.Digest() {
			t.Errorf("%s: round trip changed the digest", arch)
		}
	}
}

func TestGeneratedChaosPlansAppear(t *testing.T) {
	// A quarter of generated worlds embed a chaos plan; over 80 seeds
	// at least one must (and every embedded plan validates, which
	// Generate's own gate already proved).
	found := false
	for seed := int64(0); seed < 80 && !found; seed++ {
		sc, err := Generate(seed, MaritimeSAR)
		if err != nil {
			t.Fatal(err)
		}
		found = sc.Chaos != nil
	}
	if !found {
		t.Error("no generated scenario embedded a chaos plan in 80 seeds")
	}
}

func TestPointLatLng(t *testing.T) {
	p := Point{Lat: 1.5, Lng: -2.5}
	ll := p.LatLng()
	if ll.Lat != 1.5 || ll.Lng != -2.5 {
		t.Errorf("LatLng() = %+v", ll)
	}
}

func TestSitePolygon(t *testing.T) {
	s := valid().Sites[0]
	pg := s.Polygon()
	if len(pg) != len(s.Area) {
		t.Fatalf("polygon has %d vertices, want %d", len(pg), len(s.Area))
	}
	for i := range pg {
		if pg[i].Lat != s.Area[i].Lat || pg[i].Lng != s.Area[i].Lng {
			t.Errorf("vertex %d: %v != %v", i, pg[i], s.Area[i])
		}
	}
}

func TestValidateProfileMessages(t *testing.T) {
	// The error strings name the offending field, so a campaign spec
	// author can find the typo.
	err := validateProfile("links[3]", linksim.Profile{ReorderProb: -1})
	if err == nil || !strings.Contains(err.Error(), "links[3]") ||
		!strings.Contains(err.Error(), "reorder_prob") {
		t.Errorf("unhelpful profile error: %v", err)
	}
}

func ExampleLoad() {
	data := []byte(`{
		"name": "demo",
		"seed": 7,
		"origin": {"lat": 35.18, "lng": 33.38},
		"horizon_s": 300,
		"sites": [{"area": [
			{"lat": 35.181, "lng": 33.381},
			{"lat": 35.181, "lng": 33.384},
			{"lat": 35.184, "lng": 33.384}
		]}],
		"fleet": [{"id": "u1"}]
	}`)
	sc, err := Load(data)
	if err != nil {
		panic(err)
	}
	fmt.Println(sc.Name, len(sc.Fleet))
	// Output: demo 1
}

// TestClassicDocument pins the §V mission document: fleet, square,
// survivors, and the paper's fault and attack as valid timeline events.
func TestClassicDocument(t *testing.T) {
	sc := Classic(7, 3, 10, 350)
	sc.HorizonS = 900
	sc.Timeline = []Event{BatteryCollapse(60, "u1"), GPSSpoof(30, "u2")}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if ids := sc.FleetIDs(); strings.Join(ids, ",") != "u1,u2,u3" || sc.Fleet[0].CruiseSpeedMS != 12 {
		t.Fatalf("fleet %+v", sc.Fleet)
	}
	if sc.Seed != 7 || sc.Origin != Home || sc.Persons != 10 || sc.CriticalProb != 0.2 {
		t.Fatalf("classic document %+v", sc)
	}
	area, want := sc.Areas()[0], ClassicSquare(350)
	for i := range want {
		if area[i] != want[i] {
			t.Fatalf("site vertex %d = %v, want %v", i, area[i], want[i])
		}
	}
	if d := geo.Haversine(Home.LatLng(), area[0]); d < 79.9 || d > 80.1 {
		t.Fatalf("square corner %.1f m from home, want 80", d)
	}
	if empty := Classic(1, 1, -1, 400); empty.Persons != 0 || empty.CriticalProb != 0 {
		t.Fatalf("persons <= 0 must scatter nobody: %+v", empty)
	}
}
