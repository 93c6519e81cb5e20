package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"sesame/internal/chaos"
	"sesame/internal/linksim"
)

// Archetype names: the mission families the generator composes.
const (
	// MaritimeSAR is open-water search: one large offshore area, real
	// wind and gusts, a mixed fixed-wing/multirotor fleet where the
	// fixed wings bring the endurance and the rotorcraft the hover.
	MaritimeSAR = "maritime_sar"
	// UrbanCanyon is dusk search between buildings: a small area, poor
	// visibility (thermal take-over), multipath-degraded links and GPS
	// spoofing on the timeline.
	UrbanCanyon = "urban_canyon"
	// MultiSite is concurrent search over separated sites, the fleet
	// partitioned between them.
	MultiSite = "multi_site"
)

// Archetypes lists every generator family in canonical order.
func Archetypes() []string { return []string{MaritimeSAR, UrbanCanyon, MultiSite} }

// KnownArchetype reports whether name is a generator family.
func KnownArchetype(name string) bool {
	for _, a := range Archetypes() {
		if a == name {
			return true
		}
	}
	return false
}

// Generate composes a complete scenario from (seed, archetype). The
// result is a pure function of its arguments, passes Validate, and —
// like everything else in the repo — is gated on the determinism
// contract by TestScenarioProperty.
func Generate(seed int64, archetype string) (*Scenario, error) {
	return GenerateN(seed, archetype, 0)
}

// GenerateN fixes the fleet size (0 lets the archetype choose), so
// campaign sweeps can use the fleet-size grid axis with generated
// worlds.
func GenerateN(seed int64, archetype string, fleetN int) (*Scenario, error) {
	if !KnownArchetype(archetype) {
		return nil, fmt.Errorf("scenario: unknown archetype %q (have %v)", archetype, Archetypes())
	}
	if fleetN < 0 || fleetN > MaxFleet {
		return nil, fmt.Errorf("scenario: fleet size %d outside [0,%d]", fleetN, MaxFleet)
	}
	// Mix the archetype into the stream so the same seed yields
	// unrelated worlds per family.
	h := fnv.New64a()
	h.Write([]byte(archetype))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	g := &gen{rng: rng, sc: &Scenario{
		Name: fmt.Sprintf("%s-%d", archetype, seed),
		Seed: seed,
		Origin: Point{
			Lat: Home.Lat + (rng.Float64()-0.5)*0.04,
			Lng: Home.Lng + (rng.Float64()-0.5)*0.04,
		},
		HorizonS: 60 + math.Floor(rng.Float64()*120),
	}}
	switch archetype {
	case MaritimeSAR:
		g.maritime(fleetN)
	case UrbanCanyon:
		g.urban(fleetN)
	case MultiSite:
		g.multiSite(fleetN)
	}
	// A quarter of the worlds also run an infrastructure chaos plan —
	// the shared corpus machinery from internal/chaos.
	if g.rng.Intn(4) == 0 {
		plan := chaos.GeneratePlan(g.rng, g.sc.FleetIDs())
		g.sc.Chaos = &plan
	}
	if err := g.sc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generated world invalid (generator bug): %w", err)
	}
	return g.sc, nil
}

// gen carries the generator's draw state; helpers draw in a fixed
// order so every scenario is a pure function of (seed, archetype).
type gen struct {
	rng *rand.Rand
	sc  *Scenario
}

// in draws uniformly from [lo, hi).
func (g *gen) in(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }

// site appends a rectangular site centred offEastM/offNorthM metres
// from the origin with the given half-extents.
func (g *gen) site(name string, offEastM, offNorthM, halfEastM, halfNorthM float64) {
	// Local equirectangular conversion — plenty accurate at the <50 km
	// ranges Validate enforces.
	mPerDegLat := 111320.0
	mPerDegLng := mPerDegLat * math.Cos(g.sc.Origin.Lat*math.Pi/180)
	c := Point{
		Lat: g.sc.Origin.Lat + offNorthM/mPerDegLat,
		Lng: g.sc.Origin.Lng + offEastM/mPerDegLng,
	}
	dLat := halfNorthM / mPerDegLat
	dLng := halfEastM / mPerDegLng
	g.sc.Sites = append(g.sc.Sites, Site{Name: name, Area: []Point{
		{Lat: c.Lat - dLat, Lng: c.Lng - dLng},
		{Lat: c.Lat - dLat, Lng: c.Lng + dLng},
		{Lat: c.Lat + dLat, Lng: c.Lng + dLng},
		{Lat: c.Lat + dLat, Lng: c.Lng - dLng},
	}})
}

// multirotor appends a rotorcraft with jittered kinematics.
func (g *gen) multirotor(id string) {
	g.sc.Fleet = append(g.sc.Fleet, Vehicle{
		ID:            id,
		Kind:          KindMultirotor,
		CruiseSpeedMS: g.in(8, 14),
		ClimbRateMS:   g.in(2, 4),
		Battery:       &Battery{EnduranceMin: math.Floor(g.in(20, 40))},
	})
}

// fixedWing appends a fixed-wing with long endurance and a stall
// floor.
func (g *gen) fixedWing(id string) {
	cruise := g.in(16, 24)
	g.sc.Fleet = append(g.sc.Fleet, Vehicle{
		ID:            id,
		Kind:          KindFixedWing,
		CruiseSpeedMS: cruise,
		ClimbRateMS:   g.in(1.5, 3),
		MinSpeedMS:    cruise * g.in(0.5, 0.7),
		TurnRateDegS:  g.in(10, 20),
		Battery:       &Battery{EnduranceMin: math.Floor(g.in(45, 90))},
	})
}

// fleetSize resolves the requested size (0 = archetype default 3-6),
// clamped so every site keeps at least one vehicle.
func (g *gen) fleetSize(requested, minimum int) int {
	n := requested
	if n == 0 {
		n = 3 + g.rng.Intn(4)
	}
	if n < minimum {
		n = minimum
	}
	return n
}

// windField draws a mean wind of speedLo..speedHi m/s at a random
// bearing, plus gusts when sigmaHi > 0.
func (g *gen) windField(speedLo, speedHi, sigmaHi float64) {
	speed := g.in(speedLo, speedHi)
	dir := g.rng.Float64() * 2 * math.Pi
	w := &Wind{
		EastMS:  speed * math.Sin(dir),
		NorthMS: speed * math.Cos(dir),
	}
	if sigmaHi > 0 {
		w.GustSigmaMS = g.in(0.5, sigmaHi)
		w.GustTauS = g.in(5, 15)
	}
	g.sc.Wind = w
}

// eventAt draws an injection time inside the early mission window.
func (g *gen) eventAt() float64 { return math.Floor(g.in(5, 0.8*g.sc.HorizonS)) }

// pickUAV draws a fault target.
func (g *gen) pickUAV() string { return g.sc.Fleet[g.rng.Intn(len(g.sc.Fleet))].ID }

func (g *gen) maritime(fleetN int) {
	g.site("", g.in(150, 400), g.in(150, 400), g.in(200, 400), g.in(150, 300))
	g.windField(3, 9, 3)
	g.sc.Visibility = &Visibility{Value: g.in(0.6, 1), ThermalBelow: 0.5}
	n := g.fleetSize(fleetN, 1)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%d", i+1)
		if i%2 == 1 {
			g.fixedWing(id)
		} else {
			g.multirotor(id)
		}
	}
	g.sc.Persons = 2 + g.rng.Intn(7)
	g.sc.CriticalProb = 0.25
	g.sc.Links = []Link{{Profile: linksim.Profile{
		DropProb:  g.in(0, 0.05),
		DelayProb: g.in(0, 0.1),
		DelayMinS: 0.1,
		DelayMaxS: 0.5,
	}}}
	for i := g.rng.Intn(3); i > 0; i-- {
		if g.rng.Intn(2) == 0 {
			g.sc.Timeline = append(g.sc.Timeline, Event{
				AtS: g.eventAt(), UAV: g.pickUAV(), Kind: EventBatteryCollapse,
				TempC: math.Floor(g.in(65, 90)), ChargePct: math.Floor(g.in(20, 45)),
			})
		} else {
			g.sc.Timeline = append(g.sc.Timeline, Event{
				AtS: g.eventAt(), UAV: g.pickUAV(), Kind: EventCommsFailure,
			})
		}
	}
}

func (g *gen) urban(fleetN int) {
	g.site("", g.in(80, 200), g.in(80, 200), g.in(120, 250), g.in(120, 250))
	g.windField(0, 3, 0)
	g.sc.Visibility = &Visibility{Value: g.in(0.25, 0.55), ThermalBelow: 0.5}
	n := g.fleetSize(fleetN, 1)
	for i := 0; i < n; i++ {
		g.multirotor(fmt.Sprintf("u%d", i+1))
	}
	g.sc.Persons = 3 + g.rng.Intn(8)
	g.sc.CriticalProb = 0.35
	// Multipath: drops, duplicates and reordering, not just loss.
	g.sc.Links = []Link{{Profile: linksim.Profile{
		DropProb:    g.in(0.02, 0.08),
		DupProb:     g.in(0, 0.05),
		DelayProb:   g.in(0.05, 0.2),
		DelayMinS:   0.05,
		DelayMaxS:   0.3,
		ReorderProb: g.in(0.03, 0.12),
	}}}
	for i := 1 + g.rng.Intn(2); i > 0; i-- {
		g.sc.Timeline = append(g.sc.Timeline, Event{
			AtS: g.eventAt(), UAV: g.pickUAV(), Kind: EventGPSSpoof,
			BearingDeg: math.Floor(g.rng.Float64() * 360), DriftMS: g.in(2, 5),
		})
	}
	if g.rng.Intn(3) == 0 {
		g.sc.Timeline = append(g.sc.Timeline, Event{
			AtS: g.eventAt(), UAV: g.pickUAV(), Kind: EventCameraFailure,
		})
	}
}

func (g *gen) multiSite(fleetN int) {
	sites := 2 + g.rng.Intn(2)
	if fleetN > 0 && fleetN < sites {
		sites = fleetN
	}
	for i := 0; i < sites; i++ {
		// Spread the sites on distinct bearings so they never overlap.
		bearing := (float64(i) + g.rng.Float64()*0.6) / float64(sites) * 2 * math.Pi
		dist := g.in(800, 2500)
		g.site(fmt.Sprintf("site%d", i+1),
			dist*math.Sin(bearing), dist*math.Cos(bearing),
			g.in(150, 300), g.in(150, 300))
	}
	g.windField(2, 6, 2)
	g.sc.Visibility = &Visibility{Value: g.in(0.7, 1), ThermalBelow: 0.5}
	n := g.fleetSize(fleetN, sites)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%d", i+1)
		if i%3 == 2 {
			g.fixedWing(id)
		} else {
			g.multirotor(id)
		}
	}
	g.sc.Persons = 4 + g.rng.Intn(9)
	g.sc.CriticalProb = 0.2
	g.sc.Links = []Link{{Profile: linksim.Profile{DropProb: g.in(0, 0.03)}}}
	for i := g.rng.Intn(3); i > 0; i-- {
		if g.rng.Intn(2) == 0 {
			g.sc.Timeline = append(g.sc.Timeline, Event{
				AtS: g.eventAt(), UAV: g.pickUAV(), Kind: EventBatteryCollapse,
				TempC: math.Floor(g.in(65, 90)), ChargePct: math.Floor(g.in(20, 45)),
			})
		} else {
			uav := g.rng.Intn(len(g.sc.Fleet))
			g.sc.Timeline = append(g.sc.Timeline, Event{
				AtS: g.eventAt(), UAV: g.sc.Fleet[uav].ID, Kind: EventRotorFailure,
				Rotor: g.rng.Intn(g.sc.Fleet[uav].rotors()),
			})
		}
	}
}
