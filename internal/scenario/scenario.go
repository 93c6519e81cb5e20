// Package scenario is the declarative mission-description layer: a
// strict JSON schema covering search areas, wind fields, day/night
// visibility, heterogeneous fleet composition (mixed fixed-wing and
// multirotor airframes with per-vehicle battery models), link-quality
// profiles and fault/attack timelines — everything that today is
// hard-coded into the paper's 3-UAV photovoltaic-park script — plus a
// seeded generator (generate.go) that composes whole mission families
// from those ingredients.
//
// Parsing follows chaos.LoadPlan's strictness contract: unknown
// fields, trailing data and out-of-range values are rejected loudly. A
// typo in a scenario must fail at load, never silently produce a
// different world. Every scenario is pure data; building it into a
// running world (build.go) draws all randomness from the world's
// seeded clock streams, so the determinism gate — serial == pooled ==
// sharded digests, checkpoint/resume identity — holds for every
// loadable scenario, generated or hand-written.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"sesame/internal/chaos"
	"sesame/internal/geo"
	"sesame/internal/linksim"
)

// Vehicle kinds. They mirror uavsim.VehicleKind; the empty string
// means multirotor (the schema default).
const (
	KindMultirotor = "multirotor"
	KindFixedWing  = "fixed_wing"
)

// Timeline event kinds, one per uavsim fault constructor.
const (
	EventBatteryCollapse = "battery_collapse"
	EventGPSSpoof        = "gps_spoof"
	EventRotorFailure    = "rotor_failure"
	EventCommsFailure    = "comms_failure"
	EventCameraFailure   = "camera_failure"
)

// Point is a WGS84 coordinate. geo.LatLng carries no JSON tags, so the
// schema declares its own point type with lowercase keys.
type Point struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// LatLng converts to the geo coordinate type.
func (p Point) LatLng() geo.LatLng { return geo.LatLng{Lat: p.Lat, Lng: p.Lng} }

// Site is one search area. Multi-site scenarios list several; the
// platform partitions the fleet into contiguous groups, one per site.
type Site struct {
	// Name labels the site in logs; optional.
	Name string `json:"name,omitempty"`
	// Area is the site's polygon (>= 3 vertices).
	Area []Point `json:"area"`
}

// Polygon returns the site area as a geo polygon.
func (s Site) Polygon() geo.Polygon {
	pg := make(geo.Polygon, len(s.Area))
	for i, p := range s.Area {
		pg[i] = p.LatLng()
	}
	return pg
}

// Wind is the mean wind field plus the Ornstein-Uhlenbeck gust model
// parameters the world integrates on top of it.
type Wind struct {
	EastMS      float64 `json:"east_ms,omitempty"`
	NorthMS     float64 `json:"north_ms,omitempty"`
	GustSigmaMS float64 `json:"gust_sigma_ms,omitempty"`
	GustTauS    float64 `json:"gust_tau_s,omitempty"`
}

// Visibility is the day/night visual profile the perception pipeline
// is calibrated against.
type Visibility struct {
	// Value is the ambient visual condition in (0,1]: 1 is clear day,
	// low values are dusk/night.
	Value float64 `json:"value"`
	// ThermalBelow switches perception to the thermal imager when Value
	// falls below it; 0 keeps RGB always.
	ThermalBelow float64 `json:"thermal_below,omitempty"`
}

// Battery overrides the default pack model per vehicle.
type Battery struct {
	// EnduranceMin is the hover endurance in minutes; it sets the base
	// drain rate. 0 keeps the default pack's 30 minutes.
	EnduranceMin float64 `json:"endurance_min,omitempty"`
	// NominalVoltage is the pack voltage (0 = default).
	NominalVoltage float64 `json:"nominal_voltage,omitempty"`
	// SpeedDrainFactor scales drain with airspeed (0 = default).
	SpeedDrainFactor float64 `json:"speed_drain_factor,omitempty"`
}

// Vehicle is one fleet member. Zero-valued kinematic fields take the
// airframe kind's uavsim defaults.
type Vehicle struct {
	ID string `json:"id"`
	// Kind is "multirotor" (default) or "fixed_wing".
	Kind          string   `json:"kind,omitempty"`
	CruiseSpeedMS float64  `json:"cruise_speed_ms,omitempty"`
	ClimbRateMS   float64  `json:"climb_rate_ms,omitempty"`
	MinSpeedMS    float64  `json:"min_speed_ms,omitempty"`
	TurnRateDegS  float64  `json:"turn_rate_deg_s,omitempty"`
	Rotors        int      `json:"rotors,omitempty"`
	Battery       *Battery `json:"battery,omitempty"`
}

// rotors resolves the vehicle's motor count the way uavsim.AddUAV
// will, for timeline bound checks.
func (v Vehicle) rotors() int {
	if v.Rotors > 0 {
		return v.Rotors
	}
	if v.Kind == KindFixedWing {
		return 1
	}
	return 4
}

// Link sets one link-quality rule: a linksim profile plus an optional
// outage window, applied to one vehicle or the whole fleet.
type Link struct {
	// UAV names the impaired vehicle; empty applies to every vehicle.
	UAV string `json:"uav,omitempty"`
	// Profile is the steady-state impairment (linksim schema).
	Profile linksim.Profile `json:"profile"`
	// [OutageFromS, OutageToS) silences the link completely, relative
	// to mission start. Equal values mean no outage.
	OutageFromS float64 `json:"outage_from_s,omitempty"`
	OutageToS   float64 `json:"outage_to_s,omitempty"`
}

// Event is one timeline entry: a vehicle fault or attack injected at a
// fixed offset from mission start. Parameters are explicit — there are
// no hidden defaults, so a loaded scenario says exactly what happens.
type Event struct {
	AtS  float64 `json:"at_s"`
	UAV  string  `json:"uav"`
	Kind string  `json:"kind"`
	// battery_collapse: pack temperature spike and charge collapse.
	TempC     float64 `json:"temp_c,omitempty"`
	ChargePct float64 `json:"charge_pct,omitempty"`
	// gps_spoof: drift bearing and rate.
	BearingDeg float64 `json:"bearing_deg,omitempty"`
	DriftMS    float64 `json:"drift_ms,omitempty"`
	// rotor_failure: which motor.
	Rotor int `json:"rotor,omitempty"`
}

// Scenario is one complete declarative mission description.
type Scenario struct {
	Name string `json:"name"`
	// Notes is free-text documentation carried with the scenario (the
	// schema's comment field — strict parsing rejects real comments).
	Notes string `json:"notes,omitempty"`
	// Seed drives every stochastic stream of the world built from this
	// scenario.
	Seed int64 `json:"seed"`
	// Origin is the launch point and the local projection origin.
	Origin Point `json:"origin"`
	// HorizonS bounds the mission in simulation seconds.
	HorizonS float64 `json:"horizon_s"`
	// Persons scatters that many detection targets over the sites.
	Persons int `json:"persons,omitempty"`
	// CriticalProb marks each scattered person critical with this
	// probability (0 = none).
	CriticalProb float64     `json:"critical_prob,omitempty"`
	Wind         *Wind       `json:"wind,omitempty"`
	Visibility   *Visibility `json:"visibility,omitempty"`
	Sites        []Site      `json:"sites"`
	Fleet        []Vehicle   `json:"fleet"`
	Links        []Link      `json:"links,omitempty"`
	Timeline     []Event     `json:"timeline,omitempty"`
	// Chaos optionally embeds an infrastructure fault-injection plan
	// (internal/chaos) armed alongside the mission.
	Chaos *chaos.Plan `json:"chaos,omitempty"`
}

// Load parses and validates a JSON scenario. Unknown fields and
// trailing data are rejected — the same strictness as chaos.LoadPlan:
// a typo in a mission description must fail loudly, not silently
// change the world.
func Load(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parsing: trailing data after scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Schema bounds. They are generous operational envelopes, not physics:
// their job is to make every loadable scenario buildable and every
// generated world finite.
const (
	// MaxFleet bounds the fleet of every scenario, and so of every
	// mission a front end builds.
	MaxFleet        = 1024
	maxSites        = 16
	maxSiteVertices = 64
	maxPersons      = 10000
	maxTimeline     = 256
	maxLinks        = 2048
	maxHorizonS     = 86400
	maxSpeedMS      = 200
	maxWindMS       = 60
	maxSiteRangeM   = 50000
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func validProb(p float64) bool { return finite(p) && p >= 0 && p <= 1 }

func validPoint(p Point) bool {
	return finite(p.Lat) && finite(p.Lng) &&
		p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180
}

// validateProfile range-checks a linksim profile (linksim itself
// tolerates odd values by clamping; the schema rejects them instead).
func validateProfile(what string, p linksim.Profile) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"drop_prob", p.DropProb}, {"dup_prob", p.DupProb},
		{"delay_prob", p.DelayProb}, {"reorder_prob", p.ReorderProb},
	} {
		if !validProb(pr.v) {
			return fmt.Errorf("scenario: %s: %s %v outside [0,1]", what, pr.name, pr.v)
		}
	}
	if !finite(p.DelayMinS) || !finite(p.DelayMaxS) || p.DelayMinS < 0 || p.DelayMaxS < p.DelayMinS {
		return fmt.Errorf("scenario: %s: delay window [%v,%v] invalid", what, p.DelayMinS, p.DelayMaxS)
	}
	if !finite(p.HoldMaxS) || p.HoldMaxS < 0 {
		return fmt.Errorf("scenario: %s: hold_max_s %v invalid", what, p.HoldMaxS)
	}
	return nil
}

// Validate range-checks every field. It is the single gate both Load
// and the generator pass through.
func (s *Scenario) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must match %s", s.Name, nameRe)
	}
	if !validPoint(s.Origin) {
		return fmt.Errorf("scenario: origin %+v invalid", s.Origin)
	}
	if !finite(s.HorizonS) || s.HorizonS <= 0 || s.HorizonS > maxHorizonS {
		return fmt.Errorf("scenario: horizon_s %v outside (0,%d]", s.HorizonS, maxHorizonS)
	}
	if s.Persons < 0 || s.Persons > maxPersons {
		return fmt.Errorf("scenario: persons %d outside [0,%d]", s.Persons, maxPersons)
	}
	if !validProb(s.CriticalProb) {
		return fmt.Errorf("scenario: critical_prob %v outside [0,1]", s.CriticalProb)
	}
	if err := s.validateWind(); err != nil {
		return err
	}
	if v := s.Visibility; v != nil {
		if !finite(v.Value) || v.Value <= 0 || v.Value > 1 {
			return fmt.Errorf("scenario: visibility value %v outside (0,1]", v.Value)
		}
		if !validProb(v.ThermalBelow) {
			return fmt.Errorf("scenario: visibility thermal_below %v outside [0,1]", v.ThermalBelow)
		}
	}
	if err := s.validateSites(); err != nil {
		return err
	}
	fleet, err := s.validateFleet()
	if err != nil {
		return err
	}
	if len(s.Fleet) < len(s.Sites) {
		return fmt.Errorf("scenario: %d sites need at least as many vehicles, have %d",
			len(s.Sites), len(s.Fleet))
	}
	if err := s.validateLinks(fleet); err != nil {
		return err
	}
	if err := s.validateTimeline(fleet); err != nil {
		return err
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return fmt.Errorf("scenario: chaos plan: %w", err)
		}
	}
	return nil
}

func (s *Scenario) validateWind() error {
	w := s.Wind
	if w == nil {
		return nil
	}
	if !finite(w.EastMS) || !finite(w.NorthMS) ||
		math.Abs(w.EastMS) > maxWindMS || math.Abs(w.NorthMS) > maxWindMS {
		return fmt.Errorf("scenario: wind (%v,%v) m/s outside ±%d", w.EastMS, w.NorthMS, maxWindMS)
	}
	if !finite(w.GustSigmaMS) || w.GustSigmaMS < 0 || w.GustSigmaMS > maxWindMS {
		return fmt.Errorf("scenario: gust_sigma_ms %v outside [0,%d]", w.GustSigmaMS, maxWindMS)
	}
	if !finite(w.GustTauS) || w.GustTauS < 0 {
		return fmt.Errorf("scenario: gust_tau_s %v invalid", w.GustTauS)
	}
	if w.GustSigmaMS > 0 && w.GustTauS <= 0 {
		return fmt.Errorf("scenario: gusts need gust_tau_s > 0")
	}
	return nil
}

func (s *Scenario) validateSites() error {
	if len(s.Sites) == 0 || len(s.Sites) > maxSites {
		return fmt.Errorf("scenario: %d sites outside [1,%d]", len(s.Sites), maxSites)
	}
	origin := s.Origin.LatLng()
	for i, site := range s.Sites {
		what := fmt.Sprintf("sites[%d]", i)
		if site.Name != "" && !nameRe.MatchString(site.Name) {
			return fmt.Errorf("scenario: %s: name %q must match %s", what, site.Name, nameRe)
		}
		if len(site.Area) < 3 || len(site.Area) > maxSiteVertices {
			return fmt.Errorf("scenario: %s: %d vertices outside [3,%d]", what, len(site.Area), maxSiteVertices)
		}
		for j, p := range site.Area {
			if !validPoint(p) {
				return fmt.Errorf("scenario: %s: vertex %d %+v invalid", what, j, p)
			}
			if geo.Haversine(origin, p.LatLng()) > maxSiteRangeM {
				return fmt.Errorf("scenario: %s: vertex %d beyond %d m of origin (local projection breaks down)",
					what, j, maxSiteRangeM)
			}
		}
		sw, ne := site.Polygon().BoundingBox()
		if ne.Lat <= sw.Lat || ne.Lng <= sw.Lng {
			return fmt.Errorf("scenario: %s: degenerate area (zero extent)", what)
		}
	}
	return nil
}

// validateFleet returns the id -> vehicle index for timeline checks.
func (s *Scenario) validateFleet() (map[string]int, error) {
	if len(s.Fleet) == 0 || len(s.Fleet) > MaxFleet {
		return nil, fmt.Errorf("scenario: fleet size %d outside [1,%d]", len(s.Fleet), MaxFleet)
	}
	fleet := make(map[string]int, len(s.Fleet))
	for i, v := range s.Fleet {
		what := fmt.Sprintf("fleet[%d]", i)
		if !nameRe.MatchString(v.ID) {
			return nil, fmt.Errorf("scenario: %s: id %q must match %s", what, v.ID, nameRe)
		}
		if _, dup := fleet[v.ID]; dup {
			return nil, fmt.Errorf("scenario: %s: duplicate id %q", what, v.ID)
		}
		fleet[v.ID] = i
		switch v.Kind {
		case "", KindMultirotor, KindFixedWing:
		default:
			return nil, fmt.Errorf("scenario: %s: unknown kind %q", what, v.Kind)
		}
		for _, sp := range []struct {
			name string
			v    float64
		}{
			{"cruise_speed_ms", v.CruiseSpeedMS}, {"climb_rate_ms", v.ClimbRateMS},
			{"min_speed_ms", v.MinSpeedMS}, {"turn_rate_deg_s", v.TurnRateDegS},
		} {
			if !finite(sp.v) || sp.v < 0 || sp.v > maxSpeedMS {
				return nil, fmt.Errorf("scenario: %s: %s %v outside [0,%d]", what, sp.name, sp.v, maxSpeedMS)
			}
		}
		if v.Kind != KindFixedWing && v.MinSpeedMS > 0 {
			return nil, fmt.Errorf("scenario: %s: min_speed_ms is fixed-wing only", what)
		}
		if v.MinSpeedMS > 0 && v.CruiseSpeedMS > 0 && v.MinSpeedMS > v.CruiseSpeedMS {
			return nil, fmt.Errorf("scenario: %s: min_speed_ms %v above cruise %v", what, v.MinSpeedMS, v.CruiseSpeedMS)
		}
		if v.Rotors < 0 || v.Rotors > 12 {
			return nil, fmt.Errorf("scenario: %s: rotors %d outside [0,12]", what, v.Rotors)
		}
		if b := v.Battery; b != nil {
			if !finite(b.EnduranceMin) || b.EnduranceMin < 0 || b.EnduranceMin > 1000 {
				return nil, fmt.Errorf("scenario: %s: endurance_min %v outside [0,1000]", what, b.EnduranceMin)
			}
			if !finite(b.NominalVoltage) || b.NominalVoltage < 0 || b.NominalVoltage > 1000 {
				return nil, fmt.Errorf("scenario: %s: nominal_voltage %v outside [0,1000]", what, b.NominalVoltage)
			}
			if !finite(b.SpeedDrainFactor) || b.SpeedDrainFactor < 0 || b.SpeedDrainFactor > 100 {
				return nil, fmt.Errorf("scenario: %s: speed_drain_factor %v outside [0,100]", what, b.SpeedDrainFactor)
			}
		}
	}
	return fleet, nil
}

func (s *Scenario) validateLinks(fleet map[string]int) error {
	if len(s.Links) > maxLinks {
		return fmt.Errorf("scenario: %d link rules above %d", len(s.Links), maxLinks)
	}
	for i, l := range s.Links {
		what := fmt.Sprintf("links[%d]", i)
		if l.UAV != "" {
			if _, ok := fleet[l.UAV]; !ok {
				return fmt.Errorf("scenario: %s: unknown uav %q", what, l.UAV)
			}
		}
		if err := validateProfile(what, l.Profile); err != nil {
			return err
		}
		if !finite(l.OutageFromS) || !finite(l.OutageToS) ||
			l.OutageFromS < 0 || l.OutageToS < l.OutageFromS {
			return fmt.Errorf("scenario: %s: outage window [%v,%v) invalid", what, l.OutageFromS, l.OutageToS)
		}
	}
	return nil
}

func (s *Scenario) validateTimeline(fleet map[string]int) error {
	if len(s.Timeline) > maxTimeline {
		return fmt.Errorf("scenario: %d timeline events above %d", len(s.Timeline), maxTimeline)
	}
	for i, ev := range s.Timeline {
		what := fmt.Sprintf("timeline[%d]", i)
		if !finite(ev.AtS) || ev.AtS < 0 || ev.AtS > s.HorizonS {
			return fmt.Errorf("scenario: %s: at_s %v outside [0,horizon]", what, ev.AtS)
		}
		vi, ok := fleet[ev.UAV]
		if !ok {
			return fmt.Errorf("scenario: %s: unknown uav %q", what, ev.UAV)
		}
		switch ev.Kind {
		case EventBatteryCollapse:
			if !finite(ev.TempC) || ev.TempC <= 0 || ev.TempC > 200 {
				return fmt.Errorf("scenario: %s: temp_c %v outside (0,200]", what, ev.TempC)
			}
			if !finite(ev.ChargePct) || ev.ChargePct < 0 || ev.ChargePct > 100 {
				return fmt.Errorf("scenario: %s: charge_pct %v outside [0,100]", what, ev.ChargePct)
			}
		case EventGPSSpoof:
			if !finite(ev.BearingDeg) || ev.BearingDeg < 0 || ev.BearingDeg >= 360 {
				return fmt.Errorf("scenario: %s: bearing_deg %v outside [0,360)", what, ev.BearingDeg)
			}
			if !finite(ev.DriftMS) || ev.DriftMS <= 0 || ev.DriftMS > 50 {
				return fmt.Errorf("scenario: %s: drift_ms %v outside (0,50]", what, ev.DriftMS)
			}
		case EventRotorFailure:
			if n := s.Fleet[vi].rotors(); ev.Rotor < 0 || ev.Rotor >= n {
				return fmt.Errorf("scenario: %s: rotor %d outside [0,%d)", what, ev.Rotor, n)
			}
		case EventCommsFailure, EventCameraFailure:
		default:
			return fmt.Errorf("scenario: %s: unknown kind %q", what, ev.Kind)
		}
	}
	return nil
}

// Digest fingerprints the scenario: the canonical JSON encoding hashed
// with sha256. Recordings and campaign manifests embed it so a run is
// never resumed against a silently different mission description.
func (s *Scenario) Digest() string {
	data, err := json.Marshal(s)
	if err != nil {
		// The schema is plain data; Marshal cannot fail on it.
		panic(err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}

// Areas returns every site polygon in declaration order.
func (s *Scenario) Areas() []geo.Polygon {
	out := make([]geo.Polygon, len(s.Sites))
	for i, site := range s.Sites {
		out[i] = site.Polygon()
	}
	return out
}

// FleetIDs returns the vehicle ids in declaration order.
func (s *Scenario) FleetIDs() []string {
	out := make([]string, len(s.Fleet))
	for i, v := range s.Fleet {
		out[i] = v.ID
	}
	return out
}
