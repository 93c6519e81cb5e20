// Package campaign is the Monte Carlo campaign engine: it expands a
// declarative sweep specification (seed range × parameter grid over
// link-fault profiles, fault/attack timing, fleet size and scheduler
// regime) into independent seeded runs, executes them on a bounded
// worker pool with run-level parallelism, and streams compact per-run
// results into incremental CSV/JSON outputs plus risk-curve
// aggregates — turning the paper's single-scenario point figures into
// surfaces (mission-success probability vs link loss, detection-latency
// distributions vs fault timing).
//
// Every run is bit-reproducible from its (seed, params) tuple: the
// engine journals each completed run (flightrec framing), a killed
// sweep resumes by skipping journaled runs, and the merged outputs of
// an interrupted+resumed sweep are byte-identical to an uninterrupted
// one.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"

	"sesame/internal/linksim"
	"sesame/internal/scenario"
)

// LinkVariant is one point on the link-condition axis: a linksim
// impairment profile plus an optional hard outage window on one UAV.
type LinkVariant struct {
	Name    string          `json:"name"`
	Profile linksim.Profile `json:"profile"`
	// OutageUAV loses its link entirely in [OutageStartS,
	// OutageStartS+OutageDurS) after mission start (default "u2" when a
	// duration is set).
	OutageUAV    string  `json:"outage_uav,omitempty"`
	OutageStartS float64 `json:"outage_start_s,omitempty"`
	OutageDurS   float64 `json:"outage_dur_s,omitempty"`
}

// FaultVariant is one point on the fault/attack-timing axis: the
// paper's §V-A battery collapse and/or §V-C GPS spoofing attack at
// configurable mission times (0 = not injected).
type FaultVariant struct {
	Name string `json:"name"`
	// BatteryAtS injects the battery collapse on BatteryUAV (default
	// "u1") that many seconds after mission start.
	BatteryAtS float64 `json:"battery_at_s,omitempty"`
	BatteryUAV string  `json:"battery_uav,omitempty"`
	// SpoofAtS starts the GPS spoofing attack on SpoofUAV (default
	// "u2") that many seconds after mission start.
	SpoofAtS float64 `json:"spoof_at_s,omitempty"`
	SpoofUAV string  `json:"spoof_uav,omitempty"`
}

// Spec is a declarative sweep: the cross product of the seed range and
// every grid axis. Zero-valued axes default to a single nominal point,
// so the minimal useful spec is just a seed count.
type Spec struct {
	Name string `json:"name"`
	// SeedFrom..SeedFrom+SeedCount-1 are the world seeds swept.
	SeedFrom  int64 `json:"seed_from"`
	SeedCount int   `json:"seed_count"`
	// HorizonS bounds each run's mission time (default 900).
	HorizonS float64 `json:"horizon_s"`
	// AreaSideM is the survey square's side (default 350).
	AreaSideM float64 `json:"area_side_m"`
	// Persons scatters that many detection targets in the area (0 =
	// coverage-only mission, the fast default).
	Persons int `json:"persons,omitempty"`
	// Fleets, Cells, Links and Faults are the grid axes (defaults:
	// [3], [0], one clean link, one fault-free variant).
	Fleets []int          `json:"fleets,omitempty"`
	Cells  []int          `json:"cells,omitempty"`
	Links  []LinkVariant  `json:"links,omitempty"`
	Faults []FaultVariant `json:"faults,omitempty"`
	// Scenarios sweeps generated scenario archetypes
	// (internal/scenario: maritime_sar, urban_canyon, multi_site)
	// instead of the classic square-area mission. Each run builds its
	// world from scenario.GenerateN(seed, archetype, fleet), so the
	// scenario carries its own wind, visibility, link profiles and
	// fault timeline — the Links/Faults axes (and Persons) must stay
	// at their defaults when this axis is used. Empty keeps the classic
	// mission and the spec's serialized bytes unchanged.
	Scenarios []string `json:"scenarios,omitempty"`
}

// Run is one expanded grid point: the (seed, params) tuple that fully
// determines a simulation, bit for bit.
type Run struct {
	Index int          `json:"index"`
	Seed  int64        `json:"seed"`
	Fleet int          `json:"fleet"`
	Cells int          `json:"cells"`
	Link  LinkVariant  `json:"link"`
	Fault FaultVariant `json:"fault"`
	// Scenario is the generated-archetype point of the scenarios axis
	// ("" on the classic mission path).
	Scenario string `json:"scenario,omitempty"`
}

// Key is the run's stable identity within its campaign, derived only
// from the (seed, params) tuple.
func (r Run) Key() string {
	key := fmt.Sprintf("s%d-f%d-c%d-%s-%s", r.Seed, r.Fleet, r.Cells, r.Link.Name, r.Fault.Name)
	if r.Scenario != "" {
		key += "-" + r.Scenario
	}
	return key
}

// GroupKey identifies the run's aggregation group: every axis except
// the seed. Risk curves are computed per group over the seed sweep.
func (r Run) GroupKey() string {
	key := fmt.Sprintf("f%d-c%d-%s-%s", r.Fleet, r.Cells, r.Link.Name, r.Fault.Name)
	if r.Scenario != "" {
		key += "-" + r.Scenario
	}
	return key
}

// variantName constrains axis names so run keys and CSV cells stay
// unambiguous.
var variantName = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Normalize fills every defaulted field in place.
func (s *Spec) Normalize() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.SeedCount <= 0 {
		s.SeedCount = 1
	}
	if s.HorizonS <= 0 {
		s.HorizonS = 900
	}
	if s.AreaSideM <= 0 {
		s.AreaSideM = 350
	}
	if len(s.Fleets) == 0 {
		s.Fleets = []int{3}
	}
	if len(s.Cells) == 0 {
		s.Cells = []int{0}
	}
	if len(s.Links) == 0 {
		s.Links = []LinkVariant{{Name: "nominal"}}
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultVariant{{Name: "none"}}
	}
	for i := range s.Links {
		if s.Links[i].OutageDurS > 0 && s.Links[i].OutageUAV == "" {
			s.Links[i].OutageUAV = "u2"
		}
	}
	for i := range s.Faults {
		if s.Faults[i].BatteryAtS > 0 && s.Faults[i].BatteryUAV == "" {
			s.Faults[i].BatteryUAV = "u1"
		}
		if s.Faults[i].SpoofAtS > 0 && s.Faults[i].SpoofUAV == "" {
			s.Faults[i].SpoofUAV = "u2"
		}
	}
}

// Validate checks a normalized spec. Fault and outage targets must
// exist in every swept fleet size (the documents of every grid point
// are validated), so a run's behaviour never silently depends on a
// target being absent.
func (s *Spec) Validate() error {
	if !variantName.MatchString(s.Name) {
		return fmt.Errorf("campaign: name %q must match %s", s.Name, variantName)
	}
	for _, f := range s.Fleets {
		if f < 1 {
			return fmt.Errorf("campaign: fleet size %d: need at least one UAV", f)
		}
	}
	for _, c := range s.Cells {
		if c < 0 {
			return fmt.Errorf("campaign: cells %d: must be >= 0 (0 = auto)", c)
		}
	}
	seen := map[string]bool{}
	for _, l := range s.Links {
		if !variantName.MatchString(l.Name) {
			return fmt.Errorf("campaign: link variant name %q must match %s", l.Name, variantName)
		}
		if seen["l:"+l.Name] {
			return fmt.Errorf("campaign: duplicate link variant %q", l.Name)
		}
		seen["l:"+l.Name] = true
		if l.OutageDurS < 0 || l.OutageStartS < 0 {
			return fmt.Errorf("campaign: link %q: negative outage window", l.Name)
		}
	}
	for _, f := range s.Faults {
		if !variantName.MatchString(f.Name) {
			return fmt.Errorf("campaign: fault variant name %q must match %s", f.Name, variantName)
		}
		if seen["f:"+f.Name] {
			return fmt.Errorf("campaign: duplicate fault variant %q", f.Name)
		}
		seen["f:"+f.Name] = true
		if f.BatteryAtS < 0 || f.SpoofAtS < 0 {
			return fmt.Errorf("campaign: fault %q: negative injection time", f.Name)
		}
	}
	if len(s.Scenarios) > 0 {
		for _, name := range s.Scenarios {
			if !scenario.KnownArchetype(name) {
				return fmt.Errorf("campaign: unknown scenario archetype %q (known: %s)",
					name, strings.Join(scenario.Archetypes(), ", "))
			}
			if seen["s:"+name] {
				return fmt.Errorf("campaign: duplicate scenario archetype %q", name)
			}
			seen["s:"+name] = true
		}
		// A generated scenario carries its own link profiles, fault
		// timeline and detection targets; crossing it with the classic
		// axes would silently ignore them.
		if len(s.Links) != 1 || s.Links[0] != (LinkVariant{Name: "nominal"}) ||
			len(s.Faults) != 1 || s.Faults[0] != (FaultVariant{Name: "none"}) {
			return errors.New("campaign: the scenarios axis replaces the links/faults axes (scenarios embed their own link and fault models)")
		}
		if s.Persons > 0 {
			return errors.New("campaign: the scenarios axis replaces persons (scenarios scatter their own detection targets)")
		}
		return nil
	}
	// Every classic grid point compiles into a scenario document; the
	// seed never changes whether one is valid, so checking one seed's
	// grid fails a bad point here rather than mid-sweep.
	one := *s
	one.SeedCount = 1
	for _, run := range one.Expand() {
		doc, err := run.document(s)
		if err == nil {
			err = doc.Validate()
		}
		if err != nil {
			return fmt.Errorf("campaign: run %s: %w", run.Key(), err)
		}
	}
	return nil
}

// Digest fingerprints the normalized spec; the journal embeds it so a
// resume against an edited spec fails fast instead of merging
// incompatible result sets.
func (s *Spec) Digest() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}

// scenarioAxis returns the scenarios axis with the classic mission as
// the single point when the axis is unused, so Expand and Total treat
// both paths uniformly without changing legacy expansion order.
func (s *Spec) scenarioAxis() []string {
	if len(s.Scenarios) == 0 {
		return []string{""}
	}
	return s.Scenarios
}

// Total returns the number of runs the spec expands to.
func (s *Spec) Total() int {
	return s.SeedCount * len(s.Fleets) * len(s.Cells) * len(s.Links) * len(s.Faults) * len(s.scenarioAxis())
}

// Expand enumerates every grid point in deterministic order: seed
// outermost, then fleet, cells, link, fault, scenario. Run indexes are
// the resume journal's identity, so this order is part of the
// campaign's on-disk contract.
func (s *Spec) Expand() []Run {
	runs := make([]Run, 0, s.Total())
	for si := 0; si < s.SeedCount; si++ {
		for _, fleet := range s.Fleets {
			for _, cells := range s.Cells {
				for _, link := range s.Links {
					for _, fault := range s.Faults {
						for _, scen := range s.scenarioAxis() {
							runs = append(runs, Run{
								Index:    len(runs),
								Seed:     s.SeedFrom + int64(si),
								Fleet:    fleet,
								Cells:    cells,
								Link:     link,
								Fault:    fault,
								Scenario: scen,
							})
						}
					}
				}
			}
		}
	}
	return runs
}
