// Package missionhost turns the one-mission platform into a
// multi-tenant service: a registry of independent seeded missions,
// ticked with per-mission budgets on a shared bounded worker pool,
// publishing copy-on-write status snapshots that any number of
// watchers read without ever touching a tick lock. Idle or
// over-capacity missions are parked — checkpointed through the
// flightrec black-box path and released from memory — and rehydrated
// transparently on the next access, bit-identical to a mission that
// never left RAM.
package missionhost

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"

	"sesame/internal/eddi"
	"sesame/internal/platform"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// Spec declares one hosted mission. Exactly one of three shapes:
// a generated archetype (Archetype set), a full declarative scenario
// document (Scenario set), or the classic demo mission (neither set:
// platform.ClassicMission with UAVs and Persons over the 400 m square,
// as cmd/sesame-gcs flies it).
// The host rebuilds a mission from its normalized Spec whenever it
// rehydrates a parked checkpoint, so every field must round-trip
// through JSON deterministically.
type Spec struct {
	// ID names the mission in the registry and the HTTP API. Empty
	// lets the host assign m-0001, m-0002, ...
	ID string `json:"id,omitempty"`
	// Seed drives every random stream of the mission's world. 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// Archetype generates a scenario from the seeded family
	// (maritime_sar, urban_canyon, multi_site).
	Archetype string `json:"archetype,omitempty"`
	// Scenario embeds a full declarative scenario document (the same
	// strict JSON cmd/sesame-mission -scenario accepts).
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Classic-mission knobs; rejected when Archetype/Scenario is set.
	// UAVs 0 means 3; Persons 0 means 10 (use -1 for an empty scene);
	// HorizonS 0 means 600.
	UAVs     int     `json:"uavs,omitempty"`
	Persons  int     `json:"persons,omitempty"`
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Cells is the sharded-scheduler cell count (0 = auto).
	Cells int `json:"cells,omitempty"`
	// TickBudget is how many simulation seconds this mission advances
	// per host round; 0 inherits the host default.
	TickBudget int `json:"tick_budget,omitempty"`
}

const (
	maxSpecUAVs     = 2048
	maxSpecPersons  = 500
	maxSpecHorizonS = 86400
	maxTickBudget   = 1024

	defaultSpecUAVs     = 3
	defaultSpecPersons  = 10
	defaultSpecHorizonS = 600
)

var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ParseSpec decodes a strict mission spec: unknown fields and
// trailing data are rejected, defaults are filled in, and the result
// is validated.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("missionhost: spec: %w", err)
	}
	if dec.More() {
		return s, errors.New("missionhost: spec: trailing data after document")
	}
	s.Normalize()
	return s, s.Validate()
}

// Normalize fills defaulted fields so a Spec rebuilds the identical
// mission after a park/rehydrate or host restart.
func (s *Spec) Normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if !s.scenarioMode() {
		if s.UAVs == 0 {
			s.UAVs = defaultSpecUAVs
		}
		if s.Persons == 0 {
			s.Persons = defaultSpecPersons
		}
		if s.HorizonS == 0 {
			s.HorizonS = defaultSpecHorizonS
		}
	}
}

func (s *Spec) scenarioMode() bool { return s.Archetype != "" || len(s.Scenario) > 0 }

// Kind reports the mission shape: "classic", "archetype" or
// "scenario".
func (s *Spec) Kind() string {
	switch {
	case len(s.Scenario) > 0:
		return "scenario"
	case s.Archetype != "":
		return "archetype"
	default:
		return "classic"
	}
}

// Validate checks a normalized Spec. Scenario documents are fully
// parsed so a bad embedded scenario fails at Create, not at the first
// rehydrate.
func (s *Spec) Validate() error {
	if s.ID != "" && !idPattern.MatchString(s.ID) {
		return fmt.Errorf("missionhost: spec: id %q: must match %s", s.ID, idPattern)
	}
	if s.Archetype != "" && len(s.Scenario) > 0 {
		return errors.New("missionhost: spec: archetype and scenario are mutually exclusive")
	}
	if s.scenarioMode() {
		if s.UAVs != 0 || s.Persons != 0 || s.HorizonS != 0 {
			return errors.New("missionhost: spec: uavs/persons/horizon_s are classic-mission fields; the scenario declares its own")
		}
		if _, err := s.resolveScenario(); err != nil {
			return err
		}
	} else {
		if s.UAVs < 1 || s.UAVs > maxSpecUAVs {
			return fmt.Errorf("missionhost: spec: uavs %d: want 1..%d", s.UAVs, maxSpecUAVs)
		}
		if s.Persons < -1 || s.Persons > maxSpecPersons {
			return fmt.Errorf("missionhost: spec: persons %d: want -1..%d", s.Persons, maxSpecPersons)
		}
		if s.HorizonS <= 0 || s.HorizonS > maxSpecHorizonS {
			return fmt.Errorf("missionhost: spec: horizon_s %g: want (0, %d]", s.HorizonS, maxSpecHorizonS)
		}
	}
	if s.Cells < 0 {
		return fmt.Errorf("missionhost: spec: cells %d: must be >= 0", s.Cells)
	}
	if s.TickBudget < 0 || s.TickBudget > maxTickBudget {
		return fmt.Errorf("missionhost: spec: tick_budget %d: want 0..%d", s.TickBudget, maxTickBudget)
	}
	return nil
}

func (s *Spec) resolveScenario() (*scenario.Scenario, error) {
	if len(s.Scenario) > 0 {
		return scenario.Load(s.Scenario)
	}
	return scenario.Generate(s.Seed, s.Archetype)
}

// built is one freshly constructed mission: a started platform plus
// the absolute simulation time the mission flies to. end is a pure
// function of the Spec, so a rebuilt mission agrees with the
// original about when the horizon falls.
type built struct {
	world *uavsim.World
	p     *platform.Platform
	end   float64
}

// build constructs the mission the Spec declares, mission started and
// ready to tick.
func (s *Spec) build(cfg platform.Config) (*built, error) {
	if s.scenarioMode() {
		sc, err := s.resolveScenario()
		if err != nil {
			return nil, err
		}
		run, err := platform.LaunchScenario(sc, cfg)
		if err != nil {
			return nil, err
		}
		return &built{world: run.World, p: run.Platform, end: run.World.Clock.Now() + sc.HorizonS}, nil
	}
	w, scene, area, err := platform.ClassicMission{Seed: s.Seed, UAVs: s.UAVs, Persons: s.Persons}.Build()
	if err != nil {
		return nil, err
	}
	p, err := platform.New(w, scene, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.StartMission(area); err != nil {
		p.Close()
		return nil, err
	}
	return &built{world: w, p: p, end: w.Clock.Now() + s.HorizonS}, nil
}

// MissionDigest fingerprints a flown mission: status, decision, the
// full EDDI history and the 12-decimal fleet availability — the same
// digest idiom the campaign engine and the flightrec experiment gate
// on. Two runs of the same Spec digest equal iff they are
// bit-identical.
func MissionDigest(p *platform.Platform) string {
	blob := struct {
		Status   platform.Status
		Decision string
		History  []eddi.Event
	}{p.Status(), p.Decision().String(), p.Coordinator.History("")}
	data, err := json.Marshal(blob)
	if err != nil {
		return "digest-error: " + err.Error()
	}
	if avail, err := p.Availability(); err == nil {
		data = append(data, fmt.Sprintf("avail=%.12f", avail)...)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}
