package platform

// This file holds the two mission descriptions. LaunchScenario is the
// one-call bridge from a declarative scenario (internal/scenario) to a
// running platform: build the seeded world and scene, arm the optional
// chaos plan, attach the link-quality layer, start the (possibly
// multi-site) mission and register the fault timeline. It lives in
// platform — not scenario — because the scenario package sits below
// platform in the import graph. ClassicMission is the paper's §V demo
// mission that every front end flies when no scenario is given.

import (
	"errors"
	"fmt"

	"sesame/internal/chaos"
	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/linksim"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// ClassicHome is the classic mission's home point: Nicosia, Cyprus,
// where the paper's field trials flew. Every vehicle of the classic
// fleet takes off from it.
var ClassicHome = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

// classicSideM is the demo survey square's side when ClassicMission
// leaves SideM at zero.
const classicSideM = 400

// ClassicArea returns the side x side survey square whose south-west
// corner lies 80 m north-east of ClassicHome.
func ClassicArea(side float64) geo.Polygon {
	a := geo.Destination(ClassicHome, 45, 80)
	b := geo.Destination(a, 90, side)
	c := geo.Destination(b, 0, side)
	d := geo.Destination(a, 0, side)
	return geo.Polygon{a, b, c, d}
}

// ClassicMission declares the paper's §V demo mission: vehicles u1..uN
// at ClassicHome cruising at 12 m/s, sweeping the ClassicArea square
// over scattered survivors. Build returns the world, scene and area;
// the caller builds the platform with New, attaches its own layers
// and calls StartMission.
//
// Fault times are the caller's to anchor, and the front ends differ.
// sesame-mission (-battery-fault, -spoof), sesame-gcs (-spoof) and the
// fig5 experiment schedule faults relative to the end of the climb-out
// (the clock after StartMission); campaign classic runs, like
// scenario timelines, schedule them relative to its start (the clock
// before StartMission, ~22 s earlier). Unifying the anchor moves
// every pinned digest of one side.
type ClassicMission struct {
	Seed int64
	// UAVs is the fleet size.
	UAVs int
	// Persons scatters that many survivors, 20 % of them critical,
	// over the square from the world's "scene" stream; <= 0 builds no
	// scene.
	Persons int
	// SideM is the survey square's side in metres (0 = 400).
	SideM float64
}

// Build constructs the mission's seeded world with its fleet, the
// scene (nil without persons) and the survey area.
func (m ClassicMission) Build() (*uavsim.World, *detection.Scene, geo.Polygon, error) {
	side := m.SideM
	if side == 0 {
		side = classicSideM
	}
	w := uavsim.NewWorld(ClassicHome, m.Seed)
	for i := 1; i <= m.UAVs; i++ {
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: fmt.Sprintf("u%d", i), Home: ClassicHome, CruiseSpeedMS: 12}); err != nil {
			return nil, nil, nil, err
		}
	}
	area := ClassicArea(side)
	if m.Persons <= 0 {
		return w, nil, area, nil
	}
	scene, err := detection.NewRandomScene(area, m.Persons, 0.2, w.Clock.Stream("scene"))
	if err != nil {
		return nil, nil, nil, err
	}
	return w, scene, area, nil
}

// ScenarioRun bundles everything LaunchScenario built. Close the
// Platform when done; the layers have no resources of their own.
type ScenarioRun struct {
	World    *uavsim.World
	Platform *Platform
	// Links is the scenario's link-quality layer (nil when the
	// scenario declares no link rules).
	Links *linksim.Layer
	// Chaos is the armed infrastructure fault layer (nil when the
	// scenario embeds no chaos plan).
	Chaos *chaos.Layer
}

// LaunchScenario builds a scenario into a running mission: world,
// scene, platform (with the scenario attached to cfg), link layer,
// chaos layer and fault timeline, with the mission started over every
// site. The caller drives the returned platform's tick loop to
// sc.HorizonS. cfg supplies the platform calibration; its Scenario,
// Visibility and UseThermalBelow fields are overwritten from the
// scenario itself.
func LaunchScenario(sc *scenario.Scenario, cfg Config) (*ScenarioRun, error) {
	if sc == nil {
		return nil, errors.New("platform: nil scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w, err := sc.BuildWorld()
	if err != nil {
		return nil, err
	}
	scene, err := sc.BuildScene(w)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sc
	var chaosLayer *chaos.Layer
	if sc.Chaos != nil {
		chaosLayer, err = chaos.New(w.Clock, *sc.Chaos)
		if err != nil {
			return nil, err
		}
		if mb := chaosLayer.MonitorBuilder(); mb != nil {
			// Copy-on-append: never mutate the caller's slice.
			cfg.ExtraMonitors = append(cfg.ExtraMonitors[:len(cfg.ExtraMonitors):len(cfg.ExtraMonitors)], mb)
		}
	}
	p, err := New(w, scene, cfg)
	if err != nil {
		return nil, err
	}
	// The link layer attaches before chaos so chaos publish failures
	// are decided first (the ArmChaos ordering contract).
	var links *linksim.Layer
	if len(sc.Links) > 0 {
		links = linksim.New(w.Clock, "scenario")
		links.AttachBus(w.Bus)
	}
	if chaosLayer != nil {
		chaosLayer.AttachBus(w.Bus)
		chaosLayer.AttachBroker(p.Broker)
		if hook := chaosLayer.DBHook(ErrUnavailable); hook != nil {
			p.DB.SetFaultHook(hook)
		}
	}
	// Timeline and outage windows are relative to mission start, which
	// is "now": StartMissionSites runs the climb-out, so capture first.
	start := w.Clock.Now()
	if err := p.StartMissionSites(sc.Areas()); err != nil {
		p.Close()
		return nil, err
	}
	if links != nil {
		sc.ApplyLinks(links, start)
	}
	if err := sc.ScheduleTimeline(w, start); err != nil {
		p.Close()
		return nil, err
	}
	return &ScenarioRun{World: w, Platform: p, Links: links, Chaos: chaosLayer}, nil
}
