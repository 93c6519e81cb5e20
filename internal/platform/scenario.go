package platform

// LaunchScenario is the one way a front end builds a mission: the
// bridge from a declarative scenario (internal/scenario; the paper's
// §V mission is scenario.Classic) to a running platform. It builds the
// seeded world and scene, arms the optional chaos plan, attaches the
// link-quality layer, starts the (possibly multi-site) mission and
// registers the fault timeline. It lives in platform — not scenario —
// because the scenario package sits below platform in the import
// graph.

import (
	"errors"
	"strings"

	"sesame/internal/chaos"
	"sesame/internal/linksim"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

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
	// Start is the clock before the climb-out: every timeline and
	// outage offset counts from it.
	Start float64
}

// LaunchScenario builds a scenario into a running mission: world,
// scene, platform (with the scenario attached to cfg), link layer,
// chaos layer and fault timeline, with the mission started over every
// site. The caller drives the returned platform's tick loop for
// sc.HorizonS from when LaunchScenario returns. cfg supplies the
// platform calibration; its Scenario, Visibility and UseThermalBelow
// fields are overwritten from the scenario itself.
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
	// are decided first (chaos wraps the link filter). A vehicle's
	// IDS alerts (alerts/ids/<uav>) cross its link too, so a lossy link
	// can delay or lose the alert that flags it.
	var links *linksim.Layer
	if len(sc.Links) > 0 {
		links = linksim.New(w.Clock, "scenario")
		links.AttachBus(w.Bus)
		links.AttachBroker(p.Broker, func(topic string) string {
			if uav, ok := strings.CutPrefix(topic, "alerts/ids/"); ok {
				return uav
			}
			return ""
		})
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
	// The link rules hold from launch, so climb-out frames cross the
	// declared links and an outage that opens during the climb-out is
	// honoured from its first second.
	start := w.Clock.Now()
	if links != nil {
		sc.ApplyLinks(links, start)
	}
	if err := p.StartMissionSites(sc.Areas()); err != nil {
		p.Close()
		return nil, err
	}
	if err := sc.ScheduleTimeline(w, start); err != nil {
		p.Close()
		return nil, err
	}
	return &ScenarioRun{World: w, Platform: p, Links: links, Chaos: chaosLayer, Start: start}, nil
}
