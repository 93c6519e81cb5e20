package campaign

// One campaign run: build the platform exactly as the (seed, params)
// tuple dictates, tick to the horizon, and reduce the mission to a
// compact Result. Construction is a pure function of the tuple — the
// same contract that makes flightrec resume work — so any journaled
// run re-executes bit-identically for triage (RerunOne).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"sesame/internal/eddi"
	"sesame/internal/platform"
	"sesame/internal/scenario"
)

// Result is the compact per-run record streamed into the aggregator
// and journaled for resume. Latencies of -1 mean "not applicable or
// never detected"; the aggregator separates the two via the fault spec.
type Result struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	Seed  int64  `json:"seed"`
	Fleet int    `json:"fleet"`
	Cells int    `json:"cells"`
	Link  string `json:"link"`
	Fault string `json:"fault"`
	// Scenario is the generated archetype this run flew ("" for the
	// classic mission, keeping legacy journals and JSONL byte-stable).
	Scenario string `json:"scenario,omitempty"`

	Completed    bool    `json:"completed"`
	CompletionS  float64 `json:"completion_s"`
	Ticks        uint64  `json:"ticks"`
	Decision     string  `json:"decision"`
	Availability float64 `json:"availability"`

	// SafetyDetectS / SecurityDetectS are the delays from fault
	// injection to the first matching EDDI finding on the injected UAV.
	SafetyDetectS   float64 `json:"safety_detect_s"`
	SecurityDetectS float64 `json:"security_detect_s"`

	LostLinkEvents   int `json:"lost_link_events"`
	CompromiseEvents int `json:"compromise_events"`

	Drops      uint64 `json:"drops"`
	WorldDrops uint64 `json:"world_drops"`
	DBRetries  uint64 `json:"db_retries"`

	LinkOffered   uint64 `json:"link_offered"`
	LinkDelivered uint64 `json:"link_delivered"`
	LinkDropped   uint64 `json:"link_dropped"`

	// Digest fingerprints the externally observable final state; a
	// standalone re-execution from (seed, params) must reproduce it.
	Digest string `json:"digest"`

	// Status is "" for a normally executed run and "failed" for a run
	// quarantined after exhausting its retry budget (Options.RunRetries).
	// Attempts counts executions when more than one was needed; Error
	// holds the final attempt's failure. All three are omitempty so
	// campaigns without failures serialize byte-identically to before.
	Status   string `json:"status,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Failed reports whether the run was quarantined rather than executed.
func (r Result) Failed() bool { return r.Status == "failed" }

// scratch is per-worker reusable state: everything a run needs that
// does not depend on the seed. Reusing it amortizes per-run setup
// across the thousands of runs a worker executes.
type scratch struct {
	blob []byte // digest serialization buffer
}

func newScratch() *scratch { return &scratch{} }

// document compiles the run into the scenario document it flies: the
// generated archetype on the scenarios axis, otherwise the classic
// mission with the link variant on every vehicle's link (plus its
// outage window) and the fault variant on the timeline.
func (run Run) document(spec *Spec) (*scenario.Scenario, error) {
	if run.Scenario != "" {
		return scenario.GenerateN(run.Seed, run.Scenario, run.Fleet)
	}
	sc := scenario.Classic(run.Seed, run.Fleet, spec.Persons, spec.AreaSideM)
	sc.HorizonS = spec.HorizonS
	sc.Links = []scenario.Link{{Profile: run.Link.Profile}}
	if l := run.Link; l.OutageDurS > 0 {
		sc.Links = append(sc.Links, scenario.Link{UAV: l.OutageUAV, Profile: l.Profile,
			OutageFromS: l.OutageStartS, OutageToS: l.OutageStartS + l.OutageDurS})
	}
	if f := run.Fault; f.BatteryAtS > 0 {
		sc.Timeline = append(sc.Timeline, scenario.BatteryCollapse(f.BatteryAtS, f.BatteryUAV))
	}
	if f := run.Fault; f.SpoofAtS > 0 {
		sc.Timeline = append(sc.Timeline, scenario.GPSSpoof(f.SpoofAtS, f.SpoofUAV))
	}
	return sc, nil
}

// executeRun flies one grid point to its horizon and reduces it to a
// Result. The platform is forced onto the serial scheduler path
// (Workers=1): campaign parallelism is run-level, and the scheduler is
// bit-identical across pool sizes anyway. Completion and detection
// times count from launch, like the fault times.
func executeRun(spec *Spec, run Run, sc *scratch) (Result, error) {
	res := Result{
		Index: run.Index, Key: run.Key(), Seed: run.Seed,
		Fleet: run.Fleet, Cells: run.Cells,
		Link: run.Link.Name, Fault: run.Fault.Name,
		Scenario:      run.Scenario,
		SafetyDetectS: -1, SecurityDetectS: -1,
	}
	doc, err := run.document(spec)
	if err != nil {
		return res, err
	}
	cfg := platform.DefaultConfig()
	cfg.Workers = 1
	cfg.Cells = run.Cells
	sr, err := platform.LaunchScenario(doc, cfg)
	if err != nil {
		return res, err
	}
	defer sr.Platform.Close()
	p, w := sr.Platform, sr.World

	end := w.Clock.Now() + doc.HorizonS
	for w.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return res, err
		}
		if p.MissionComplete() {
			res.Completed = true
			break
		}
	}
	res.CompletionS = w.Clock.Now() - sr.Start
	res.Ticks = p.Ticks()
	res.Decision = p.Decision().String()
	if res.Availability, err = p.Availability(); err != nil {
		return res, err
	}
	// Record availability at the same 12-decimal precision the mission
	// digest hashes. The fleet mean is deterministic (summed in sorted
	// UAV order); the rounding stays because the journal and every
	// output file carry the value at this precision.
	res.Availability = math.Round(res.Availability*1e12) / 1e12

	status := p.Status()
	res.Drops = status.Drops.Total()
	res.WorldDrops = status.WorldDrops.TelemetryPublish
	res.DBRetries = status.DBRetries.Scheduled
	if sr.Links != nil {
		for _, s := range sr.Links.Stats() {
			res.LinkOffered += s.Offered
			res.LinkDelivered += s.Delivered
			res.LinkDropped += s.Dropped
		}
	}

	history := p.Coordinator.History("")
	res.scanHistory(history, run, sr.Start)
	res.Digest = missionDigest(sc, status, p.Decision().String(), history, res.Availability)
	return res, nil
}

// scanHistory extracts detection latencies and contingency counts from
// the EDDI event stream.
func (res *Result) scanHistory(history []eddi.Event, run Run, start float64) {
	batAt := start + run.Fault.BatteryAtS
	spoofAt := start + run.Fault.SpoofAtS
	for _, ev := range history {
		if strings.HasPrefix(ev.Summary, "lost link:") {
			res.LostLinkEvents++
		}
		if strings.HasPrefix(ev.Summary, "compromise:") {
			res.CompromiseEvents++
		}
		if run.Fault.BatteryAtS > 0 && res.SafetyDetectS < 0 &&
			ev.Kind == eddi.KindSafety && ev.UAV == run.Fault.BatteryUAV && ev.Time >= batAt {
			res.SafetyDetectS = ev.Time - batAt
		}
		if run.Fault.SpoofAtS > 0 && res.SecurityDetectS < 0 &&
			ev.Kind == eddi.KindSecurity && ev.UAV == run.Fault.SpoofUAV && ev.Time >= spoofAt {
			res.SecurityDetectS = ev.Time - spoofAt
		}
	}
}

// missionDigest fingerprints the run's externally observable final
// state — fleet status, mission decision, full EDDI history and the
// availability number — reusing the worker's serialization buffer.
func missionDigest(sc *scratch, status platform.Status, decision string, history []eddi.Event, avail float64) string {
	blob := struct {
		Status   platform.Status
		Decision string
		History  []eddi.Event
	}{status, decision, history}
	data, err := json.Marshal(blob)
	if err != nil {
		// Status and events are plain data; Marshal cannot fail.
		panic(err)
	}
	sc.blob = append(sc.blob[:0], data...)
	sc.blob = append(sc.blob, fmt.Sprintf("avail=%.12f", avail)...)
	return fmt.Sprintf("%x", sha256.Sum256(sc.blob))
}

// RerunOne re-executes a single grid point standalone from its (seed,
// params) tuple — the triage path: any journaled run can be reproduced
// bit-identically without the rest of the sweep.
func RerunOne(spec Spec, index int) (Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	runs := spec.Expand()
	if index < 0 || index >= len(runs) {
		return Result{}, fmt.Errorf("campaign: run index %d outside [0,%d)", index, len(runs))
	}
	return executeRun(&spec, runs[index], newScratch())
}
