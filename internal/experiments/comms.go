package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"

	"sesame/internal/linksim"
	"sesame/internal/platform"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// CommsScenario is one row of the degraded-comms matrix: a link-fault
// configuration and the mission-level outcome it produced.
type CommsScenario struct {
	Name string
	// What was injected.
	Profile     linksim.Profile
	OutageUAV   string
	OutageStart float64 // seconds after mission start; 0 = none
	OutageDur   float64
	DBOutageDur float64 // mission database unavailable window

	// What happened.
	Completed        bool
	CompletionS      float64
	Availability     float64
	MaxTelemetryAgeS float64           // worst staleness seen on the outage UAV
	LostLinkEvents   int               // watchdog contingencies fired
	CompromiseEvents int               // IDS-driven compromise responses
	Link             linksim.LinkStats // aggregated over all links
	Drops            platform.DropCounters
	WorldDrops       uavsim.DropCounters
	DBRetries        platform.RetryCounters
	// ReplayIdentical is the determinism check: the scenario is run
	// twice and the final platform digests must match bit for bit.
	ReplayIdentical bool
}

// CommsResult is the full degraded-comms evaluation (DESIGN.md,
// robustness section): the same mission flown under increasingly
// hostile link conditions.
type CommsResult struct {
	Scenarios []CommsScenario
}

// commsSpec describes one scenario to fly.
type commsSpec struct {
	name        string
	profile     linksim.Profile
	outageStart float64
	outageDur   float64
	dbStart     float64
	dbDur       float64
}

// commsOutcome is one run's raw measurements plus its digest.
type commsOutcome struct {
	scenario CommsScenario
	digest   string
}

// RunComms flies the degraded-comms matrix. Every scenario is run
// twice to verify the deterministic-replay contract end to end.
func RunComms(seed int64) (*CommsResult, error) {
	specs := []commsSpec{
		// Clean baseline for comparison.
		{name: "nominal"},
		// Duplication is the one impairment the IDS is transparent to:
		// the mission outcome must match nominal while the link stats
		// show the duplicated frames.
		{name: "dup-5", profile: linksim.Profile{DupProb: 0.05}},
		// Random frame loss: stale odometry makes the IDS read the GPS
		// track as spoofed, so this measures the security stack's
		// response to a merely unreliable link.
		{name: "lossy-10", profile: linksim.Profile{DropProb: 0.10}},
		// A 12 s brownout stays below the 15 s lost-link window: the
		// staleness must be visible but no contingency may fire.
		{name: "brownout-12s", outageStart: 90, outageDur: 12},
		// A 45 s blackout crosses the window: the watchdog must fire
		// the RTB contingency and the fleet must still finish.
		{name: "blackout-45s", outageStart: 90, outageDur: 45},
		// The links are fine but the mission database browns out:
		// bounded retry with backoff must recover every write.
		{name: "db-brownout-15s", dbStart: 60, dbDur: 15},
	}
	res := &CommsResult{}
	for _, spec := range specs {
		first, err := runCommsOnce(seed, spec)
		if err != nil {
			return nil, err
		}
		replay, err := runCommsOnce(seed, spec)
		if err != nil {
			return nil, err
		}
		sc := first.scenario
		sc.ReplayIdentical = first.digest == replay.digest
		res.Scenarios = append(res.Scenarios, sc)
	}
	return res, nil
}

func runCommsOnce(seed int64, spec commsSpec) (*commsOutcome, error) {
	const outageUAV = "u2"
	doc := scenario.Classic(seed, 3, 0, 350)
	doc.HorizonS = 1800
	doc.Links = []scenario.Link{{Profile: spec.profile}}
	if spec.outageDur > 0 {
		doc.Links = append(doc.Links, scenario.Link{UAV: outageUAV, Profile: spec.profile,
			OutageFromS: spec.outageStart, OutageToS: spec.outageStart + spec.outageDur})
	}
	run, err := platform.LaunchScenario(doc, platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w, p, start := run.World, run.Platform, run.Start
	defer p.Close()
	if spec.dbDur > 0 {
		from, to := start+spec.dbStart, start+spec.dbStart+spec.dbDur
		p.DB.SetFaultHook(func(string) error {
			if now := w.Clock.Now(); now >= from && now < to {
				return platform.ErrUnavailable
			}
			return nil
		})
	}

	sc := CommsScenario{
		Name: spec.name, Profile: spec.profile,
		OutageUAV: outageUAV, OutageStart: spec.outageStart,
		OutageDur: spec.outageDur, DBOutageDur: spec.dbDur,
	}
	end := w.Clock.Now() + doc.HorizonS
	for w.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return nil, err
		}
		for _, us := range p.Status().UAVs {
			if us.ID == outageUAV && us.TelemetryAgeS > sc.MaxTelemetryAgeS {
				sc.MaxTelemetryAgeS = us.TelemetryAgeS
			}
		}
		if p.MissionComplete() {
			sc.Completed = true
			break
		}
	}
	sc.CompletionS = w.Clock.Now() - start
	if sc.Availability, err = p.Availability(); err != nil {
		return nil, err
	}
	status := p.Status()
	sc.Drops = status.Drops
	sc.WorldDrops = status.WorldDrops
	sc.DBRetries = status.DBRetries
	for _, s := range run.Links.Stats() {
		sc.Link.Offered += s.Offered
		sc.Link.Delivered += s.Delivered
		sc.Link.Dropped += s.Dropped
		sc.Link.OutageDropped += s.OutageDropped
		sc.Link.Rejected += s.Rejected
		sc.Link.Delayed += s.Delayed
		sc.Link.Duplicated += s.Duplicated
		sc.Link.Reordered += s.Reordered
		sc.Link.Pending += s.Pending
	}
	hash := sha256.New()
	enc := json.NewEncoder(hash)
	if err := enc.Encode(status); err != nil {
		return nil, err
	}
	for _, u := range w.UAVs() {
		for _, ev := range p.Coordinator.History(u.ID()) {
			if strings.HasPrefix(ev.Summary, "lost link:") {
				sc.LostLinkEvents++
			}
			if strings.HasPrefix(ev.Summary, "compromise:") {
				sc.CompromiseEvents++
			}
			if err := enc.Encode(ev); err != nil {
				return nil, err
			}
		}
	}
	if err := enc.Encode(sc.Link); err != nil {
		return nil, err
	}
	return &commsOutcome{
		scenario: sc,
		digest:   hex.EncodeToString(hash.Sum(nil)),
	}, nil
}

// Print writes the mission-outcome and loss-accounting tables.
func (r *CommsResult) Print(w io.Writer) {
	printf(w, "== Degraded comms: mission outcome per link condition ==\n")
	printf(w, "%-16s %5s %8s %7s %8s %9s %11s %7s\n",
		"scenario", "done", "time(s)", "avail", "max-age", "lost-link", "compromises", "replay")
	for _, s := range r.Scenarios {
		printf(w, "%-16s %5v %8.0f %6.1f%% %7.0fs %9d %11d %7v\n",
			s.Name, s.Completed, s.CompletionS, s.Availability*100,
			s.MaxTelemetryAgeS, s.LostLinkEvents, s.CompromiseEvents, s.ReplayIdentical)
	}
	printf(w, "\n== Degraded comms: loss accounting (all links aggregated) ==\n")
	printf(w, "%-16s %8s %9s %8s %7s %8s %9s %10s %9s\n",
		"scenario", "offered", "delivered", "dropped", "outage", "dup", "plat-drop", "db-retry", "db-aband")
	for _, s := range r.Scenarios {
		printf(w, "%-16s %8d %9d %8d %7d %8d %9d %10d %9d\n",
			s.Name, s.Link.Offered, s.Link.Delivered, s.Link.Dropped,
			s.Link.OutageDropped, s.Link.Duplicated,
			s.Drops.Total(), s.DBRetries.Scheduled, s.DBRetries.Abandoned)
	}
}

// WriteCSV dumps the matrix to dir/comms_scenarios.csv.
func (r *CommsResult) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Scenarios))
	for _, s := range r.Scenarios {
		rows = append(rows, []string{
			s.Name, boolS(s.Completed), f2s(s.CompletionS), f2s(s.Availability),
			f2s(s.MaxTelemetryAgeS), i2s(s.LostLinkEvents), i2s(s.CompromiseEvents),
			u2s(s.Link.Offered), u2s(s.Link.Delivered), u2s(s.Link.Dropped),
			u2s(s.Link.OutageDropped), u2s(s.Link.Duplicated),
			u2s(s.Drops.Total()), u2s(s.DBRetries.Scheduled),
			u2s(s.DBRetries.Succeeded), u2s(s.DBRetries.Abandoned),
			boolS(s.ReplayIdentical),
		})
	}
	return writeCSV(dir, "comms_scenarios.csv", []string{
		"scenario", "completed", "completion_s", "availability",
		"max_telemetry_age_s", "lost_link_events", "compromise_events",
		"offered", "delivered", "dropped", "outage_dropped", "duplicated",
		"platform_drops", "db_retries_scheduled", "db_retries_succeeded",
		"db_retries_abandoned", "replay_identical",
	}, rows)
}
