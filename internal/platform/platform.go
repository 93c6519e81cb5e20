// Package platform implements the SESAME multi-UAV control platform of
// paper §IV-A: the UAV Manager, Task Manager, Database Manager and
// ground-control facade, with every SESAME EDDI technology integrated
// into the mission loop — SafeDrones reliability monitoring, SafeML
// perception monitoring, SINADRA risk assessment, the IDS + Security
// EDDI chain, Collaborative Localization as the spoofing mitigation,
// and the Fig. 1 ConSert network tying their outputs to flight
// decisions. A Config switch turns the SESAME technologies off, giving
// the paper's without-SESAME baseline.
//
// Each technology is an eddi.Runtime monitor (monitor_*.go) registered
// per UAV at New; the fleet scheduler (scheduler.go) evaluates the
// chains concurrently and applies their findings in deterministic
// fleet order.
package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sesame/internal/colloc"
	"sesame/internal/conserts"
	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/geo"
	"sesame/internal/ids"
	"sesame/internal/mqttlite"
	"sesame/internal/obsv"
	"sesame/internal/rosbus"
	"sesame/internal/safedrones"
	"sesame/internal/safeml"
	"sesame/internal/sar"
	"sesame/internal/scenario"
	"sesame/internal/security"
	"sesame/internal/sinadra"
	"sesame/internal/uavsim"

	"sesame/internal/attacktree"
)

// Config parameterizes a Platform.
type Config struct {
	// SESAME enables the EDDI stack; false reproduces the reactive
	// baseline of the paper's comparisons.
	SESAME bool
	// SurveyAltitudeM is the initial mapping altitude; DescendAltitudeM
	// is where SINADRA's descend advice sends the UAV.
	SurveyAltitudeM  float64
	DescendAltitudeM float64
	// SweepSpacingM is the coverage track spacing.
	SweepSpacingM float64
	// Visibility is the ambient visual condition in (0,1].
	Visibility float64
	// UseThermalBelow switches the perception pipeline to the thermal
	// imager when Visibility falls below this value (night operations).
	// Zero keeps RGB always.
	UseThermalBelow float64
	// CoveragePlanner selects the Task Manager's coverage algorithm per
	// strip (nil = boustrophedon). The Task Manager hosts planners as
	// exchangeable services, per §IV-A.
	CoveragePlanner sar.PathPlanner
	// SafeLandingPoint receives UAVs landed by Collaborative
	// Localization; zero value means "land at mission area centroid".
	SafeLandingPoint geo.LatLng
	// Origin is the platform's own network origin for database calls.
	Origin string
	// Workers bounds the fleet scheduler's worker pool (per-cell
	// physics, prepare and observe): 0 sizes it to the machine
	// (GOMAXPROCS), 1 runs every phase inline. The pool never runs more
	// workers than there are cells, so a one-cell layout runs inline for
	// any Workers. A pure performance setting: results are bit-identical
	// regardless of the pool size.
	Workers int
	// Cells shards the fleet into contiguous cells of the deterministic
	// fleet order. Every tick runs one pipeline over the cells: physics
	// per cell, then each cell prepares and observes its vehicles in
	// fleet order, with the cross-cell work — the lost-link watchdog,
	// counter merging, the apply phase, the mission decision — at serial
	// barriers. 0 sizes the layout automatically (one cell per 64 UAVs,
	// so small fleets get one cell). Like Workers, a pure performance
	// setting: every vehicle captures from its own detector stream, so
	// runs are bit-identical for every cell count.
	Cells int
	// ExtraMonitors registers additional eddi.Runtime monitors per UAV,
	// appended after the built-in chain. Their events are emitted in
	// chain order; Halt and emergency Override advice are honoured.
	ExtraMonitors []func(uav string) (eddi.Runtime, error)
	// LostLinkWindowS is the telemetry-silence window (seconds) after
	// which the lost-link watchdog fires the RTB/land contingency for an
	// in-mission UAV and demotes its comms evidence. Zero disables the
	// watchdog.
	LostLinkWindowS float64
	// LostLinkLand lands the vehicle in place on lost link instead of
	// returning it to base (the conservative contingency when the home
	// corridor cannot be trusted without C2).
	LostLinkLand bool
	// DBRetryAttempts bounds how many times a transiently failed
	// database write (ErrUnavailable) is retried before it is abandoned
	// and counted as a drop. Values <= 1 disable retrying.
	DBRetryAttempts int
	// DBRetryBackoffS is the first retry backoff in sim seconds; each
	// further attempt doubles it.
	DBRetryBackoffS float64
	// BreakerFailures is the per-UAV monitor circuit breaker: after
	// this many consecutive monitor-chain failures (panics or errors)
	// the chain is quarantined — skipped entirely, the vehicle held
	// fail-safe — and re-probed after BreakerCooldownS. Values <= 0
	// disable quarantine (every failure is still contained and counted,
	// the chain just re-runs each tick).
	BreakerFailures int
	// BreakerCooldownS is the quarantine re-probe interval in sim
	// seconds. A failed probe silently re-arms the cooldown; a clean
	// probe closes the breaker and resumes normal monitoring.
	BreakerCooldownS float64
	// Observability mirrors the platform's data-path counters and hot-
	// path latencies into the given registry (bus, broker, IDS, scheduler
	// phases, per-monitor timings). Nil disables all instrumentation at
	// zero cost; digested outputs are identical either way because only
	// deterministic counters reach Status.
	Observability *obsv.Registry
	// Recorder is the black-box flight recorder (internal/flightrec):
	// when non-nil the platform appends per-tick telemetry, event,
	// advice and fault records during the serial apply phase and writes
	// a full checkpoint every Recorder.SnapshotEvery ticks. Nil disables
	// recording at zero cost.
	Recorder *flightrec.Recorder
	// Scenario attaches the declarative mission description the
	// platform runs (internal/scenario): its visibility profile
	// overrides Visibility/UseThermalBelow at construction, and its
	// digest joins ConfigDigest so a recording can never resume against
	// a different mission description. Nil keeps the classic hand-wired
	// missions byte-identical.
	Scenario *scenario.Scenario
}

// DefaultConfig returns the experiment calibration with SESAME on.
func DefaultConfig() Config {
	return Config{
		SESAME:           true,
		SurveyAltitudeM:  60,
		DescendAltitudeM: 25,
		SweepSpacingM:    30,
		Visibility:       1,
		UseThermalBelow:  0.5,
		Origin:           "10.0.0.1",
		LostLinkWindowS:  15,
		DBRetryAttempts:  3,
		DBRetryBackoffS:  2,
		BreakerFailures:  3,
		BreakerCooldownS: 30,
	}
}

// AutoCells is the Cells=0 sizing policy: one cell per 64 UAVs. Small
// fleets resolve to a single cell, which runs inline; a 10k-vehicle
// fleet spreads across ~160 cells, enough to keep every worker busy
// without barrier overhead dominating.
func AutoCells(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + 63) / 64
}

// cell is one contiguous shard [lo, hi) of the sorted fleet order.
type cell struct {
	lo, hi int
}

// uavState is the per-vehicle integration state.
type uavState struct {
	uav        *uavsim.UAV
	monitor    *safedrones.Monitor
	perception *safeml.Monitor
	action     conserts.UAVAction
	// chain is the UAV's ordered eddi.Runtime monitor registry,
	// evaluated by the fleet scheduler every tick.
	chain []eddi.Runtime
	// perceptionMon receives the staged camera frame each tick.
	perceptionMon *perceptionMonitor
	// recorder mirrors per-monitor timings when observability is on
	// (nil otherwise; observeUAV branches on it).
	recorder *chainRecorder
	// lastAssessment caches the newest SafeDrones output.
	lastAssessment safedrones.Assessment
	// uncertainty is the latest fused perception uncertainty.
	uncertainty float64
	hasUncert   bool
	// inMission marks vehicles still executing their task.
	inMission bool
	// collocCtrl is non-nil while collaborative localization is
	// steering this (attacked) vehicle down.
	collocCtrl *colloc.Controller
	descended  bool
	rescans    int
	// mapManipKey / c2HijackKey are the "<id>/<attack>" security query
	// keys, concatenated once instead of every tick.
	mapManipKey string
	c2HijackKey string
	// Baseline battery-swap state (§V-A without-SESAME behaviour):
	// abort to base, swap the pack (60 s), resume the stored path.
	swapPending  bool
	swapLandedAt float64
	resumePath   []geo.LatLng
	// lastTelemetryAt is the stamp of the newest telemetry message the
	// GCS received from this UAV over the bus (the last-known-good
	// cache age base). Written by bus handlers during the serial world
	// step, read in the serial prepare/apply phases.
	lastTelemetryAt float64
	// lostLink latches while the lost-link watchdog considers the link
	// silent; it clears when telemetry resumes.
	lostLink bool
	// monitorPanicked latches after the first monitor-chain failure of
	// a streak so the fail-safe incident event is emitted once; a clean
	// chain run resets it.
	monitorPanicked bool
	// breakerFails counts consecutive monitor-chain failures; quarantined
	// and probeAt are the circuit breaker's open state (chain skipped
	// until the probe at probeAt). Written only in the serial apply
	// phase, read by the concurrent observe phase of later ticks.
	breakerFails int
	quarantined  bool
	probeAt      float64
	// dbRetries is this UAV's pending database retry queue. Only the
	// observe-phase worker that owns the UAV touches it, so no lock.
	dbRetries []dbRetry
	// detRNG is the stream this UAV's captures draw from, its own
	// "platform/detector/shard<i>" stream keyed by fleet index i. Nil
	// without a detector and scene.
	detRNG *rand.Rand
}

// dbRetryKind selects which database write a queued retry re-offers.
type dbRetryKind int

const (
	// dbRetryLocation re-offers a PutLocation of Pos stamped Time.
	dbRetryLocation dbRetryKind = iota
	// dbRetryRecord re-offers a PutRecord of Rec.
	dbRetryRecord
)

// dbRetry is one deferred database write awaiting its backoff. It is
// plain data (not a closure) so the flight recorder can checkpoint and
// restore pending retries exactly.
type dbRetry struct {
	Kind     dbRetryKind `json:"kind"`
	Pos      geo.LatLng  `json:"pos"`
	Time     float64     `json:"time"`
	Rec      Record      `json:"rec"`
	Attempts int         `json:"attempts"`
	NextAt   float64     `json:"next_at"`
}

// exec re-offers the queued write against the database.
func (p *Platform) execRetry(st *uavState, r dbRetry) error {
	switch r.Kind {
	case dbRetryLocation:
		return p.DB.PutLocation(p.cfg.Origin, st.uav.ID(), r.Pos, r.Time)
	default:
		return p.DB.PutRecord(p.cfg.Origin, st.uav.ID(), r.Rec)
	}
}

// batterySwapS is the §V-A battery replacement time at base.
const batterySwapS = 60

// Platform is the integrated multi-UAV control platform.
type Platform struct {
	World       *uavsim.World
	Broker      *mqttlite.Broker
	IDS         *ids.IDS
	Security    *security.EDDI
	Coordinator *eddi.Coordinator
	DB          *Database

	cfg  Config
	comp *conserts.Composition
	// eval and evidence are the reusable ConSert evaluation scratch.
	// fuse runs only in the serial apply phase, so sharing one across
	// the fleet is race-free.
	eval     *conserts.Evaluator
	evidence conserts.Evidence
	assessor *sinadra.Assessor
	detector *detection.Detector
	scene    *detection.Scene
	mission  *sar.Mission
	avail    *sar.AvailabilityTracker

	states     map[string]*uavState
	order      []string
	dispatched map[string]int // task path length already uploaded
	// workers is the resolved worker-pool bound.
	workers int
	// next and wg are the worker pool's cursor and barrier (parallel).
	next atomic.Int64
	wg   sync.WaitGroup
	// cells is the resolved shard layout over p.order.
	cells []cell
	// now is the current tick's world time, shared with pool workers.
	now float64
	// obsBuf and actionsBuf are per-tick scratch reused across ticks;
	// obsBuf is indexed by fleet position. The pipeline fully consumes
	// them before the tick returns.
	obsBuf     []observation
	actionsBuf map[string]conserts.UAVAction
	// obs holds the resolved observability handles (nil when disabled).
	obs *platformMetrics
	// drops counts data-path failures that were previously discarded.
	// Every phase counts into it: the stores are atomics and the adds
	// commute, so concurrent cells need no shard-local tallies.
	drops dropCounters
	// retries counts the database retry-with-backoff machinery.
	retries retryCounters
	// subs are the GCS-side telemetry subscriptions feeding the
	// staleness cache; Close cancels them.
	subs []rosbus.Subscription
	// thermal reports whether the perception pipeline runs on the
	// thermal imager for this mission's visibility.
	thermal bool

	missionArea geo.Polygon
	decision    conserts.MissionDecision
	// ticks counts completed platform ticks — the flight recorder's
	// checkpoint coordinate.
	ticks uint64
	// recDegraded latches after a persistent flight-recorder failure:
	// recording demotes to a counting no-op (recSkipped operations
	// skipped so far, recErr the root cause) instead of the sticky
	// writer error poisoning every later tick. Surfaced in
	// Status.Recorder and, lazily, as obsv counters.
	recDegraded bool
	recErr      error
	recSkipped  uint64
	// snapOwed defers a cadence checkpoint that landed on a tick with
	// delayed frames still parked on the clock.
	snapOwed bool
	// recBuf is the reused encode buffer for the per-tick recording
	// path; the writer copies the payload, so one buffer serves all
	// record kinds. recKeys is the reused key-sort scratch for event
	// Data maps. recTimeVal/recTimeBuf memoize the encoded simulation
	// time — every record of a tick shares one clock reading, and
	// accumulated step times hit strconv's worst (17-digit) case.
	recBuf     []byte
	recKeys    []string
	recTimeVal float64
	recTimeBuf []byte
}

// Ticks returns how many platform ticks have completed.
func (p *Platform) Ticks() uint64 { return p.ticks }

// New builds a platform over an existing world and fleet. The scene
// may be nil when no person-detection workload is simulated.
func New(world *uavsim.World, scene *detection.Scene, cfg Config) (*Platform, error) {
	if world == nil {
		return nil, errors.New("platform: nil world")
	}
	uavs := world.UAVs()
	if len(uavs) == 0 {
		return nil, errors.New("platform: world has no UAVs")
	}
	if cfg.SurveyAltitudeM <= 0 || cfg.DescendAltitudeM <= 0 {
		return nil, errors.New("platform: altitudes must be positive")
	}
	if cfg.Origin == "" {
		cfg.Origin = "127.0.0.1"
	}
	if cfg.Scenario != nil {
		if v := cfg.Scenario.Visibility; v != nil {
			cfg.Visibility = v.Value
			cfg.UseThermalBelow = v.ThermalBelow
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Platform{
		World:       world,
		Broker:      mqttlite.NewBroker(),
		Coordinator: eddi.NewCoordinator(10000),
		DB:          NewDatabase(100000),
		cfg:         cfg,
		scene:       scene,
		states:      make(map[string]*uavState, len(uavs)),
		dispatched:  make(map[string]int, len(uavs)),
		workers:     workers,
	}
	if cfg.Observability != nil {
		p.obs = newPlatformMetrics(cfg.Observability)
		world.Bus.Instrument(cfg.Observability)
		p.Broker.Instrument(cfg.Observability)
	}
	var err error
	if cfg.SESAME {
		p.IDS, err = ids.New(world.Bus, p.Broker, ids.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if cfg.Observability != nil {
			p.IDS.Instrument(cfg.Observability)
		}
		p.Security, err = security.New(p.Broker)
		if err != nil {
			return nil, err
		}
		p.comp, err = conserts.BuildUAVComposition()
		if err != nil {
			return nil, err
		}
		p.eval = conserts.NewEvaluator(p.comp)
		p.evidence = make(conserts.Evidence, 16)
		p.assessor, err = sinadra.NewAssessor(sinadra.DefaultConfig())
		if err != nil {
			return nil, err
		}
		p.detector, err = detection.NewDetector(world.Clock.Stream("platform/detector"))
		if err != nil {
			return nil, err
		}
		p.thermal = cfg.UseThermalBelow > 0 && cfg.Visibility < cfg.UseThermalBelow
	}
	for _, u := range uavs {
		st := &uavState{
			uav: u, action: conserts.ActionContinue,
			mapManipKey: u.ID() + "/map-manipulation",
			c2HijackKey: u.ID() + "/c2-hijack",
		}
		mcfg := safedrones.DefaultConfig()
		if !cfg.SESAME {
			mcfg.Policy = safedrones.PolicyReactive
		}
		st.monitor, err = safedrones.NewMonitor(u.ID(), mcfg)
		if err != nil {
			return nil, err
		}
		if cfg.SESAME {
			// The perception model is referenced on the modality the
			// mission will fly with.
			ref := p.detector.ReferenceFeaturesFor(200, p.thermal)
			st.perception, err = safeml.NewMonitor(ref, safeml.DefaultConfig())
			if err != nil {
				return nil, err
			}
			spoofTree, err := attacktree.SpoofingTree(u.ID())
			if err != nil {
				return nil, err
			}
			if err := p.Security.Monitor(u.ID(), spoofTree); err != nil {
				return nil, err
			}
			hijackTree, err := attacktree.HijackTree(u.ID())
			if err != nil {
				return nil, err
			}
			if err := p.Security.Monitor(u.ID(), hijackTree); err != nil {
				return nil, err
			}
		}
		if err := p.registerMonitors(st); err != nil {
			return nil, err
		}
		if p.obs != nil {
			st.recorder = newChainRecorder(p.obs, u.ID(), st.chain)
		}
		p.states[u.ID()] = st
		p.order = append(p.order, u.ID())
	}
	sort.Strings(p.order)
	nCells := cfg.Cells
	if nCells <= 0 {
		nCells = AutoCells(len(p.order))
	}
	if nCells > len(p.order) {
		nCells = len(p.order)
	}
	p.cells = make([]cell, nCells)
	p.obsBuf = make([]observation, len(p.order))
	for ci := range p.cells {
		c := &p.cells[ci]
		c.lo = ci * len(p.order) / nCells
		c.hi = (ci + 1) * len(p.order) / nCells
	}
	if p.detector != nil && scene != nil {
		// One capture stream per vehicle, keyed by fleet index, so the
		// draw sequence — hence every digest — is invariant to the cell
		// layout and the pool size. Streams are created here, serially,
		// because the clock registry is not goroutine-safe.
		for i, rng := range world.Clock.ShardStreams("platform/detector", len(p.order)) {
			p.states[p.order[i]].detRNG = rng
		}
	}
	if cfg.SESAME {
		// Compromise events trigger the §V-C mitigation chain.
		if err := p.Security.OnEvent(p.onSecurityEvent); err != nil {
			return nil, err
		}
	}
	// GCS-side staleness cache: the platform listens to each UAV's
	// telemetry topics and records the newest stamp seen. This is the
	// ground station's view of the link — it goes stale when the link
	// layer drops or delays frames, independent of vehicle truth.
	for _, u := range uavs {
		st := p.states[u.ID()]
		topics := []string{
			uavsim.StatusTopic(u.ID()),
			uavsim.GPSTopic(u.ID()),
			uavsim.BatteryTopic(u.ID()),
			uavsim.HealthTopic(u.ID()),
		}
		for _, topic := range topics {
			sub, err := world.Bus.Subscribe(topic, func(m rosbus.Message) {
				// Reordered or duplicated frames may arrive out of stamp
				// order; last-known-good keeps the newest.
				if m.Stamp > st.lastTelemetryAt {
					st.lastTelemetryAt = m.Stamp
				}
			})
			if err != nil {
				return nil, err
			}
			p.subs = append(p.subs, sub)
		}
	}
	return p, nil
}

// telemetryAge is the GCS-observed staleness of the UAV's telemetry.
func (st *uavState) telemetryAge(now float64) float64 {
	age := now - st.lastTelemetryAt
	if age < 0 {
		return 0
	}
	return age
}

// tickLinkWatchdog is the lost-link contingency (the MRS-style C2
// timeout): when an in-mission UAV's telemetry has been silent longer
// than the configured window, the platform assumes the link is gone,
// demotes the UAV's availability, redistributes its task and commands
// the vehicle's failsafe (RTB by default, land-in-place when
// configured). The staleness demotion of ConSert comms evidence
// happens separately in fuse.
func (p *Platform) tickLinkWatchdog(st *uavState, now float64) {
	window := p.cfg.LostLinkWindowS
	if window <= 0 {
		return
	}
	if st.telemetryAge(now) <= window {
		st.lostLink = false
		return
	}
	if st.lostLink || st.collocCtrl != nil || !st.inMission {
		return
	}
	u := st.uav
	if !u.Mode().Airborne() {
		return
	}
	st.lostLink = true
	verb := "return to base"
	if p.cfg.LostLinkLand {
		verb = "land in place"
	}
	p.recordFault(now, u.ID(), "lost-link", verb)
	countIn(&p.drops.events, p.Coordinator.Emit(eddi.Event{
		Kind: eddi.KindSafety, UAV: u.ID(), Time: now, Severity: 0.9,
		Summary: fmt.Sprintf("lost link: telemetry silent %.0f s, contingency: %s", st.telemetryAge(now), verb),
	}))
	st.inMission = false
	st.swapPending = false
	countIn(&p.drops.availability, p.avail.MarkDown(u.ID(), now))
	if p.mission != nil {
		if _, assigned := p.mission.Assignments[u.ID()]; assigned {
			countIn(&p.drops.mission, p.mission.Redistribute(u.ID(), u.RemainingPath()))
			p.redispatch()
		}
	}
	if p.cfg.LostLinkLand {
		u.Land()
	} else {
		u.ReturnToBase()
	}
}

// registerMonitors builds the UAV's runtime-monitor chain: the colloc
// gate and the reliability monitor always run; the EDDI stack adds
// perception and risk, the baseline its reactive policy; Config can
// append custom monitors.
func (p *Platform) registerMonitors(st *uavState) error {
	st.chain = []eddi.Runtime{
		&collocMonitor{p: p, st: st},
		&reliabilityMonitor{p: p, st: st},
	}
	if p.cfg.SESAME {
		st.perceptionMon = &perceptionMonitor{p: p, st: st}
		st.chain = append(st.chain, st.perceptionMon, &riskMonitor{p: p, st: st})
	} else {
		st.chain = append(st.chain, &baselineMonitor{st: st})
	}
	for _, build := range p.cfg.ExtraMonitors {
		m, err := build(st.uav.ID())
		if err != nil {
			return fmt.Errorf("platform: extra monitor for %s: %w", st.uav.ID(), err)
		}
		if m == nil {
			return fmt.Errorf("platform: nil extra monitor for %s", st.uav.ID())
		}
		st.chain = append(st.chain, m)
	}
	return nil
}

// Monitors returns the names of the UAV's registered runtime monitors
// in chain order (nil for an unknown UAV).
func (p *Platform) Monitors(id string) []string {
	st := p.states[id]
	if st == nil {
		return nil
	}
	names := make([]string, len(st.chain))
	for i, m := range st.chain {
		names[i] = m.Name()
	}
	return names
}

// planner resolves the Task Manager's coverage algorithm.
func (p *Platform) planner() sar.PathPlanner {
	if p.cfg.CoveragePlanner != nil {
		return p.cfg.CoveragePlanner
	}
	return sar.BoustrophedonPath
}

// StartMission plans the SAR coverage over area, takes the fleet off
// and dispatches each UAV onto its strip.
func (p *Platform) StartMission(area geo.Polygon) error {
	if p.mission != nil {
		return errors.New("platform: mission already started")
	}
	mission, err := sar.PlanMissionWith(area, p.order, p.cfg.SweepSpacingM, p.planner())
	if err != nil {
		return err
	}
	return p.launch(mission, area)
}

// StartMissionSites plans one mission over several disjoint sites: the
// sorted fleet is split into contiguous groups, one per site, each
// group's coverage planned independently, and the merged assignment
// set behaves as one mission thereafter (failure redistribution
// crosses site boundaries). A single area delegates to StartMission —
// the classic path stays byte-identical.
func (p *Platform) StartMissionSites(areas []geo.Polygon) error {
	if len(areas) == 0 {
		return errors.New("platform: no mission areas")
	}
	if len(areas) == 1 {
		return p.StartMission(areas[0])
	}
	if p.mission != nil {
		return errors.New("platform: mission already started")
	}
	if len(p.order) < len(areas) {
		return fmt.Errorf("platform: %d sites need at least as many UAVs, have %d",
			len(areas), len(p.order))
	}
	merged := &sar.Mission{Area: areas[0], Assignments: make(map[string]*sar.Task, len(p.order))}
	k := len(areas)
	for i, area := range areas {
		lo, hi := i*len(p.order)/k, (i+1)*len(p.order)/k
		m, err := sar.PlanMissionWith(area, p.order[lo:hi], p.cfg.SweepSpacingM, p.planner())
		if err != nil {
			return fmt.Errorf("platform: site %d: %w", i, err)
		}
		// Renumber tasks in fleet order so the merged plan — and every
		// checkpoint embedding it — is independent of map iteration.
		for _, id := range p.order[lo:hi] {
			t := m.Assignments[id]
			t.ID = len(merged.Assignments)
			merged.Assignments[id] = t
		}
	}
	return p.launch(merged, areas[0])
}

// launch takes the fleet off, climbs out and dispatches the planned
// mission — the shared tail of StartMission and StartMissionSites.
func (p *Platform) launch(mission *sar.Mission, area geo.Polygon) error {
	avail, err := sar.NewAvailabilityTracker(p.World.Clock.Now(), p.order)
	if err != nil {
		return err
	}
	for _, id := range p.order {
		st := p.states[id]
		if err := st.uav.TakeOff(p.cfg.SurveyAltitudeM); err != nil {
			return fmt.Errorf("platform: takeoff %s: %w", id, err)
		}
		st.inMission = true
	}
	// Climb out, then dispatch.
	climb := p.cfg.SurveyAltitudeM/3 + 2
	if err := p.World.Run(p.World.Clock.Now()+climb, 1); err != nil {
		return err
	}
	for _, id := range p.order {
		task := mission.Assignments[id]
		if err := p.states[id].uav.FlyMission(task.Path, p.cfg.SurveyAltitudeM); err != nil {
			return fmt.Errorf("platform: dispatch %s: %w", id, err)
		}
		p.dispatched[id] = len(task.Path)
	}
	p.mission = mission
	p.avail = avail
	p.missionArea = area
	p.decision = conserts.MissionAsPlanned
	return nil
}

// Mission returns the current mission plan (nil before StartMission).
func (p *Platform) Mission() *sar.Mission { return p.mission }

// onSecurityEvent is the §V-C mitigation: when an attack tree root is
// reached, ConSerts pulls the GPS guarantee (via evidence) and the
// platform triggers Collaborative Localization to land the victim.
func (p *Platform) onSecurityEvent(ev security.Event) {
	if !ev.RootReached {
		countIn(&p.drops.events, p.Coordinator.Emit(eddi.Event{
			Kind: eddi.KindSecurity, UAV: ev.UAV, Time: ev.Alert.Stamp,
			Severity: 0.5, Summary: "attack progress: " + ev.Alert.Type,
		}))
		return
	}
	countIn(&p.drops.events, p.Coordinator.Emit(eddi.Event{
		Kind: eddi.KindSecurity, UAV: ev.UAV, Time: ev.Alert.Stamp,
		Severity: 1, Summary: "compromise: " + ev.Root,
		Data: map[string]string{"mitigation": ev.Mitigation},
	}))
	p.recordFault(ev.Alert.Stamp, ev.UAV, "compromise", ev.Root)
	// Collaborative localization is the mitigation for position/mapping
	// manipulation; other compromises (C2 hijack) degrade the comms
	// evidence and let the ConSert network decide.
	if !strings.HasSuffix(ev.Root, "/map-manipulation") {
		return
	}
	st := p.states[ev.UAV]
	if st == nil || st.collocCtrl != nil {
		return
	}
	// Mitigation: stop trusting GPS entirely and land collaboratively.
	st.uav.GPS.Mode = uavsim.GPSModeDropout
	st.inMission = false

	target := p.cfg.SafeLandingPoint
	if !target.Valid() || (target == geo.LatLng{}) {
		if c, err := p.missionArea.Centroid(); err == nil {
			target = c
		} else {
			target = st.uav.Home()
		}
	}
	var observers []*colloc.Observer
	for _, id := range p.order {
		if id == ev.UAV {
			continue
		}
		other := p.states[id].uav
		if !other.Mode().Airborne() || !other.Camera.OK {
			continue
		}
		o, err := colloc.NewObserver(other, p.World.Clock.Stream("colloc/"+id))
		if err == nil {
			observers = append(observers, o)
		}
	}
	if len(observers) == 0 {
		// Nobody can assist: emergency land blind.
		st.uav.EmergencyLand()
		return
	}
	ctrl, err := colloc.NewController(st.uav, target, observers, p.World)
	if err != nil {
		st.uav.EmergencyLand()
		return
	}
	st.collocCtrl = ctrl
	// Redistribute the victim's unfinished work.
	if p.mission != nil {
		if _, assigned := p.mission.Assignments[ev.UAV]; assigned {
			countIn(&p.drops.mission, p.mission.Redistribute(ev.UAV, st.uav.RemainingPath()))
			p.redispatch()
		}
	}
	// A compromise can surface during the climb-out (the security bus is
	// live before the mission dispatches), when no tracker exists yet.
	if p.avail != nil {
		countIn(&p.drops.availability, p.avail.MarkDown(ev.UAV, p.World.Clock.Now()))
	}
}

// redispatch pushes waypoints newly appended by Redistribute to the
// UAVs still in mission. dispatched tracks how much of each task's
// path has already been uploaded.
func (p *Platform) redispatch() {
	for _, id := range p.order {
		st := p.states[id]
		if !st.inMission || st.uav.Mode() != uavsim.ModeMission {
			continue
		}
		task := p.mission.Assignments[id]
		if task == nil {
			continue
		}
		already := p.dispatched[id]
		if len(task.Path) <= already {
			continue
		}
		newWps := task.Path[already:]
		merged := append(st.uav.RemainingPath(), newWps...)
		if countIn(&p.drops.commands, st.uav.FlyMission(merged, p.cfg.SurveyAltitudeM)) {
			p.dispatched[id] = len(task.Path)
		}
	}
}

// MissionComplete reports whether every UAV has finished (landed or
// holding with no pending swap or collaborative landing) — the same
// predicate RunMission uses, exposed for external tick loops.
func (p *Platform) MissionComplete() bool { return p.missionComplete() }

func (p *Platform) missionComplete() bool {
	for _, id := range p.order {
		st := p.states[id]
		m := st.uav.Mode()
		if m == uavsim.ModeMission || m == uavsim.ModeReturnToBase ||
			m == uavsim.ModeLanding || m == uavsim.ModeEmergencyLanding {
			return false
		}
		if st.collocCtrl != nil && !st.collocCtrl.LandingCommanded() {
			return false
		}
		if st.swapPending {
			return false
		}
	}
	return true
}

// airborneNeighbors counts other airborne fleet members. It reads the
// world's incrementally maintained airborne counter, which tracks every
// mode transition instantly — exactly the mid-apply view the old
// per-fleet scan had, at O(1) instead of O(fleet).
func (p *Platform) airborneNeighbors(id string) int {
	n := p.World.AirborneCount()
	if p.states[id].uav.Mode().Airborne() {
		n--
	}
	return n
}

// applyBaseline is the non-SESAME reactive policy of §V-A: on the
// first battery anomaly the UAV ceases its mission and returns to base
// for a battery replacement (batterySwapS seconds), then redeploys to
// finish its own task. No task redistribution happens — there is no
// mission-level EDDI coordination in the baseline.
func (p *Platform) applyBaseline(st *uavState, advices []eddi.Advice, now float64) {
	for _, advice := range advices {
		switch advice.Kind {
		case eddi.AdviceReturnToBase:
			if st.uav.Mode() == uavsim.ModeMission && !st.swapPending {
				st.resumePath = st.uav.RemainingPath()
				st.swapPending = true
				st.swapLandedAt = -1
				st.inMission = false
				countIn(&p.drops.availability, p.avail.MarkDown(st.uav.ID(), now))
				st.uav.ReturnToBase()
			}
		case eddi.AdviceEmergencyLand:
			if st.uav.Mode().Airborne() && st.uav.Mode() != uavsim.ModeEmergencyLanding {
				st.inMission = false
				st.swapPending = false
				countIn(&p.drops.availability, p.avail.MarkDown(st.uav.ID(), now))
				st.uav.EmergencyLand()
			}
		}
	}
	p.tickBatterySwap(st, now)
}

// tickBatterySwap completes a pending baseline battery replacement:
// once the vehicle has been on the ground at base for batterySwapS
// seconds, a fresh pack goes in (clearing any thermal fault with the
// old one), the reliability model restarts, and the UAV redeploys onto
// its stored remaining path.
func (p *Platform) tickBatterySwap(st *uavState, now float64) {
	if !st.swapPending || st.uav.Mode() != uavsim.ModeLanded {
		return
	}
	if st.swapLandedAt < 0 {
		st.swapLandedAt = now
		return
	}
	if now < st.swapLandedAt+batterySwapS {
		return
	}
	st.uav.Battery.Swap()
	// Fresh pack, fresh reliability history.
	mcfg := safedrones.DefaultConfig()
	mcfg.Policy = safedrones.PolicyReactive
	if m, err := safedrones.NewMonitor(st.uav.ID(), mcfg); err == nil {
		st.monitor = m
	}
	st.swapPending = false
	if len(st.resumePath) > 0 {
		if countIn(&p.drops.commands, st.uav.TakeOff(p.cfg.SurveyAltitudeM)) {
			if countIn(&p.drops.commands, st.uav.FlyMission(st.resumePath, p.cfg.SurveyAltitudeM)) {
				st.inMission = true
				st.resumePath = nil
				countIn(&p.drops.availability, p.avail.MarkUp(st.uav.ID(), now))
				return
			}
		}
	}
	countIn(&p.drops.availability, p.avail.MarkUp(st.uav.ID(), now))
}

// applyAction executes a ConSert action change.
func (p *Platform) applyAction(st *uavState, action conserts.UAVAction, now float64) {
	prev := st.action
	st.action = action
	if action == prev {
		return
	}
	p.recordAdvice(now, st.uav.ID(), action.String())
	switch action {
	case conserts.ActionEmergencyLand:
		if st.uav.Mode().Airborne() {
			p.retireUAV(st, now, true)
		}
	case conserts.ActionReturnToBase:
		if st.uav.Mode() == uavsim.ModeMission {
			p.retireUAV(st, now, false)
		}
	case conserts.ActionHold:
		if st.uav.Mode() == uavsim.ModeMission {
			st.uav.Hold()
		}
	}
	// Continue/takeover: no intervention needed.
}

// retireUAV removes the vehicle from the mission (redistributing its
// work) and lands it.
func (p *Platform) retireUAV(st *uavState, now float64, emergency bool) {
	id := st.uav.ID()
	remaining := st.uav.RemainingPath()
	if p.mission != nil {
		if _, assigned := p.mission.Assignments[id]; assigned && len(p.mission.Assignments) > 1 {
			countIn(&p.drops.mission, p.mission.Redistribute(id, remaining))
			p.redispatch()
		}
	}
	st.inMission = false
	countIn(&p.drops.availability, p.avail.MarkDown(id, now))
	if emergency {
		st.uav.EmergencyLand()
	} else {
		st.uav.ReturnToBase()
	}
}

// updateDecision recomputes the mission-level ConSert decision.
func (p *Platform) updateDecision() {
	if p.mission == nil {
		return
	}
	actions := p.actionsBuf
	if actions == nil {
		actions = make(map[string]conserts.UAVAction, len(p.order))
		p.actionsBuf = actions
	}
	clear(actions)
	for _, id := range p.order {
		st := p.states[id]
		a := st.action
		if !p.cfg.SESAME {
			// Baseline: derive from flight mode.
			switch st.uav.Mode() {
			case uavsim.ModeMission, uavsim.ModeHold:
				a = conserts.ActionContinue
			case uavsim.ModeReturnToBase, uavsim.ModeLanding:
				a = conserts.ActionReturnToBase
			default:
				a = conserts.ActionEmergencyLand
			}
		}
		actions[id] = a
	}
	d, err := conserts.DecideMission(actions)
	if countIn(&p.drops.mission, err) {
		p.decision = d
	}
}

// Decision returns the current mission-level decider output.
func (p *Platform) Decision() conserts.MissionDecision { return p.decision }

// Availability returns the fleet availability since mission start.
func (p *Platform) Availability() (float64, error) {
	if p.avail == nil {
		return 0, errors.New("platform: no mission running")
	}
	return p.avail.FleetAvailability(p.World.Clock.Now())
}

// UAVAvailability returns one vehicle's availability since mission
// start.
func (p *Platform) UAVAvailability(id string) (float64, error) {
	if p.avail == nil {
		return 0, errors.New("platform: no mission running")
	}
	return p.avail.Availability(id, p.World.Clock.Now())
}

// Close releases bus taps and broker subscriptions.
func (p *Platform) Close() {
	if p.IDS != nil {
		p.IDS.Close()
	}
	if p.Security != nil {
		p.Security.Close()
	}
	for _, sub := range p.subs {
		p.World.Bus.Unsubscribe(sub)
	}
	p.subs = nil
}
