package sesame

import (
	"net/http"

	"sesame/internal/assurance"
	"sesame/internal/attacktree"
	"sesame/internal/chaos"
	"sesame/internal/colloc"
	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/geo"
	"sesame/internal/hiphops"
	"sesame/internal/ids"
	"sesame/internal/linksim"
	"sesame/internal/missionhost"
	"sesame/internal/mqttlite"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/safeml"
	"sesame/internal/sar"
	"sesame/internal/scenario"
	"sesame/internal/security"
	"sesame/internal/sinadra"
	"sesame/internal/statdist"
)

// ---- SafeML (internal/safeml, internal/statdist) ----

// PerceptionMonitor is the SafeML sliding-window distribution monitor.
type PerceptionMonitor = safeml.Monitor

// PerceptionConfig parameterizes a PerceptionMonitor.
type PerceptionConfig = safeml.Config

// PerceptionReport is one window evaluation.
type PerceptionReport = safeml.Report

// DistanceMeasure is a two-sample statistical distance.
type DistanceMeasure = statdist.Measure

// DefaultPerceptionConfig returns the §V-B calibration.
func DefaultPerceptionConfig() PerceptionConfig { return safeml.DefaultConfig() }

// NewPerceptionMonitor builds a SafeML monitor around a training
// reference feature matrix.
func NewPerceptionMonitor(reference [][]float64, cfg PerceptionConfig) (*PerceptionMonitor, error) {
	return safeml.NewMonitor(reference, cfg)
}

// DistanceMeasures returns every implemented statistical distance.
func DistanceMeasures() []DistanceMeasure { return statdist.All() }

// DistanceMeasureByName looks a measure up by canonical name.
func DistanceMeasureByName(name string) (DistanceMeasure, error) { return statdist.ByName(name) }

// ---- SINADRA (internal/sinadra) ----

// RiskAssessor is the SINADRA Bayesian dynamic risk assessor.
type RiskAssessor = sinadra.Assessor

// RiskSituation is the runtime evidence snapshot.
type RiskSituation = sinadra.Situation

// RiskAssessment is one evaluation.
type RiskAssessment = sinadra.Assessment

// RiskAdvice is SINADRA's adaptation proposal.
type RiskAdvice = sinadra.Advice

// Risk advice values.
const (
	RiskProceed = sinadra.AdviceProceed
	RiskDescend = sinadra.AdviceDescend
	RiskRescan  = sinadra.AdviceRescan
)

// NewRiskAssessor builds the SAR risk network with the default
// calibration.
func NewRiskAssessor() (*RiskAssessor, error) { return sinadra.NewAssessor(sinadra.DefaultConfig()) }

// ---- Security (internal/ids, internal/attacktree, internal/security) ----

// AlertBroker is the MQTT-style broker carrying IDS alerts.
type AlertBroker = mqttlite.Broker

// NewAlertBroker returns an empty broker.
func NewAlertBroker() *AlertBroker { return mqttlite.NewBroker() }

// IntrusionDetector is the bus-tapping IDS.
type IntrusionDetector = ids.IDS

// IDSConfig tunes the IDS rule engine.
type IDSConfig = ids.Config

// IDSAlert is one IDS finding.
type IDSAlert = ids.Alert

// DefaultIDSConfig returns the experiment calibration.
func DefaultIDSConfig() IDSConfig { return ids.DefaultConfig() }

// NewIntrusionDetector attaches an IDS to a world's bus, publishing to
// broker.
func NewIntrusionDetector(w *World, broker *AlertBroker, cfg IDSConfig) (*IntrusionDetector, error) {
	return ids.New(w.Bus, broker, cfg)
}

// AttackTree is a validated Security EDDI attack tree.
type AttackTree = attacktree.Tree

// SpoofingAttackTree builds the §V-C ROS/GNSS spoofing tree for a UAV.
func SpoofingAttackTree(uav string) (*AttackTree, error) { return attacktree.SpoofingTree(uav) }

// SecurityEDDI is the attack-tree runtime monitor.
type SecurityEDDI = security.EDDI

// SecurityEvent is a detected compromise or progress report.
type SecurityEvent = security.Event

// NewSecurityEDDI binds a Security EDDI to the alert broker.
func NewSecurityEDDI(broker *AlertBroker) (*SecurityEDDI, error) { return security.New(broker) }

// ---- Collaborative Localization (internal/colloc) ----

// Observer is one assisting UAV's detection/depth stack.
type Observer = colloc.Observer

// Localizer fuses observations over time.
type Localizer = colloc.Localizer

// AssistedLanding runs the Fig. 7 GPS-denied landing loop.
type AssistedLanding = colloc.Controller

// NewObserver wires an observer on an assisting UAV using the world's
// named random stream for camera noise.
func NewObserver(assistant *UAV, w *World, stream string) (*Observer, error) {
	return colloc.NewObserver(assistant, w.Clock.Stream(stream))
}

// NewAssistedLanding steers the affected UAV to target using only the
// observers' fused estimates.
func NewAssistedLanding(affected *UAV, target LatLng, observers []*Observer, w *World) (*AssistedLanding, error) {
	return colloc.NewController(affected, target, observers, w)
}

// ---- Detection substrate (internal/detection) ----

// Detector is the altitude/visibility-calibrated person detector.
type Detector = detection.Detector

// Scene is the ground-truth person layout.
type Scene = detection.Scene

// DetectionConditions describe one capture.
type DetectionConditions = detection.Conditions

// DetectionFrame is one processed capture.
type DetectionFrame = detection.Frame

// NewDetector builds the calibrated detector using the world's named
// random stream.
func NewDetector(w *World, stream string) (*Detector, error) {
	return detection.NewDetector(w.Clock.Stream(stream))
}

// NewRandomScene scatters persons over the area.
func NewRandomScene(area Polygon, n int, pCritical float64, w *World, stream string) (*Scene, error) {
	return detection.NewRandomScene(area, n, pCritical, w.Clock.Stream(stream))
}

// ---- SAR algorithms (internal/sar) ----

// SARMission is a planned multi-UAV coverage mission.
type SARMission = sar.Mission

// PathPlanner is a coverage algorithm hosted by the Task Manager.
type PathPlanner = sar.PathPlanner

// PlanSARMission partitions the area and plans boustrophedon sweeps.
func PlanSARMission(area Polygon, uavs []string, spacingM float64) (*SARMission, error) {
	return sar.PlanMission(area, uavs, spacingM)
}

// PlanSARMissionWith selects the coverage planner per strip.
func PlanSARMissionWith(area Polygon, uavs []string, spacingM float64, planner PathPlanner) (*SARMission, error) {
	return sar.PlanMissionWith(area, uavs, spacingM, planner)
}

// BoustrophedonPath plans a serpentine sweep over one area.
func BoustrophedonPath(area Polygon, spacingM float64) ([]LatLng, error) {
	return sar.BoustrophedonPath(area, spacingM)
}

// SpiralPath plans a perimeter-inward rectangular spiral.
func SpiralPath(area Polygon, spacingM float64) ([]LatLng, error) {
	return sar.SpiralPath(area, spacingM)
}

// ExpandingSquarePath plans the SAR expanding-square search outward
// from the area centre (the target's last known position).
func ExpandingSquarePath(area Polygon, spacingM float64) ([]LatLng, error) {
	return sar.ExpandingSquarePath(area, spacingM)
}

// CoverageFraction scores how much of the area a path covers.
func CoverageFraction(area Polygon, path []geo.LatLng, radiusM, cellM float64) (float64, error) {
	return sar.CoverageFraction(area, path, radiusM, cellM)
}

// ---- Design-time analysis (internal/hiphops, internal/assurance) ----

// FailureSystem is a component architecture annotated with local
// failure data, from which fault trees are synthesized.
type FailureSystem = hiphops.System

// FailureComponent is one annotated architecture block.
type FailureComponent = hiphops.Component

// NewFailureSystem returns an empty architecture model.
func NewFailureSystem() *FailureSystem { return hiphops.NewSystem() }

// UAVNavigationSystem returns the worked UAV "loss of navigation"
// architecture with a power common cause.
func UAVNavigationSystem() (*FailureSystem, error) { return hiphops.UAVNavigationSystem() }

// AssuranceCase is a validated GSN argument.
type AssuranceCase = assurance.Case

// UAVAssuranceCase builds the SESAME SAR dependability argument for
// one UAV, wired to the executable models and reproduced experiments.
func UAVAssuranceCase(uav string) (*AssuranceCase, error) { return assurance.UAVCase(uav) }

// ---- EDDI runtime (internal/eddi) ----

// RuntimeMonitor is the common interface every EDDI technology
// implements to join a UAV's monitor chain: SafeDrones, SafeML,
// SINADRA, the baseline policy and the collaborative-localization gate
// all observe the same frozen telemetry snapshot and return events plus
// flight advice. Custom monitors plug in via
// PlatformConfig.ExtraMonitors.
type RuntimeMonitor = eddi.Runtime

// MonitorSnapshot is the per-UAV telemetry snapshot frozen at the start
// of each platform tick and handed to every monitor in the chain.
type MonitorSnapshot = eddi.Snapshot

// MonitorDerived is the chain blackboard: values earlier monitors
// derive for later ones (PoF, perception uncertainty, risk).
type MonitorDerived = eddi.Derived

// MonitorAdvice is one monitor's proposed intervention.
type MonitorAdvice = eddi.Advice

// MonitorAdviceKind enumerates the interventions a monitor may propose.
type MonitorAdviceKind = eddi.AdviceKind

// Monitor advice kinds.
const (
	AdviceNone          = eddi.AdviceNone
	AdviceDescend       = eddi.AdviceDescend
	AdviceRescan        = eddi.AdviceRescan
	AdviceHold          = eddi.AdviceHold
	AdviceReturnToBase  = eddi.AdviceReturnToBase
	AdviceEmergencyLand = eddi.AdviceEmergencyLand
	AdviceCollabLand    = eddi.AdviceCollabLand
)

// EDDIEvent is one runtime-monitor finding.
type EDDIEvent = eddi.Event

// EDDIKind classifies an event's originating discipline.
type EDDIKind = eddi.Kind

// Event kinds.
const (
	EDDISafety     = eddi.KindSafety
	EDDISecurity   = eddi.KindSecurity
	EDDIPerception = eddi.KindPerception
	EDDIRisk       = eddi.KindRisk
)

// EDDICoordinator is the fleet-wide event log.
type EDDICoordinator = eddi.Coordinator

// ChainResult aggregates one chain evaluation's events and advice.
type ChainResult = eddi.ChainResult

// RunMonitorChain evaluates monitors in order over one snapshot,
// stopping at the first Halt advice.
func RunMonitorChain(monitors []RuntimeMonitor, s MonitorSnapshot) (ChainResult, error) {
	return eddi.RunChain(monitors, s)
}

// ---- Integrated platform (internal/platform) ----

// Platform is the integrated multi-UAV control platform of §IV-A.
type Platform = platform.Platform

// PlatformConfig parameterizes a Platform.
type PlatformConfig = platform.Config

// PlatformStatus is the Fig. 4 fleet snapshot.
type PlatformStatus = platform.Status

// PlatformDrops counts failed data-path operations the platform
// previously discarded silently (exposed in PlatformStatus).
type PlatformDrops = platform.DropCounters

// DefaultPlatformConfig returns the experiment calibration (SESAME on).
func DefaultPlatformConfig() PlatformConfig { return platform.DefaultConfig() }

// AutoCells returns the cell count PlatformConfig.Cells = 0 resolves to
// for an n-UAV fleet: one cell per 64 vehicles.
func AutoCells(n int) int { return platform.AutoCells(n) }

// NewPlatform builds a platform over an existing world and optional
// detection scene.
func NewPlatform(w *World, scene *Scene, cfg PlatformConfig) (*Platform, error) {
	return platform.New(w, scene, cfg)
}

// PlatformHandler serves the platform status over HTTP (the web GUI
// data feed).
func PlatformHandler(p *Platform) http.Handler { return p.Handler() }

// PlatformRetries counts the bounded database retry-with-backoff
// outcomes (exposed in PlatformStatus).
type PlatformRetries = platform.RetryCounters

// ErrDatabaseUnavailable marks a transient mission-database failure;
// the platform retries such writes with backoff instead of dropping
// them.
var ErrDatabaseUnavailable = platform.ErrUnavailable

// ---- Degraded-comms fault layer (internal/linksim) ----

// LinkLayer injects deterministic, seeded link faults (loss, delay,
// duplication, reordering, outage windows) between the UAVs and the
// ground station.
type LinkLayer = linksim.Layer

// Link is one UAV's impaired channel within a LinkLayer.
type Link = linksim.Link

// LinkProfile sets a link's stochastic impairments.
type LinkProfile = linksim.Profile

// LinkStats is a link's frame accounting snapshot.
type LinkStats = linksim.LinkStats

// ErrLinkDown is returned to publishers while a rejecting outage is
// active on their link.
var ErrLinkDown = linksim.ErrLinkDown

// NewLinkLayer creates a fault layer driven by the world's clock and
// attaches it to the world's ROS bus, so each UAV's telemetry crosses
// its configured link. Use AttachBroker to also impair the alert path.
func NewLinkLayer(w *World, name string) *LinkLayer {
	l := linksim.New(w.Clock, name)
	l.AttachBus(w.Bus)
	return l
}

// ---- Black-box flight recorder (internal/flightrec) ----

// FlightRecorder is the black-box mission recorder: an append-only,
// CRC-protected binary segment log of per-tick telemetry, EDDI events,
// fault injections and periodic full-platform checkpoints. Attach one
// with Platform.SetRecorder; a crashed mission then resumes from its
// newest checkpoint bit-identically to the uninterrupted run.
type FlightRecorder = flightrec.Recorder

// FlightRecorderOptions tunes segment rotation and sync behaviour.
type FlightRecorderOptions = flightrec.Options

// FlightRecordingHeader is the self-describing first record of every
// segment: format version, seed, config digest, snapshot cadence.
type FlightRecordingHeader = flightrec.Header

// FlightRecord is one decoded log record.
type FlightRecord = flightrec.Record

// FlightSnapshot is one full-platform checkpoint held in a recording.
type FlightSnapshot = flightrec.Snapshot

// FlightRecordingReader iterates a recording's records in order.
type FlightRecordingReader = flightrec.Reader

// Flight record types.
const (
	FlightRecordHeader   = flightrec.TypeHeader
	FlightRecordTick     = flightrec.TypeTick
	FlightRecordEvent    = flightrec.TypeEvent
	FlightRecordAdvice   = flightrec.TypeAdvice
	FlightRecordFault    = flightrec.TypeFault
	FlightRecordSnapshot = flightrec.TypeSnapshot
	FlightRecordBus      = flightrec.TypeBus
)

// PlatformCheckpoint is the full platform state a recording's snapshot
// records hold (as JSON); Platform.Checkpoint produces one and
// Platform.RestoreCheckpoint overlays one onto a rebuilt scenario.
type PlatformCheckpoint = platform.PlatformSnapshot

// NewFlightRecorder opens a recorder writing into dir, embedding the
// platform's seed and ConfigDigest and checkpointing every
// snapshotEvery ticks.
func NewFlightRecorder(dir string, seed int64, configDigest string, snapshotEvery int, opts FlightRecorderOptions) (*FlightRecorder, error) {
	return flightrec.NewRecorder(dir, seed, configDigest, snapshotEvery, opts)
}

// OpenFlightRecording opens a recording directory for sequential
// reads.
func OpenFlightRecording(dir string) (*FlightRecordingReader, error) {
	return flightrec.OpenReader(dir)
}

// LatestFlightSnapshot returns the newest checkpoint at or before
// maxTick (0 = any), with the recording header for validation.
func LatestFlightSnapshot(dir string, maxTick uint64) (FlightSnapshot, FlightRecordingHeader, error) {
	return flightrec.LatestSnapshot(dir, maxTick)
}

// DecodeFlightSnapshot decodes a FlightRecordSnapshot record payload.
func DecodeFlightSnapshot(payload []byte) (FlightSnapshot, error) {
	return flightrec.DecodeSnapshot(payload)
}

// ---- Chaos engineering (internal/chaos) ----

// ChaosPlan is a declarative, seeded fault-injection schedule: monitor
// panics/errors/latency spikes, bus/broker publish failures, database
// brownouts, recorder faults and campaign worker failures. Every
// injection is a pure function of (plan seed, rule, sim time), so
// chaos-on runs are bit-reproducible.
type ChaosPlan = chaos.Plan

// ChaosLayer executes a ChaosPlan against a running system.
type ChaosLayer = chaos.Layer

// ChaosStats counts the injections a layer performed.
type ChaosStats = chaos.Stats

// LoadChaosPlan parses and validates a JSON chaos plan; unknown fields
// and trailing data are rejected. Arm one by putting it in a
// Scenario's Chaos field before LaunchScenario.
func LoadChaosPlan(data []byte) (ChaosPlan, error) { return chaos.LoadPlan(data) }

// ---- Declarative scenarios (internal/scenario) ----

// Scenario is a declarative mission description: search areas, wind,
// visibility, a heterogeneous fleet with battery models, link-quality
// profiles, a fault/attack timeline and an optional chaos plan. Load
// one from strict JSON or generate one from a seeded archetype, then
// fly it with LaunchScenario.
type Scenario = scenario.Scenario

// ScenarioRun bundles everything LaunchScenario built: world,
// platform, link layer and chaos layer.
type ScenarioRun = platform.ScenarioRun

// Scenario archetypes for GenerateScenario.
const (
	ScenarioMaritimeSAR = scenario.MaritimeSAR
	ScenarioUrbanCanyon = scenario.UrbanCanyon
	ScenarioMultiSite   = scenario.MultiSite
)

// LoadScenario parses and validates a JSON scenario; unknown fields,
// trailing data and out-of-range values are rejected.
func LoadScenario(data []byte) (*Scenario, error) { return scenario.Load(data) }

// GenerateScenario draws a valid scenario from the seeded archetype
// family — a pure function of (seed, archetype).
func GenerateScenario(seed int64, archetype string) (*Scenario, error) {
	return scenario.Generate(seed, archetype)
}

// ScenarioArchetypes lists the generator's archetype names.
func ScenarioArchetypes() []string { return scenario.Archetypes() }

// ClassicScenario describes the paper's §V mission: u1..uN at 12 m/s
// sweeping a sideM square north-east of the Nicosia home point over
// persons survivors. Set HorizonS, add a timeline, links or chaos,
// and fly it with LaunchScenario.
func ClassicScenario(seed int64, uavs, persons int, sideM float64) *Scenario {
	return scenario.Classic(seed, uavs, persons, sideM)
}

// ScenarioEvent is one fault/attack timeline entry, timed from launch.
type ScenarioEvent = scenario.Event

// BatteryCollapseEvent is the §V-A battery collapse (70 °C, 40 %).
func BatteryCollapseEvent(atS float64, uav string) ScenarioEvent {
	return scenario.BatteryCollapse(atS, uav)
}

// GPSSpoofEvent is the §V-C spoofing attack (135°, 3 m/s drift).
func GPSSpoofEvent(atS float64, uav string) ScenarioEvent { return scenario.GPSSpoof(atS, uav) }

// LaunchScenario builds a scenario into a running mission: world,
// scene, platform, link layer, chaos layer and fault timeline, with
// the mission started over every declared site. Drive the returned
// platform's tick loop to the scenario horizon, and Close the platform
// when done.
func LaunchScenario(sc *Scenario, cfg PlatformConfig) (*ScenarioRun, error) {
	return platform.LaunchScenario(sc, cfg)
}

// ---- Multi-tenant mission host (internal/missionhost) ----

// MissionHost is the multi-tenant mission registry: thousands of
// independently seeded missions ticked with per-mission budgets on a
// shared bounded worker pool, watched through copy-on-write snapshots,
// with idle missions parked to disk and rehydrated transparently.
type MissionHost = missionhost.Host

// MissionHostConfig bounds a MissionHost: worker pool size, live-set
// capacity, registry capacity, tick budgets, idle parking and the
// rendered-status LRU cache.
type MissionHostConfig = missionhost.Config

// MissionSpec declares one hosted mission: a classic demo fleet, a
// seeded scenario archetype, or an embedded scenario document.
type MissionSpec = missionhost.Spec

// MissionInfo is a mission's registry directory entry.
type MissionInfo = missionhost.Info

// MissionSnapshot is one published copy-on-write view of a hosted
// mission; watchers read it without touching any tick lock.
type MissionSnapshot = missionhost.Snapshot

// MissionSubscriber is a bounded drop-oldest snapshot queue feeding
// one watcher.
type MissionSubscriber = missionhost.Subscriber

// MissionHostStats snapshots the host's counters.
type MissionHostStats = missionhost.Stats

// NewMissionHost builds a mission host, recovering any missions parked
// under the configured park directory.
func NewMissionHost(cfg MissionHostConfig) (*MissionHost, error) { return missionhost.New(cfg) }

// ParseMissionSpec parses a strict-JSON mission spec: unknown fields,
// trailing data and out-of-range values are rejected.
func ParseMissionSpec(data []byte) (MissionSpec, error) { return missionhost.ParseSpec(data) }

// ---- Observability (internal/obsv) ----

// ObsvRegistry is the dependency-free metrics registry. Hand one to
// PlatformConfig.Observability to instrument a platform; nil keeps the
// whole layer disabled at zero cost.
type ObsvRegistry = obsv.Registry

// ObsvTraceRing is the bounded per-tick trace buffer; install one on a
// registry with SetTrace to record (tick, uav, monitor, duration)
// events for the hottest paths.
type ObsvTraceRing = obsv.TraceRing

// NewObsvRegistry returns an empty metrics registry.
func NewObsvRegistry() *ObsvRegistry { return obsv.NewRegistry() }

// NewObsvTraceRing returns a trace ring holding the last n events.
func NewObsvTraceRing(n int) *ObsvTraceRing { return obsv.NewTraceRing(n) }

// ObsvDebugMux mounts the observability endpoints (/metrics in
// Prometheus text format, /debug/pprof/*, /debug/trace) for a registry.
// The registry is internally synchronized, so the mux can be served
// without holding any platform lock.
func ObsvDebugMux(r *ObsvRegistry) *http.ServeMux { return obsv.DebugMux(r) }
