package platform

// This file is the platform half of the black-box flight recorder
// (internal/flightrec): the typed record hooks the scheduler calls
// from its serial phases, the full-platform checkpoint schema, and the
// restore path that overlays a checkpoint onto a freshly rebuilt
// scenario to continue a mission bit-identically.
//
// The checkpoint contract mirrors internal/uavsim/snapshot.go:
// closures (bus subscriptions, security handlers, fault Apply funcs,
// guidance overrides) are never serialized. Restore expects the caller
// to rebuild the scenario exactly as the recorded run did — same world
// builder, same seed, same Config, same StartMission area, same fault
// schedule — and then overlays every mutable value on top. Database
// contents are deliberately excluded: they never feed back into flight
// decisions, and the drop/retry counters that do are restored.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"sesame/internal/conserts"
	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/geo"
	"sesame/internal/ids"
	"sesame/internal/sar"
	"sesame/internal/security"
	"sesame/internal/uavsim"
)

// ConfigDigest fingerprints every Config value that shapes the
// simulation's trajectory. Recordings embed it so a replay against a
// differently tuned platform fails fast instead of diverging silently.
// Workers and Cells are excluded on purpose — the scheduler is
// bit-identical across pool sizes and cell layouts, so a recording
// flown under one layout resumes under any other. Function-typed fields (CoveragePlanner, ExtraMonitors)
// and pure instrumentation (Observability, Recorder) cannot or need
// not be digested; the caller owns keeping those consistent.
func (p *Platform) ConfigDigest() string {
	c := p.cfg
	blob := struct {
		SESAME           bool       `json:"sesame"`
		SurveyAltitudeM  float64    `json:"survey_altitude_m"`
		DescendAltitudeM float64    `json:"descend_altitude_m"`
		SweepSpacingM    float64    `json:"sweep_spacing_m"`
		Visibility       float64    `json:"visibility"`
		UseThermalBelow  float64    `json:"use_thermal_below"`
		SafeLandingPoint geo.LatLng `json:"safe_landing_point"`
		Origin           string     `json:"origin"`
		LostLinkWindowS  float64    `json:"lost_link_window_s"`
		LostLinkLand     bool       `json:"lost_link_land"`
		DBRetryAttempts  int        `json:"db_retry_attempts"`
		DBRetryBackoffS  float64    `json:"db_retry_backoff_s"`
		BreakerFailures  int        `json:"breaker_failures"`
		BreakerCooldownS float64    `json:"breaker_cooldown_s"`
	}{
		SESAME:           c.SESAME,
		SurveyAltitudeM:  c.SurveyAltitudeM,
		DescendAltitudeM: c.DescendAltitudeM,
		SweepSpacingM:    c.SweepSpacingM,
		Visibility:       c.Visibility,
		UseThermalBelow:  c.UseThermalBelow,
		SafeLandingPoint: c.SafeLandingPoint,
		Origin:           c.Origin,
		LostLinkWindowS:  c.LostLinkWindowS,
		LostLinkLand:     c.LostLinkLand,
		DBRetryAttempts:  c.DBRetryAttempts,
		DBRetryBackoffS:  c.DBRetryBackoffS,
		BreakerFailures:  c.BreakerFailures,
		BreakerCooldownS: c.BreakerCooldownS,
	}
	data, err := json.Marshal(blob)
	if err != nil {
		// The blob is plain data; Marshal cannot fail on it.
		panic(err)
	}
	// The scenario digest joins the hash only when a scenario is
	// attached, so every pre-scenario recording keeps its digest.
	if c.Scenario != nil {
		data = append(data, "scenario="+c.Scenario.Digest()...)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}

// SetRecorder attaches (or, with nil, detaches) the black-box flight
// recorder after construction. Construction-time attachment via
// Config.Recorder needs the config digest before the platform exists;
// this ordering — build the platform, derive ConfigDigest, open the
// recorder, attach it — is the one external callers use.
func (p *Platform) SetRecorder(rec *flightrec.Recorder) { p.cfg.Recorder = rec }

// monitorBlob is one runtime monitor's checkpointed state, keyed by
// the monitor's chain name so restore matches it back up.
type monitorBlob struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// uavCheckpoint is one UAV's platform-side integration state. The
// vehicle itself (kinematics, battery, sensors) lives in the world
// snapshot; this is everything the platform layered on top.
type uavCheckpoint struct {
	ID              string          `json:"id"`
	Action          int             `json:"action"`
	LastAssessment  json.RawMessage `json:"last_assessment"`
	Uncertainty     float64         `json:"uncertainty"`
	HasUncert       bool            `json:"has_uncert"`
	InMission       bool            `json:"in_mission"`
	Descended       bool            `json:"descended"`
	Rescans         int             `json:"rescans"`
	SwapPending     bool            `json:"swap_pending"`
	SwapLandedAt    float64         `json:"swap_landed_at"`
	ResumePath      []geo.LatLng    `json:"resume_path"`
	LastTelemetryAt float64         `json:"last_telemetry_at"`
	LostLink        bool            `json:"lost_link"`
	MonitorPanicked bool            `json:"monitor_panicked"`
	// Circuit-breaker state (omitted while the breaker has never
	// tripped, keeping chaos-off checkpoints byte-identical to older
	// recordings).
	BreakerFails int           `json:"breaker_fails,omitempty"`
	Quarantined  bool          `json:"quarantined,omitempty"`
	ProbeAt      float64       `json:"probe_at,omitempty"`
	DBRetries    []dbRetry     `json:"db_retries"`
	Monitors     []monitorBlob `json:"monitors"`
}

// PlatformSnapshot is the full checkpoint the flight recorder stores:
// the world (vehicles, RNG streams, clock), the mission plan, every
// technology's incremental state and the platform's own bookkeeping.
type PlatformSnapshot struct {
	Tick         uint64                `json:"tick"`
	ConfigDigest string                `json:"config_digest"`
	World        uavsim.WorldSnapshot  `json:"world"`
	Mission      sar.MissionState      `json:"mission"`
	Avail        sar.AvailabilityState `json:"avail"`
	MissionArea  geo.Polygon           `json:"mission_area"`
	Dispatched   map[string]int        `json:"dispatched"`
	Decision     int                   `json:"decision"`
	Coordinator  eddi.CoordinatorState `json:"coordinator"`
	Security     *security.State       `json:"security,omitempty"`
	IDS          *ids.State            `json:"ids,omitempty"`
	Drops        DropCounters          `json:"drops"`
	Retries      RetryCounters         `json:"retries"`
	UAVs         []uavCheckpoint       `json:"uavs"`
}

// Checkpoint exports the platform's full state. The mission must have
// started and the clock must be quiescent (no delayed frames in
// flight) — the recorder defers cadence checkpoints until both hold.
func (p *Platform) Checkpoint() (*PlatformSnapshot, error) {
	if p.mission == nil {
		return nil, errors.New("platform: checkpoint before StartMission")
	}
	ws, err := p.World.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &PlatformSnapshot{
		Tick:         p.ticks,
		ConfigDigest: p.ConfigDigest(),
		World:        ws,
		Mission:      p.mission.State(),
		Avail:        p.avail.State(),
		MissionArea:  append(geo.Polygon(nil), p.missionArea...),
		Dispatched:   make(map[string]int, len(p.dispatched)),
		Decision:     int(p.decision),
		Coordinator:  p.Coordinator.State(),
		Drops:        p.drops.snapshot(),
		Retries:      p.retries.snapshot(),
	}
	for k, v := range p.dispatched {
		s.Dispatched[k] = v
	}
	if p.Security != nil {
		st := p.Security.State()
		s.Security = &st
	}
	if p.IDS != nil {
		st := p.IDS.State()
		s.IDS = &st
	}
	for _, id := range p.order {
		st := p.states[id]
		assessment, err := json.Marshal(st.lastAssessment)
		if err != nil {
			return nil, fmt.Errorf("platform: checkpoint %s assessment: %w", id, err)
		}
		uc := uavCheckpoint{
			ID:              id,
			Action:          int(st.action),
			LastAssessment:  assessment,
			Uncertainty:     st.uncertainty,
			HasUncert:       st.hasUncert,
			InMission:       st.inMission,
			Descended:       st.descended,
			Rescans:         st.rescans,
			SwapPending:     st.swapPending,
			SwapLandedAt:    st.swapLandedAt,
			ResumePath:      append([]geo.LatLng(nil), st.resumePath...),
			LastTelemetryAt: st.lastTelemetryAt,
			LostLink:        st.lostLink,
			MonitorPanicked: st.monitorPanicked,
			BreakerFails:    st.breakerFails,
			Quarantined:     st.quarantined,
			ProbeAt:         st.probeAt,
			DBRetries:       append([]dbRetry(nil), st.dbRetries...),
		}
		for _, m := range st.chain {
			snap, ok := m.(eddi.Snapshotter)
			if !ok {
				continue
			}
			data, err := snap.SnapshotState()
			if err != nil {
				return nil, fmt.Errorf("platform: checkpoint %s monitor %s: %w", id, m.Name(), err)
			}
			uc.Monitors = append(uc.Monitors, monitorBlob{Name: m.Name(), Data: data})
		}
		s.UAVs = append(s.UAVs, uc)
	}
	return s, nil
}

// drainCap bounds the restore drain loop; the production clock only
// carries short-lived delayed-frame closures, so hitting this means a
// scenario scheduled unbounded recurring work before restoring.
const drainCap = 1 << 20

// RestoreCheckpoint overlays a checkpoint onto this platform. The
// caller must have rebuilt the scenario the way the recorded run began
// — same world/fleet builder and seed, same Config, StartMission over
// the same area, and the same fault schedule registered (faults the
// checkpoint already consumed are dropped here). Pending clock events
// left over from the rebuild's climb-out are drained first; whatever
// state their delivery perturbs is overwritten by the overlay.
func (p *Platform) RestoreCheckpoint(s *PlatformSnapshot) error {
	if s == nil {
		return errors.New("platform: nil checkpoint")
	}
	if p.mission == nil {
		return errors.New("platform: restore before StartMission (rebuild the scenario first)")
	}
	if got := p.ConfigDigest(); s.ConfigDigest != "" && s.ConfigDigest != got {
		return fmt.Errorf("platform: checkpoint config digest %s does not match platform %s",
			s.ConfigDigest, got)
	}
	if len(s.UAVs) != len(p.order) {
		return fmt.Errorf("platform: checkpoint has %d UAVs, platform has %d", len(s.UAVs), len(p.order))
	}
	for i := 0; p.World.Clock.Pending() > 0; i++ {
		if i >= drainCap {
			return errors.New("platform: restore drain did not quiesce the clock")
		}
		p.World.Clock.Step()
	}
	if now := p.World.Clock.Now(); now > s.World.Time {
		return fmt.Errorf("platform: rebuilt scenario at t=%.3f is already past checkpoint t=%.3f",
			now, s.World.Time)
	}
	if err := p.World.RestoreSnapshot(s.World); err != nil {
		return err
	}
	p.ticks = s.Tick
	p.mission = sar.RestoreMission(s.Mission)
	avail, err := sar.RestoreAvailabilityTracker(s.Avail)
	if err != nil {
		return err
	}
	p.avail = avail
	p.missionArea = append(geo.Polygon(nil), s.MissionArea...)
	p.dispatched = make(map[string]int, len(s.Dispatched))
	for k, v := range s.Dispatched {
		p.dispatched[k] = v
	}
	p.decision = conserts.MissionDecision(s.Decision)
	p.Coordinator.Restore(s.Coordinator)
	if p.Security != nil && s.Security != nil {
		p.Security.Restore(*s.Security)
	}
	if p.IDS != nil && s.IDS != nil {
		p.IDS.Restore(*s.IDS)
	}
	p.drops.restore(s.Drops)
	p.retries.restore(s.Retries)
	for _, uc := range s.UAVs {
		st := p.states[uc.ID]
		if st == nil {
			return fmt.Errorf("platform: checkpoint UAV %q not in fleet", uc.ID)
		}
		// Drop any override the drain's side effects may have installed;
		// the colloc monitor blob reinstalls it when a landing is active.
		st.uav.GuidanceOverride = nil
		st.collocCtrl = nil
		st.action = conserts.UAVAction(uc.Action)
		if err := json.Unmarshal(uc.LastAssessment, &st.lastAssessment); err != nil {
			return fmt.Errorf("platform: restore %s assessment: %w", uc.ID, err)
		}
		st.uncertainty = uc.Uncertainty
		st.hasUncert = uc.HasUncert
		st.inMission = uc.InMission
		st.descended = uc.Descended
		st.rescans = uc.Rescans
		st.swapPending = uc.SwapPending
		st.swapLandedAt = uc.SwapLandedAt
		st.resumePath = append([]geo.LatLng(nil), uc.ResumePath...)
		st.lastTelemetryAt = uc.LastTelemetryAt
		st.lostLink = uc.LostLink
		st.monitorPanicked = uc.MonitorPanicked
		st.breakerFails = uc.BreakerFails
		st.quarantined = uc.Quarantined
		st.probeAt = uc.ProbeAt
		st.dbRetries = append(st.dbRetries[:0:0], uc.DBRetries...)
		blobs := make(map[string]json.RawMessage, len(uc.Monitors))
		for _, b := range uc.Monitors {
			blobs[b.Name] = b.Data
		}
		for _, m := range st.chain {
			snap, ok := m.(eddi.Snapshotter)
			if !ok {
				continue
			}
			data, ok := blobs[m.Name()]
			if !ok {
				continue
			}
			if err := snap.RestoreState(data); err != nil {
				return fmt.Errorf("platform: restore %s monitor %s: %w", uc.ID, m.Name(), err)
			}
		}
	}
	return nil
}

// restore overwrites the atomic drop counters from a snapshot.
func (c *dropCounters) restore(s DropCounters) {
	c.database.Store(s.Database)
	c.events.Store(s.Events)
	c.availability.Store(s.Availability)
	c.commands.Store(s.Commands)
	c.mission.Store(s.Mission)
	c.perception.Store(s.Perception)
	c.monitors.Store(s.Monitors)
}

// restore overwrites the atomic retry counters from a snapshot.
func (c *retryCounters) restore(s RetryCounters) {
	c.scheduled.Store(s.Scheduled)
	c.succeeded.Store(s.Succeeded)
	c.abandoned.Store(s.Abandoned)
}

// tickUAVRecord is one vehicle's line in the per-tick black-box entry.
// The schema is encoded by appendTickRecord on the hot path; this
// struct is the decode side and the documentation of record shape.
type tickUAVRecord struct {
	ID         string  `json:"id"`
	Mode       string  `json:"mode"`
	Action     string  `json:"action"`
	BatteryPct float64 `json:"battery_pct"`
	AltitudeM  float64 `json:"altitude_m"`
}

// tickRecord is the per-tick telemetry summary appended to the
// recording after every completed tick.
type tickRecord struct {
	Tick     uint64          `json:"tick"`
	Time     float64         `json:"time"`
	Decision string          `json:"decision"`
	UAVs     []tickUAVRecord `json:"uavs"`
}

// busRecord summarizes bus/broker traffic cumulatively at a tick.
// Encoded by appendBusRecord on the hot path.
type busRecord struct {
	Tick           uint64 `json:"tick"`
	Published      uint64 `json:"published"`
	Delivered      uint64 `json:"delivered"`
	FilterConsumed uint64 `json:"filter_consumed"`
	DepthExceeded  uint64 `json:"depth_exceeded"`
	TelemetryDrops uint64 `json:"telemetry_drops"`
}

// appendJSONString appends s as a JSON string literal. Record strings
// are short identifiers (UAV ids, mode/action/decision names); anything
// needing escapes or non-ASCII falls back to the stdlib encoder.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			q, err := json.Marshal(s)
			if err != nil {
				// A Go string never fails to marshal.
				panic(err)
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendRecTime appends the JSON encoding of simulation time t,
// memoized across the records of one tick.
func (p *Platform) appendRecTime(b []byte, t float64) []byte {
	if t != p.recTimeVal || len(p.recTimeBuf) == 0 {
		p.recTimeVal = t
		p.recTimeBuf = strconv.AppendFloat(p.recTimeBuf[:0], t, 'g', -1, 64)
	}
	return append(b, p.recTimeBuf...)
}

// appendTickRecord encodes the tickRecord schema without reflection or
// allocation: the recording runs every tick, so this is the black box's
// hot path. Output is plain JSON that unmarshals into tickRecord
// (TestAppendRecordsMatchSchema pins the equivalence).
func (p *Platform) appendTickRecord(b []byte, now float64) []byte {
	b = append(b, `{"tick":`...)
	b = strconv.AppendUint(b, p.ticks, 10)
	b = append(b, `,"time":`...)
	b = p.appendRecTime(b, now)
	b = append(b, `,"decision":`...)
	b = appendJSONString(b, p.decision.String())
	b = append(b, `,"uavs":[`...)
	for i, id := range p.order {
		if i > 0 {
			b = append(b, ',')
		}
		st := p.states[id]
		b = append(b, `{"id":`...)
		b = appendJSONString(b, id)
		b = append(b, `,"mode":`...)
		b = appendJSONString(b, st.uav.Mode().String())
		b = append(b, `,"action":`...)
		b = appendJSONString(b, st.action.String())
		b = append(b, `,"battery_pct":`...)
		b = strconv.AppendFloat(b, st.uav.Battery.ChargePct, 'g', -1, 64)
		b = append(b, `,"altitude_m":`...)
		b = strconv.AppendFloat(b, st.uav.AltitudeM(), 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendBusRecord encodes the busRecord schema; same hot-path contract
// as appendTickRecord.
func (p *Platform) appendBusRecord(b []byte) []byte {
	bs := p.World.Bus.Stats()
	b = append(b, `{"tick":`...)
	b = strconv.AppendUint(b, p.ticks, 10)
	b = append(b, `,"published":`...)
	b = strconv.AppendUint(b, bs.Published, 10)
	b = append(b, `,"delivered":`...)
	b = strconv.AppendUint(b, bs.Delivered, 10)
	b = append(b, `,"filter_consumed":`...)
	b = strconv.AppendUint(b, bs.FilterConsumed, 10)
	b = append(b, `,"depth_exceeded":`...)
	b = strconv.AppendUint(b, bs.DepthExceeded, 10)
	b = append(b, `,"telemetry_drops":`...)
	b = strconv.AppendUint(b, p.World.Drops().TelemetryPublish, 10)
	return append(b, '}')
}

// faultRecord marks a fault, attack or contingency the platform saw.
type faultRecord struct {
	Time   float64 `json:"time"`
	UAV    string  `json:"uav"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail"`
}

// adviceRecord marks a fused flight-action change.
type adviceRecord struct {
	Time   float64 `json:"time"`
	UAV    string  `json:"uav"`
	Action string  `json:"action"`
}

// degradeRecorder demotes the flight recorder to a counting no-op
// after a persistent write failure. Recording is forensic, not
// flight-critical: a dead disk must not abort the mission, so instead
// of propagating the writer's sticky error out of Tick the platform
// latches degraded mode, emits one incident event into the EDDI
// stream, and from then on only counts the operations it can no
// longer persist (surfaced via Status and observability).
func (p *Platform) degradeRecorder(now float64, err error) {
	if p.recDegraded {
		return
	}
	p.recDegraded = true
	p.recErr = err
	if p.obs != nil {
		p.obs.recorderDegraded().Inc()
	}
	if len(p.order) > 0 {
		ev := eddi.Event{
			Kind: eddi.KindSafety, UAV: p.order[0], Time: now, Severity: 0.35,
			Summary: "flight recorder degraded: " + err.Error() + "; mission continues without black-box recording",
		}
		countIn(&p.drops.events, p.Coordinator.Emit(ev))
	}
}

// recSkip counts n recording operations suppressed while degraded.
func (p *Platform) recSkip(n uint64) {
	p.recSkipped += n
	if p.obs != nil {
		p.obs.recorderSkipped().Add(n)
	}
}

// recordTick appends the per-tick summary, the bus summary and — every
// SnapshotEvery ticks, deferred until the clock is quiescent — a full
// checkpoint. Called by Tick after the pipeline completes; recording
// runs entirely in the serial phase, so no synchronization is needed.
// Writer failures degrade the recorder (see degradeRecorder) instead
// of failing the tick; only checkpoint-serialization errors — platform
// state bugs, not storage faults — still surface to the caller.
func (p *Platform) recordTick() error {
	rec := p.cfg.Recorder
	now := p.World.Clock.Now()
	if p.recDegraded {
		p.recSkip(2) // tick + bus summaries
		return nil
	}
	// The writer copies payloads into its own buffer, so recBuf is
	// reusable immediately after each Record call.
	p.recBuf = p.appendTickRecord(p.recBuf[:0], now)
	if err := rec.RecordTick(p.recBuf); err != nil {
		p.degradeRecorder(now, err)
		return nil
	}
	p.recBuf = p.appendBusRecord(p.recBuf[:0])
	if err := rec.RecordBus(p.recBuf); err != nil {
		p.degradeRecorder(now, err)
		return nil
	}
	if rec.ShouldSnapshot(p.ticks) {
		p.snapOwed = true
	}
	// A checkpoint needs a quiescent clock (delayed link frames cannot
	// serialize); when the cadence lands on a busy tick the snapshot is
	// owed and taken on the next quiet one.
	if p.snapOwed && p.mission != nil && p.World.Clock.Pending() == 0 {
		snap, err := p.Checkpoint()
		if err != nil {
			return err
		}
		state, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		if err := rec.RecordSnapshot(flightrec.Snapshot{Tick: p.ticks, Time: now, State: state}); err != nil {
			p.degradeRecorder(now, err)
			return nil
		}
		p.snapOwed = false
	}
	return nil
}

// appendEventRecord encodes an eddi.Event with encoding/json's field
// names and sorted Data keys, without reflection — events fire every
// tick, so this shares the hot-path contract of appendTickRecord.
func (p *Platform) appendEventRecord(b []byte, ev eddi.Event) []byte {
	b = append(b, `{"Kind":`...)
	b = strconv.AppendInt(b, int64(ev.Kind), 10)
	b = append(b, `,"UAV":`...)
	b = appendJSONString(b, ev.UAV)
	b = append(b, `,"Time":`...)
	b = p.appendRecTime(b, ev.Time)
	b = append(b, `,"Severity":`...)
	b = strconv.AppendFloat(b, ev.Severity, 'g', -1, 64)
	b = append(b, `,"Summary":`...)
	b = appendJSONString(b, ev.Summary)
	b = append(b, `,"Data":`...)
	if ev.Data == nil {
		return append(b, "null}"...)
	}
	p.recKeys = p.recKeys[:0]
	for k := range ev.Data {
		p.recKeys = append(p.recKeys, k)
	}
	slices.Sort(p.recKeys)
	b = append(b, '{')
	for i, k := range p.recKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		b = appendJSONString(b, ev.Data[k])
	}
	return append(b, "}}"...)
}

// recordEvent appends an EDDI event to the recording (serial apply
// phase). A write error degrades the recorder rather than poisoning
// the next RecordTick through the writer's sticky error.
func (p *Platform) recordEvent(ev eddi.Event) {
	rec := p.cfg.Recorder
	if rec == nil {
		return
	}
	if p.recDegraded {
		p.recSkip(1)
		return
	}
	p.recBuf = p.appendEventRecord(p.recBuf[:0], ev)
	if err := rec.RecordEvent(p.recBuf); err != nil {
		p.degradeRecorder(ev.Time, err)
	}
}

// recordFault marks a fault/attack/contingency in the recording.
func (p *Platform) recordFault(now float64, uav, kind, detail string) {
	rec := p.cfg.Recorder
	if rec == nil {
		return
	}
	if p.recDegraded {
		p.recSkip(1)
		return
	}
	if data, err := json.Marshal(faultRecord{Time: now, UAV: uav, Kind: kind, Detail: detail}); err == nil {
		if err := rec.RecordFault(data); err != nil {
			p.degradeRecorder(now, err)
		}
	}
}

// recordAdvice marks a fused flight-action change in the recording.
func (p *Platform) recordAdvice(now float64, uav, action string) {
	rec := p.cfg.Recorder
	if rec == nil {
		return
	}
	if p.recDegraded {
		p.recSkip(1)
		return
	}
	if data, err := json.Marshal(adviceRecord{Time: now, UAV: uav, Action: action}); err == nil {
		if err := rec.RecordAdvice(data); err != nil {
			p.degradeRecorder(now, err)
		}
	}
}
