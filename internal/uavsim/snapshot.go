package uavsim

import (
	"fmt"

	"sesame/internal/geo"
	"sesame/internal/simclock"
)

// This file is the world half of the flight-recorder checkpoint
// contract (internal/flightrec): every mutable field that influences
// future simulation — vehicle kinematics, battery/sensor state, the
// gust process, RNG stream positions — exports into plain data and
// restores bit-identically. Closures (fault Apply funcs, guidance
// overrides) are deliberately excluded: restore rebuilds the scenario
// first and overlays this state on top.

// BatteryState' counterpart for checkpointing: the full pack model
// including the unexported last-drain telemetry value.
type BatterySnapshot struct {
	ChargePct           float64 `json:"charge_pct"`
	TempC               float64 `json:"temp_c"`
	NominalVoltage      float64 `json:"nominal_voltage"`
	BaseDrainPctPerS    float64 `json:"base_drain_pct_per_s"`
	SpeedDrainFactor    float64 `json:"speed_drain_factor"`
	AmbientC            float64 `json:"ambient_c"`
	LoadHeatC           float64 `json:"load_heat_c"`
	ThermalTauS         float64 `json:"thermal_tau_s"`
	OverheatThresholdC  float64 `json:"overheat_threshold_c"`
	OverheatDrainFactor float64 `json:"overheat_drain_factor"`
	LastDrain           float64 `json:"last_drain"`
}

// Snapshot exports the pack state.
func (b *Battery) Snapshot() BatterySnapshot {
	return BatterySnapshot{
		ChargePct:           b.ChargePct,
		TempC:               b.TempC,
		NominalVoltage:      b.NominalVoltage,
		BaseDrainPctPerS:    b.BaseDrainPctPerS,
		SpeedDrainFactor:    b.SpeedDrainFactor,
		AmbientC:            b.AmbientC,
		LoadHeatC:           b.LoadHeatC,
		ThermalTauS:         b.ThermalTauS,
		OverheatThresholdC:  b.OverheatThresholdC,
		OverheatDrainFactor: b.OverheatDrainFactor,
		LastDrain:           b.lastDrain,
	}
}

// Restore overwrites the pack from a snapshot.
func (b *Battery) Restore(s BatterySnapshot) {
	b.ChargePct = s.ChargePct
	b.TempC = s.TempC
	b.NominalVoltage = s.NominalVoltage
	b.BaseDrainPctPerS = s.BaseDrainPctPerS
	b.SpeedDrainFactor = s.SpeedDrainFactor
	b.AmbientC = s.AmbientC
	b.LoadHeatC = s.LoadHeatC
	b.ThermalTauS = s.ThermalTauS
	b.OverheatThresholdC = s.OverheatThresholdC
	b.OverheatDrainFactor = s.OverheatDrainFactor
	b.lastDrain = s.LastDrain
}

// GPSSnapshot is the receiver's mutable state, including the
// attacker-controlled spoof offset victims cannot normally read.
type GPSSnapshot struct {
	Mode           GPSMode `json:"mode"`
	NoiseM         float64 `json:"noise_m"`
	DegradedNoiseM float64 `json:"degraded_noise_m"`
	SpoofOffset    geo.ENU `json:"spoof_offset"`
	SpoofDriftMS   float64 `json:"spoof_drift_ms"`
	SpoofBearingD  float64 `json:"spoof_bearing_d"`
}

// Snapshot exports the receiver state. The noise RNG is owned by the
// clock's "gps/<id>" stream and is checkpointed as a stream position.
func (g *GPS) Snapshot() GPSSnapshot {
	return GPSSnapshot{
		Mode:           g.Mode,
		NoiseM:         g.NoiseM,
		DegradedNoiseM: g.DegradedNoiseM,
		SpoofOffset:    g.spoofOffset,
		SpoofDriftMS:   g.SpoofDriftMS,
		SpoofBearingD:  g.SpoofBearingD,
	}
}

// Restore overwrites the receiver state from a snapshot.
func (g *GPS) Restore(s GPSSnapshot) {
	g.Mode = s.Mode
	g.NoiseM = s.NoiseM
	g.DegradedNoiseM = s.DegradedNoiseM
	g.spoofOffset = s.SpoofOffset
	g.SpoofDriftMS = s.SpoofDriftMS
	g.SpoofBearingD = s.SpoofBearingD
}

// UAVSnapshot is one vehicle's full mutable state. GuidanceOverride is
// a closure and is excluded: collaborative localization reinstalls it
// when its own controller state is restored.
type UAVSnapshot struct {
	ID              string          `json:"id"`
	Pos             geo.ENU         `json:"pos"`
	AltM            float64         `json:"alt_m"`
	SpeedMS         float64         `json:"speed_ms"`
	HeadingD        float64         `json:"heading_d"`
	Mode            FlightMode      `json:"mode"`
	Waypoints       []geo.ENU       `json:"waypoints"`
	WPAltM          float64         `json:"wp_alt_m"`
	Rotors          []bool          `json:"rotors"`
	Battery         BatterySnapshot `json:"battery"`
	GPS             GPSSnapshot     `json:"gps"`
	CameraOK        bool            `json:"camera_ok"`
	CameraBlurSigma float64         `json:"camera_blur_sigma"`
	CommsOK         bool            `json:"comms_ok"`
	CommsPacketLoss float64         `json:"comms_packet_loss"`
}

// Snapshot exports the vehicle's state.
func (u *UAV) Snapshot() UAVSnapshot {
	wps := make([]geo.ENU, len(u.wps))
	copy(wps, u.wps)
	rotors := make([]bool, len(u.rotors))
	copy(rotors, u.rotors)
	f := &u.world.fleet
	return UAVSnapshot{
		ID:              u.cfg.ID,
		Pos:             f.pos[u.idx],
		AltM:            f.altM[u.idx],
		SpeedMS:         f.speed[u.idx],
		HeadingD:        f.head[u.idx],
		Mode:            f.mode[u.idx],
		Waypoints:       wps,
		WPAltM:          f.wpAltM[u.idx],
		Rotors:          rotors,
		Battery:         u.Battery.Snapshot(),
		GPS:             u.GPS.Snapshot(),
		CameraOK:        u.Camera.OK,
		CameraBlurSigma: u.Camera.BlurSigma,
		CommsOK:         u.Comms.OK,
		CommsPacketLoss: u.Comms.PacketLoss,
	}
}

// RestoreSnapshot overwrites the vehicle's state. The rotor count must
// match the vehicle's configuration.
func (u *UAV) RestoreSnapshot(s UAVSnapshot) error {
	if s.ID != u.cfg.ID {
		return fmt.Errorf("uavsim: snapshot for %q applied to %q", s.ID, u.cfg.ID)
	}
	if len(s.Rotors) != len(u.rotors) {
		return fmt.Errorf("uavsim: %s: snapshot has %d rotors, vehicle has %d",
			u.cfg.ID, len(s.Rotors), len(u.rotors))
	}
	f := &u.world.fleet
	f.pos[u.idx] = s.Pos
	f.altM[u.idx] = s.AltM
	f.speed[u.idx] = s.SpeedMS
	f.head[u.idx] = s.HeadingD
	// Through the setter so the world's airborne count tracks the
	// restored mode.
	u.setMode(s.Mode)
	u.wps = append(u.wps[:0], s.Waypoints...)
	f.wpAltM[u.idx] = s.WPAltM
	copy(u.rotors, s.Rotors)
	u.Battery.Restore(s.Battery)
	u.GPS.Restore(s.GPS)
	u.Camera.OK = s.CameraOK
	u.Camera.BlurSigma = s.CameraBlurSigma
	u.Comms.OK = s.CommsOK
	u.Comms.PacketLoss = s.CommsPacketLoss
	return nil
}

// WorldSnapshot is the environment's full mutable state: simulation
// time, the wind/gust process, RNG stream positions, drop counters and
// every vehicle. The fault schedule is NOT serialized (Apply funcs are
// closures); RestoreSnapshot instead drops the faults the recorded run
// had already injected, so a rebuilt schedule replays only the future.
type WorldSnapshot struct {
	Time           float64                `json:"time"`
	Seed           int64                  `json:"seed"`
	Wind           geo.ENU                `json:"wind"`
	Gust           geo.ENU                `json:"gust"`
	GustSigmaMS    float64                `json:"gust_sigma_ms"`
	GustTauS       float64                `json:"gust_tau_s"`
	TelemetryHz    float64                `json:"telemetry_hz"`
	TelemetryDrops uint64                 `json:"telemetry_drops"`
	Streams        []simclock.StreamState `json:"streams"`
	UAVs           []UAVSnapshot          `json:"uavs"`
	// FaultsFired is how many scheduled faults the recorded run had
	// injected.
	FaultsFired uint64 `json:"faults_fired"`
}

// Snapshot exports the world state. The clock must be quiescent
// (no pending events): delayed-frame closures parked on the clock
// cannot be serialized, so checkpoints are only taken between ticks
// when nothing is in flight.
func (w *World) Snapshot() (WorldSnapshot, error) {
	if n := w.Clock.Pending(); n != 0 {
		return WorldSnapshot{}, fmt.Errorf("uavsim: snapshot with %d pending clock events", n)
	}
	s := WorldSnapshot{
		Time:           w.Clock.Now(),
		Seed:           w.Clock.Seed(),
		Wind:           w.Wind,
		Gust:           w.gust,
		GustSigmaMS:    w.GustSigmaMS,
		GustTauS:       w.GustTauS,
		TelemetryHz:    w.TelemetryHz,
		TelemetryDrops: w.telemetryDrops.Load(),
		Streams:        w.Clock.StreamStates(),
		UAVs:           make([]UAVSnapshot, 0, len(w.order)),
		FaultsFired:    w.faultsFired,
	}
	for _, id := range w.order {
		s.UAVs = append(s.UAVs, w.uavs[id].Snapshot())
	}
	return s, nil
}

// RestoreSnapshot overlays a checkpoint onto a freshly rebuilt world:
// the same fleet must already exist (same scenario builder, same seed,
// same fault schedule). It restores RNG streams, jumps the clock, drops
// faults the original run had already injected, and overwrites each
// vehicle's state.
func (w *World) RestoreSnapshot(s WorldSnapshot) error {
	if s.Seed != w.Clock.Seed() {
		return fmt.Errorf("uavsim: snapshot seed %d != world seed %d", s.Seed, w.Clock.Seed())
	}
	// The rebuild may have injected some of the schedule itself
	// (faults due during its climb-out); drop only the rest.
	if s.FaultsFired < w.faultsFired || s.FaultsFired-w.faultsFired > uint64(len(w.faults)) {
		return fmt.Errorf("uavsim: snapshot fired %d faults, rebuilt world fired %d with %d pending",
			s.FaultsFired, w.faultsFired, len(w.faults))
	}
	if len(s.UAVs) != len(w.order) {
		return fmt.Errorf("uavsim: snapshot has %d UAVs, world has %d", len(s.UAVs), len(w.order))
	}
	if n := w.Clock.Pending(); n != 0 {
		return fmt.Errorf("uavsim: restore onto a clock with %d pending events", n)
	}
	if err := w.Clock.RestoreStreams(s.Streams); err != nil {
		return err
	}
	for _, us := range s.UAVs {
		u, ok := w.uavs[us.ID]
		if !ok {
			return fmt.Errorf("uavsim: snapshot UAV %q not in world", us.ID)
		}
		if err := u.RestoreSnapshot(us); err != nil {
			return err
		}
	}
	w.Wind = s.Wind
	w.gust = s.Gust
	w.GustSigmaMS = s.GustSigmaMS
	w.GustTauS = s.GustTauS
	w.TelemetryHz = s.TelemetryHz
	w.telemetryDrops.Store(s.TelemetryDrops)
	w.Clock.SetNow(s.Time)
	// The faults the recorded run injected are a prefix of the sorted
	// schedule; their effects live in the vehicle snapshots.
	w.faults = w.faults[s.FaultsFired-w.faultsFired:]
	w.faultsFired = s.FaultsFired
	return nil
}
