package uavsim

import (
	"errors"
	"fmt"
	"math"

	"sesame/internal/geo"
	"sesame/internal/rosbus"
)

// VehicleKind selects the airframe dynamics model.
type VehicleKind string

const (
	// KindMultirotor is the hover-capable default (the paper's M300).
	KindMultirotor VehicleKind = "multirotor"
	// KindFixedWing models a fixed-wing survey aircraft: it cannot
	// hover, so it must keep at least MinSpeedMS of airspeed, loiters in
	// Hold mode instead of hovering, and lands on a moving approach.
	KindFixedWing VehicleKind = "fixed_wing"
)

// UAVConfig parameterizes a vehicle.
type UAVConfig struct {
	ID string
	// Home is the launch/return point.
	Home geo.LatLng
	// Kind selects the airframe model; empty means KindMultirotor, which
	// keeps every pre-heterogeneous fleet bit-identical.
	Kind VehicleKind
	// CruiseSpeedMS is the horizontal mission speed.
	CruiseSpeedMS float64
	// ClimbRateMS is the vertical speed for altitude changes.
	ClimbRateMS float64
	// MinSpeedMS is the fixed-wing stall floor: the vehicle never flies
	// slower while airborne (default 60% of cruise). Ignored (zero) for
	// multirotors.
	MinSpeedMS float64
	// TurnRateDegS bounds the fixed-wing loiter turn rate (default 15).
	TurnRateDegS float64
	// Rotors is the motor count (quad=4, hex=6; the M300 is a quad; a
	// fixed-wing defaults to a single pusher prop).
	Rotors int
	// Battery overrides the default pack when non-nil. The pack is
	// copied into the world's contiguous battery store; mutate it via
	// UAV.Battery afterwards, not through the pointer passed here.
	Battery *Battery
}

// UAV is one simulated vehicle. It is owned and stepped by a World.
// Its hot kinematic state (position, altitude, speed, heading, mode,
// commanded altitude, battery) lives in the world's struct-of-arrays
// fleet store at index idx; the accessors below read through to it.
type UAV struct {
	cfg UAVConfig
	// idx is the vehicle's dense index into world.fleet.
	idx int
	wps []geo.ENU // remaining waypoints (world frame)

	// Battery points into the world's contiguous pack store
	// (world.fleet.batt); AddUAV re-pins it after fleet growth.
	Battery *Battery
	GPS     *GPS
	Camera  *Camera
	Comms   *Comms
	rotors  []bool // true = failed

	// GuidanceOverride, when non-nil, supplies externally computed
	// velocity commands (used by Collaborative Localization to steer a
	// GPS-denied vehicle). It receives the UAV and dt and returns the
	// desired ENU velocity in m/s.
	GuidanceOverride func(u *UAV, dt float64) geo.ENU

	world *World
	// pubs are the vehicle's telemetry publishers, advertised by AddUAV.
	pubs struct{ status, gps, battery, health *rosbus.Publisher }
}

// ID returns the vehicle id.
func (u *UAV) ID() string { return u.cfg.ID }

// Kind returns the airframe kind.
func (u *UAV) Kind() VehicleKind { return u.cfg.Kind }

// CruiseSpeedMS returns the configured mission speed (SoA slot).
func (u *UAV) CruiseSpeedMS() float64 { return u.world.fleet.cruise[u.idx] }

// MinSpeedMS returns the stall floor (0 for hover-capable airframes).
func (u *UAV) MinSpeedMS() float64 { return u.world.fleet.minSpd[u.idx] }

// Mode returns the current flight mode.
func (u *UAV) Mode() FlightMode { return u.world.fleet.mode[u.idx] }

// TruePosition returns the ground-truth geodetic position.
func (u *UAV) TruePosition() geo.LatLng {
	return u.world.proj.ToLatLng(u.world.fleet.pos[u.idx])
}

// TrueENU returns the ground-truth position in the world frame.
func (u *UAV) TrueENU() geo.ENU { return u.world.fleet.pos[u.idx] }

// AltitudeM returns the true altitude above ground in metres.
func (u *UAV) AltitudeM() float64 { return u.world.fleet.altM[u.idx] }

// SpeedMS returns the current ground speed.
func (u *UAV) SpeedMS() float64 { return u.world.fleet.speed[u.idx] }

// HeadingDeg returns the current heading.
func (u *UAV) HeadingDeg() float64 { return u.world.fleet.head[u.idx] }

// Home returns the configured home point.
func (u *UAV) Home() geo.LatLng { return u.cfg.Home }

// RemainingWaypoints returns how many mission waypoints are left.
func (u *UAV) RemainingWaypoints() int { return len(u.wps) }

// RemainingPath returns the geodetic waypoints not yet reached, in
// flight order — what the Task Manager redistributes when this vehicle
// leaves the mission.
func (u *UAV) RemainingPath() []geo.LatLng {
	out := make([]geo.LatLng, len(u.wps))
	for i, wp := range u.wps {
		out[i] = u.world.proj.ToLatLng(wp)
	}
	return out
}

// FailedRotors returns the count of failed rotors.
func (u *UAV) FailedRotors() int {
	n := 0
	for _, f := range u.rotors {
		if f {
			n++
		}
	}
	return n
}

// RotorStates snapshots rotor health.
func (u *UAV) RotorStates() []RotorState {
	out := make([]RotorState, len(u.rotors))
	for i, f := range u.rotors {
		out[i] = RotorState{Index: i, Failed: f}
	}
	return out
}

// FailRotor marks rotor i failed. A quadrotor with any failed rotor, or
// a hexrotor with more than two, loses controllability and crashes if
// airborne.
func (u *UAV) FailRotor(i int) error {
	if i < 0 || i >= len(u.rotors) {
		return fmt.Errorf("uavsim: rotor %d out of range", i)
	}
	u.rotors[i] = true
	if !u.controllable() && u.Mode().Airborne() {
		u.setMode(ModeCrashed)
		u.world.fleet.speed[u.idx] = 0
	}
	return nil
}

// controllable reports whether enough rotors remain for stable flight:
// quadrotors need all 4, hexrotors tolerate up to 2 opposite failures
// (simplified to "at most 2").
func (u *UAV) controllable() bool {
	failed := u.FailedRotors()
	switch {
	case len(u.rotors) <= 4:
		return failed == 0
	default:
		return failed <= 2
	}
}

// --- Commands ---

// TakeOff transitions from idle/landed to a hold at altM metres.
func (u *UAV) TakeOff(altM float64) error {
	if m := u.Mode(); m != ModeIdle && m != ModeLanded {
		return fmt.Errorf("uavsim: %s cannot take off in mode %v", u.cfg.ID, m)
	}
	if !u.controllable() {
		return fmt.Errorf("uavsim: %s is not controllable", u.cfg.ID)
	}
	if altM <= 0 {
		return errors.New("uavsim: takeoff altitude must be positive")
	}
	u.setMode(ModeHold)
	u.world.fleet.wpAltM[u.idx] = altM
	return nil
}

// FlyMission sets the waypoint list (geodetic) and switches to mission
// mode at the given altitude.
func (u *UAV) FlyMission(waypoints []geo.LatLng, altM float64) error {
	if len(waypoints) == 0 {
		return errors.New("uavsim: empty waypoint list")
	}
	if !u.Mode().Airborne() {
		return fmt.Errorf("uavsim: %s must be airborne to fly a mission (mode %v)", u.cfg.ID, u.Mode())
	}
	u.wps = u.wps[:0]
	for _, wp := range waypoints {
		u.wps = append(u.wps, u.world.proj.ToENU(wp))
	}
	u.world.fleet.wpAltM[u.idx] = altM
	u.setMode(ModeMission)
	return nil
}

// SetAltitude retargets the commanded altitude without changing mode.
func (u *UAV) SetAltitude(altM float64) error {
	if altM <= 0 {
		return errors.New("uavsim: altitude must be positive")
	}
	u.world.fleet.wpAltM[u.idx] = altM
	return nil
}

// Hold freezes the vehicle at its current position.
func (u *UAV) Hold() {
	if u.Mode().Airborne() {
		u.setMode(ModeHold)
		u.wps = u.wps[:0]
	}
}

// ReturnToBase flies home and lands.
func (u *UAV) ReturnToBase() {
	if !u.Mode().Airborne() {
		return
	}
	u.wps = u.wps[:0]
	u.wps = append(u.wps, u.world.proj.ToENU(u.cfg.Home))
	u.setMode(ModeReturnToBase)
}

// Land descends in place.
func (u *UAV) Land() {
	if u.Mode().Airborne() {
		u.setMode(ModeLanding)
		u.wps = u.wps[:0]
	}
}

// EmergencyLand descends immediately at double climb rate.
func (u *UAV) EmergencyLand() {
	if u.Mode().Airborne() {
		u.setMode(ModeEmergencyLanding)
		u.wps = u.wps[:0]
	}
}

// --- Dynamics ---

// waypointCaptureM is the horizontal capture radius.
const waypointCaptureM = 1.5

// criticalChargePct is the flight controller's critical-battery
// failsafe, as on the M300 this model stands in for: an airborne
// vehicle at or below it lands where it is, whatever it was commanded.
// Even at the overheat drain (3x) it leaves ~25 s of charge for a
// descent that takes ~10 s, so a vehicle no longer flies its pack flat.
const criticalChargePct = 5

// step advances the vehicle by dt seconds, reading and writing the
// world's struct-of-arrays slots for this vehicle. The kinematic
// parameters (cruise, climb, stall floor) live in the fleet store, so a
// heterogeneous fleet's tick still walks contiguous memory.
func (u *UAV) step(dt float64) {
	f := &u.world.fleet
	i := u.idx
	if f.mode[i] == ModeCrashed {
		return
	}
	if u.Battery.Depleted() && f.mode[i].Airborne() {
		u.setMode(ModeCrashed)
		f.speed[i] = 0
		return
	}
	if f.mode[i].Airborne() && u.Battery.ChargePct <= criticalChargePct {
		// Unlike a commanded EmergencyLand, the failsafe keeps the
		// unflown waypoints, as a crash does, so the mission layer can
		// hand them to the rest of the fleet.
		u.setMode(ModeEmergencyLanding)
	}

	var vel geo.ENU
	climb := 0.0
	minSpd := f.minSpd[i]

	// An emergency landing descends under the flight controller's own
	// guidance: an external override must not hold the vehicle aloft.
	if u.GuidanceOverride != nil && f.mode[i].Airborne() && f.mode[i] != ModeEmergencyLanding {
		vel = u.GuidanceOverride(u, dt)
		if n := vel.Norm(); n > f.cruise[i] && n > 0 {
			vel = vel.Scale(f.cruise[i] / n)
		}
	} else {
		switch f.mode[i] {
		case ModeMission, ModeReturnToBase:
			vel = u.seekWaypoint(dt)
		case ModeHold:
			// A multirotor hovers; a fixed-wing cannot, so it loiters:
			// minimum airspeed along a heading that advances at the
			// configured turn rate, tracing a circle around the hold point.
			if minSpd > 0 {
				vel = u.forwardVel(minSpd, u.cfg.TurnRateDegS*dt)
			}
		case ModeLanding:
			climb = -f.climb[i]
			if minSpd > 0 {
				// Fixed-wing approach: descend while keeping stall margin.
				vel = u.forwardVel(minSpd, 0)
			}
		case ModeEmergencyLanding:
			climb = -2 * f.climb[i]
			if minSpd > 0 {
				vel = u.forwardVel(minSpd, 0)
			}
		}
	}

	// Altitude tracking for non-landing airborne modes.
	if m := f.mode[i]; m == ModeMission || m == ModeHold || m == ModeReturnToBase {
		dAlt := f.wpAltM[i] - f.altM[i]
		maxStep := f.climb[i] * dt
		if math.Abs(dAlt) <= maxStep {
			f.altM[i] = f.wpAltM[i]
		} else if dAlt > 0 {
			f.altM[i] += maxStep
		} else {
			f.altM[i] -= maxStep
		}
	} else if climb != 0 {
		f.altM[i] += climb * dt
		if f.altM[i] <= 0 {
			f.altM[i] = 0
			u.setMode(ModeLanded)
			f.speed[i] = 0
		}
	}

	// Wind (mean + gust) drifts the true track.
	if f.mode[i].Airborne() {
		vel = vel.Add(u.world.CurrentWind())
	}
	f.pos[i] = f.pos[i].Add(vel.Scale(dt))
	f.speed[i] = vel.Norm()
	if f.speed[i] > 0.01 {
		f.head[i] = math.Mod(math.Atan2(vel.East, vel.North)*180/math.Pi+360, 360)
	}

	u.Battery.Step(dt, f.speed[i], f.mode[i].Airborne())
	u.GPS.Step(dt)
}

// forwardVel returns the velocity of magnitude speed along the current
// heading advanced by turnDeg — the fixed-wing motion primitive for
// loiter and approach legs.
func (u *UAV) forwardVel(speed, turnDeg float64) geo.ENU {
	hd := (u.world.fleet.head[u.idx] + turnDeg) * math.Pi / 180
	return geo.ENU{East: speed * math.Sin(hd), North: speed * math.Cos(hd)}
}

// seekWaypoint returns the velocity toward the current waypoint,
// consuming it on capture. Navigation uses the position the vehicle
// BELIEVES it has: under GPS spoofing the believed position is the
// spoofed one, so the true track deviates — exactly the Fig. 6 effect.
// A fixed-wing never drops below its stall floor, so its capture radius
// widens to one step of minimum-speed travel (it overshoots rather than
// decelerating onto the point).
func (u *UAV) seekWaypoint(dt float64) geo.ENU {
	f := &u.world.fleet
	cruise := f.cruise[u.idx]
	minSpd := f.minSpd[u.idx]
	capture := waypointCaptureM
	if r := minSpd * dt; r > capture {
		capture = r
	}
	for len(u.wps) > 0 {
		believed := u.believedENU()
		d := u.wps[0].Sub(believed)
		if d.Norm() <= capture {
			u.wps = u.wps[1:]
			continue
		}
		maxTravel := cruise * dt
		if d.Norm() <= maxTravel {
			vel := d.Scale(1 / dt)
			if n := vel.Norm(); minSpd > 0 && n < minSpd && n > 0 {
				vel = vel.Scale(minSpd / n)
			}
			return vel
		}
		return d.Scale(cruise / d.Norm())
	}
	// Mission complete.
	switch u.Mode() {
	case ModeMission:
		u.setMode(ModeHold)
	case ModeReturnToBase:
		u.setMode(ModeLanding)
	}
	return geo.ENU{}
}

// believedENU returns the position the navigation stack believes,
// i.e. the GPS measurement (true position plus spoof offset) in the
// world frame; during dropout it degrades to the true position (inertial
// drift is neglected over the short horizons simulated here).
func (u *UAV) believedENU() geo.ENU {
	fix, ok := u.GPS.Fix(u.TruePosition(), u.AltitudeM(), u.cfg.ID, 0)
	if !ok {
		return u.world.fleet.pos[u.idx]
	}
	return u.world.proj.ToENU(fix.Position)
}
