package uavsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"sesame/internal/geo"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

// World owns the simulation: the clock, the rosbus, the local frame,
// the fleet, the wind field and the fault schedule.
type World struct {
	Clock *simclock.Clock
	Bus   *rosbus.Bus
	// Wind is the mean drift velocity applied to airborne vehicles.
	Wind geo.ENU
	// GustSigmaMS, when positive, adds a first-order Gauss–Markov gust
	// on top of Wind with the given standard deviation and
	// GustTauS correlation time (default 30 s).
	GustSigmaMS float64
	GustTauS    float64
	gust        geo.ENU

	proj *geo.Projection
	uavs map[string]*UAV
	// fleet is the struct-of-arrays hot-state store (fleet.go), indexed
	// by UAV.idx (add order); seq lists the UAVs sorted by id, the
	// deterministic step and snapshot order.
	fleet  fleet
	seq    []*UAV
	faults []Fault
	// faultsFired counts the faults BeginStep has injected, so a
	// checkpoint records exactly how far into the schedule the run got.
	faultsFired uint64
	// airborne counts vehicles in airborne modes; maintained by the
	// mode setter (atomic: sharded physics may crash vehicles
	// concurrently).
	airborne atomic.Int64

	// TelemetryHz is how often telemetry publishes per simulated second
	// when stepping with StepTelemetry (default 1 Hz).
	TelemetryHz float64

	telemetryDrops atomic.Uint64
}

// DropCounters tallies world-side data losses, mirroring the platform's
// DropCounters: nothing fails silently.
type DropCounters struct {
	// TelemetryPublish counts telemetry messages the bus (or the link
	// layer between vehicle and GCS) refused.
	TelemetryPublish uint64 `json:"telemetry_publish"`
}

// Drops returns a snapshot of the world's drop counters.
func (w *World) Drops() DropCounters {
	return DropCounters{TelemetryPublish: w.telemetryDrops.Load()}
}

// NewWorld creates a world whose local frame is centred at origin.
func NewWorld(origin geo.LatLng, seed int64) *World {
	return &World{
		Clock:       simclock.New(seed),
		Bus:         rosbus.NewBus(),
		proj:        geo.NewProjection(origin),
		uavs:        make(map[string]*UAV),
		TelemetryHz: 1,
	}
}

// Projection exposes the world's geodetic<->ENU projection.
func (w *World) Projection() *geo.Projection { return w.proj }

// AddUAV creates a vehicle at its home point.
func (w *World) AddUAV(cfg UAVConfig) (*UAV, error) {
	if cfg.ID == "" {
		return nil, errors.New("uavsim: empty UAV id")
	}
	if _, dup := w.uavs[cfg.ID]; dup {
		return nil, fmt.Errorf("uavsim: duplicate UAV id %q", cfg.ID)
	}
	if !cfg.Home.Valid() {
		return nil, fmt.Errorf("uavsim: invalid home for %q", cfg.ID)
	}
	switch cfg.Kind {
	case "", KindMultirotor:
		cfg.Kind = KindMultirotor
		cfg.MinSpeedMS = 0
		if cfg.CruiseSpeedMS <= 0 {
			cfg.CruiseSpeedMS = 10
		}
		if cfg.ClimbRateMS <= 0 {
			cfg.ClimbRateMS = 3
		}
		if cfg.Rotors <= 0 {
			cfg.Rotors = 4
		}
	case KindFixedWing:
		if cfg.CruiseSpeedMS <= 0 {
			cfg.CruiseSpeedMS = 18
		}
		if cfg.ClimbRateMS <= 0 {
			cfg.ClimbRateMS = 2.5
		}
		if cfg.MinSpeedMS <= 0 {
			cfg.MinSpeedMS = 0.6 * cfg.CruiseSpeedMS
		}
		if cfg.MinSpeedMS > cfg.CruiseSpeedMS {
			return nil, fmt.Errorf("uavsim: %s: stall floor %.1f m/s above cruise %.1f m/s",
				cfg.ID, cfg.MinSpeedMS, cfg.CruiseSpeedMS)
		}
		if cfg.TurnRateDegS <= 0 {
			cfg.TurnRateDegS = 15
		}
		if cfg.Rotors <= 0 {
			cfg.Rotors = 1
		}
	default:
		return nil, fmt.Errorf("uavsim: %s: unknown vehicle kind %q", cfg.ID, cfg.Kind)
	}
	batt := cfg.Battery
	if batt == nil {
		batt = DefaultBattery()
	}
	u := &UAV{
		cfg:    cfg,
		idx:    len(w.seq),
		GPS:    NewGPS(w.Clock.Stream("gps/" + cfg.ID)),
		Camera: NewCamera(),
		Comms:  NewComms(),
		rotors: make([]bool, cfg.Rotors),
		world:  w,
	}
	w.fleet.pos = append(w.fleet.pos, w.proj.ToENU(cfg.Home))
	w.fleet.altM = append(w.fleet.altM, 0)
	w.fleet.speed = append(w.fleet.speed, 0)
	w.fleet.head = append(w.fleet.head, 0)
	w.fleet.mode = append(w.fleet.mode, ModeIdle)
	w.fleet.wpAltM = append(w.fleet.wpAltM, 0)
	w.fleet.cruise = append(w.fleet.cruise, cfg.CruiseSpeedMS)
	w.fleet.climb = append(w.fleet.climb, cfg.ClimbRateMS)
	w.fleet.minSpd = append(w.fleet.minSpd, cfg.MinSpeedMS)
	battCap := cap(w.fleet.batt)
	w.fleet.batt = append(w.fleet.batt, *batt)
	w.uavs[cfg.ID] = u
	// Fleets are normally built in ascending id order, so the insert
	// is usually an append.
	i, _ := slices.BinarySearchFunc(w.seq, cfg.ID, func(v *UAV, id string) int { return strings.Compare(v.cfg.ID, id) })
	w.seq = slices.Insert(w.seq, i, u)
	if cap(w.fleet.batt) != battCap {
		// The append moved the contiguous pack store: re-pin every
		// vehicle's Battery pointer to its new slot.
		for _, v := range w.seq {
			v.Battery = &w.fleet.batt[v.idx]
		}
	} else {
		u.Battery = &w.fleet.batt[u.idx]
	}

	for _, t := range []struct {
		pub   **rosbus.Publisher
		topic string
	}{
		{&u.pubs.status, statusTopic(cfg.ID)},
		{&u.pubs.gps, gpsTopic(cfg.ID)},
		{&u.pubs.battery, batteryTopic(cfg.ID)},
		{&u.pubs.health, healthTopic(cfg.ID)},
	} {
		pub, err := w.Bus.Advertise(t.topic, cfg.ID)
		if err != nil {
			return nil, err
		}
		*t.pub = pub
	}
	return u, nil
}

// UAV returns the vehicle with the given id.
func (w *World) UAV(id string) (*UAV, error) {
	u, ok := w.uavs[id]
	if !ok {
		return nil, fmt.Errorf("uavsim: unknown UAV %q", id)
	}
	return u, nil
}

// UAVs returns the fleet in deterministic id order.
func (w *World) UAVs() []*UAV {
	out := make([]*UAV, len(w.seq))
	copy(out, w.seq)
	return out
}

// Fault is a scheduled fault injection.
type Fault struct {
	At    float64 // simulation time, seconds
	UAV   string
	Apply func(u *UAV)
	// Name describes the fault for logs.
	Name string
}

// ScheduleFault queues a fault for injection at its At time.
func (w *World) ScheduleFault(f Fault) error {
	if f.Apply == nil {
		return errors.New("uavsim: fault without Apply")
	}
	if _, ok := w.uavs[f.UAV]; !ok {
		return fmt.Errorf("uavsim: fault targets unknown UAV %q", f.UAV)
	}
	w.faults = append(w.faults, f)
	sort.SliceStable(w.faults, func(i, j int) bool { return w.faults[i].At < w.faults[j].At })
	return nil
}

// BatteryCollapseFault reproduces the §V-A event: at time at, the
// battery temperature spikes and charge collapses to chargePct.
func BatteryCollapseFault(at float64, uav string, tempC, chargePct float64) Fault {
	return Fault{
		At:   at,
		UAV:  uav,
		Name: fmt.Sprintf("battery-collapse(%.0f%%@%.0fC)", chargePct, tempC),
		Apply: func(u *UAV) {
			u.Battery.InjectThermalFault(tempC, chargePct)
		},
	}
}

// GPSSpoofFault starts a spoofing attack drifting the victim's believed
// position along bearingDeg at driftMS m/s.
func GPSSpoofFault(at float64, uav string, bearingDeg, driftMS float64) Fault {
	return Fault{
		At:   at,
		UAV:  uav,
		Name: "gps-spoof",
		Apply: func(u *UAV) {
			u.GPS.StartSpoof(bearingDeg, driftMS)
		},
	}
}

// RotorFailureFault fails rotor idx at time at.
func RotorFailureFault(at float64, uav string, idx int) Fault {
	return Fault{
		At:   at,
		UAV:  uav,
		Name: fmt.Sprintf("rotor-%d-failure", idx),
		Apply: func(u *UAV) {
			_ = u.FailRotor(idx)
		},
	}
}

// CommsFailureFault severs the C2 link at time at.
func CommsFailureFault(at float64, uav string) Fault {
	return Fault{
		At:   at,
		UAV:  uav,
		Name: "comms-failure",
		Apply: func(u *UAV) {
			u.Comms.OK = false
		},
	}
}

// CameraFailureFault fails the camera at time at.
func CameraFailureFault(at float64, uav string) Fault {
	return Fault{
		At:   at,
		UAV:  uav,
		Name: "camera-failure",
		Apply: func(u *UAV) {
			u.Camera.Fail()
		},
	}
}

// Step advances the whole world by dt seconds: injects due faults,
// steps every vehicle in id order, then publishes telemetry. It is the
// serial composition of the BeginStep / StepRange / FinishStep phases
// a cell-sharded caller drives itself.
func (w *World) Step(dt float64) error {
	now, err := w.BeginStep(dt)
	if err != nil {
		return err
	}
	w.StepRange(0, len(w.seq), dt)
	w.FinishStep(now)
	return nil
}

// Run advances the world to time end in dt increments.
func (w *World) Run(end, dt float64) error {
	for w.Clock.Now() < end {
		step := dt
		if rem := end - w.Clock.Now(); rem < step {
			step = rem
		}
		if err := w.Step(step); err != nil {
			return err
		}
	}
	return nil
}

// stepGust advances the Gauss–Markov gust process: exponential decay
// toward zero plus white driving noise, giving realistically
// correlated turbulence around the mean wind.
func (w *World) stepGust(dt float64) {
	if w.GustSigmaMS <= 0 {
		w.gust = geo.ENU{}
		return
	}
	tau := w.GustTauS
	if tau <= 0 {
		tau = 30
	}
	rng := w.Clock.Stream("world/gust")
	decay := math.Exp(-dt / tau)
	// Discrete Gauss–Markov driving noise keeps the stationary
	// standard deviation at GustSigmaMS.
	drive := w.GustSigmaMS * math.Sqrt(1-decay*decay)
	w.gust.East = w.gust.East*decay + drive*rng.NormFloat64()
	w.gust.North = w.gust.North*decay + drive*rng.NormFloat64()
}

// CurrentWind returns the instantaneous wind (mean + gust).
func (w *World) CurrentWind() geo.ENU { return w.Wind.Add(w.gust) }

func (w *World) publishTelemetry(now float64) {
	for _, u := range w.seq {
		id := u.cfg.ID
		pubs := &u.pubs

		// A severed C2 link (jamming) carries no telemetry: downstream
		// observers see the topics go silent, which is exactly the
		// signature the IDS link-silence rule detects.
		if !u.Comms.OK {
			continue
		}

		// Status (IMU/odometry-grade) goes out before the GPS fix so
		// consumers correlating the two streams see same-tick data.
		w.countPublish(pubs.status.Publish(now, StatusReport{
			UAV:       id,
			Mode:      u.Mode(),
			Position:  u.TruePosition(),
			AltitudeM: u.AltitudeM(),
			SpeedMS:   u.SpeedMS(),
			HeadingD:  u.HeadingDeg(),
			Waypoints: len(u.wps),
			Stamp:     now,
		}))
		// A lost fix is still published, with Quality=GPSLost, so
		// downstream monitors observe the dropout.
		fix, _ := u.GPS.Fix(u.TruePosition(), u.AltitudeM(), id, now)
		w.countPublish(pubs.gps.Publish(now, fix))
		w.countPublish(pubs.battery.Publish(now, u.Battery.State(id, now)))
		w.countPublish(pubs.health.Publish(now, HealthState{
			UAV:          id,
			Rotors:       u.RotorStates(),
			FailedRotors: u.FailedRotors(),
			CameraOK:     u.Camera.OK,
			CommsOK:      u.Comms.OK,
			Stamp:        now,
		}))
	}
}

// countPublish records a refused telemetry publish instead of
// discarding the error.
func (w *World) countPublish(err error) {
	if err != nil {
		w.telemetryDrops.Add(1)
	}
}
