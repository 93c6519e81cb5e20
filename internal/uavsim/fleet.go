package uavsim

import (
	"errors"

	"sesame/internal/geo"
)

// This file is the struct-of-arrays fleet store and the split step API
// behind cell-sharded ticking. The per-tick physics reads and writes —
// position, altitude, speed, heading, flight mode, commanded altitude,
// battery pack — live in parallel slices indexed by each vehicle's
// dense fleet index, so a tick walks contiguous memory instead of
// pointer-chasing per-UAV structs. Cold state (waypoint lists, sensors,
// rotor flags, config) stays on the UAV struct.

// fleet holds the hot per-vehicle state as parallel slices. Slot i
// belongs to the i-th vehicle added to the world (UAV.idx).
type fleet struct {
	pos    []geo.ENU
	altM   []float64
	speed  []float64
	head   []float64
	mode   []FlightMode
	wpAltM []float64
	// cruise, climb and minSpd are the per-vehicle kinematic parameters
	// — heterogeneous fleets mix airframes, so the step kernel reads
	// them from the store instead of chasing each vehicle's config.
	// minSpd is the fixed-wing stall floor; 0 marks a hover-capable
	// airframe and selects the multirotor dynamics everywhere.
	cruise []float64
	climb  []float64
	minSpd []float64
	// batt stores the battery packs contiguously; each UAV.Battery
	// points into this slice and AddUAV re-pins the pointers whenever
	// an append reallocates the backing array.
	batt []Battery
}

// setMode routes every flight-mode write through one place so the
// world's airborne counter stays exact. The counter is atomic because
// cell-sharded physics may crash vehicles concurrently; increments and
// decrements commute, so the final count does not depend on the cell
// schedule.
func (u *UAV) setMode(m FlightMode) {
	old := u.world.fleet.mode[u.idx]
	if old == m {
		return
	}
	u.world.fleet.mode[u.idx] = m
	if wasAir, isAir := old.Airborne(), m.Airborne(); wasAir != isAir {
		if isAir {
			u.world.airborne.Add(1)
		} else {
			u.world.airborne.Add(-1)
		}
	}
}

// AirborneCount returns how many vehicles are currently in an airborne
// flight mode. It is maintained incrementally by the mode setter, so
// fleet-wide availability checks are O(1) instead of a scan.
func (w *World) AirborneCount() int { return int(w.airborne.Load()) }

// FleetSize returns the number of vehicles in the world.
func (w *World) FleetSize() int { return len(w.seq) }

// BeginStep opens a world step of dt seconds: clock events, due fault
// injection and the gust draw all run serially here, exactly as the
// head of the monolithic Step does. The returned now is the step's end
// time, to be passed to FinishStep after the vehicles have advanced.
func (w *World) BeginStep(dt float64) (float64, error) {
	if dt <= 0 {
		return 0, errors.New("uavsim: non-positive dt")
	}
	now := w.Clock.Now() + dt
	// Run any clock events scheduled before now (keeps user callbacks
	// in sync with vehicle stepping).
	w.Clock.RunUntil(now)

	for len(w.faults) > 0 && w.faults[0].At <= now {
		f := w.faults[0]
		w.faults = w.faults[1:]
		w.faultsFired++
		f.Apply(w.uavs[f.UAV])
	}
	w.stepGust(dt)
	return now, nil
}

// StepRange advances vehicles [lo, hi) of the sorted fleet order by dt
// seconds. Disjoint ranges may run concurrently between BeginStep and
// FinishStep: a vehicle's step touches only its own fleet slots, its
// own battery/GPS (each GPS draws from its own per-vehicle stream) and
// read-only shared inputs (wind, the projection), and the airborne
// counter it may bump is atomic. The per-vehicle outputs are therefore
// bit-identical however the ranges are scheduled.
func (w *World) StepRange(lo, hi int, dt float64) {
	for _, u := range w.seq[lo:hi] {
		u.step(dt)
	}
}

// FinishStep closes a world step: telemetry publishes serially in
// fleet order, preserving the bus delivery order downstream observers
// (IDS, staleness caches) depend on.
func (w *World) FinishStep(now float64) {
	w.publishTelemetry(now)
}
