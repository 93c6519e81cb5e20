package sar

import (
	"errors"
	"slices"
	"sort"

	"sesame/internal/geo"
)

// This file serializes the mission plan and the availability tracker
// for the flight recorder (internal/flightrec). Both types are pure
// data behind unexported fields, so their states restore exactly.

// TaskState is one UAV's serialized assignment.
type TaskState struct {
	UAV  string       `json:"uav"`
	ID   int          `json:"id"`
	Area geo.Polygon  `json:"area"`
	Path []geo.LatLng `json:"path"`
}

// MissionState is the serialized mission plan, tasks sorted by UAV id.
type MissionState struct {
	Area  geo.Polygon `json:"area"`
	Tasks []TaskState `json:"tasks"`
}

// State exports the mission plan.
func (m *Mission) State() MissionState {
	s := MissionState{Area: append(geo.Polygon(nil), m.Area...)}
	for uav, t := range m.Assignments {
		s.Tasks = append(s.Tasks, TaskState{
			UAV:  uav,
			ID:   t.ID,
			Area: append(geo.Polygon(nil), t.Area...),
			Path: append([]geo.LatLng(nil), t.Path...),
		})
	}
	sort.Slice(s.Tasks, func(i, j int) bool { return s.Tasks[i].UAV < s.Tasks[j].UAV })
	return s
}

// RestoreMission rebuilds a mission from its serialized plan.
func RestoreMission(s MissionState) *Mission {
	m := &Mission{
		Area:        append(geo.Polygon(nil), s.Area...),
		Assignments: make(map[string]*Task, len(s.Tasks)),
	}
	for _, t := range s.Tasks {
		m.Assignments[t.UAV] = &Task{
			ID:   t.ID,
			Area: append(geo.Polygon(nil), t.Area...),
			Path: append([]geo.LatLng(nil), t.Path...),
		}
	}
	return m
}

// AvailabilityState is the tracker's serialized bookkeeping.
type AvailabilityState struct {
	Start float64 `json:"start"`
	// UAVs is the tracked fleet, sorted.
	UAVs []string `json:"uavs"`
	// DownSince holds currently-down UAVs and when they went down.
	DownSince map[string]float64 `json:"down_since"`
	// DownTotal holds accumulated downtime per UAV.
	DownTotal map[string]float64 `json:"down_total"`
}

// State exports the tracker's bookkeeping.
func (tr *AvailabilityTracker) State() AvailabilityState {
	s := AvailabilityState{
		Start:     tr.start,
		UAVs:      slices.Clone(tr.fleet),
		DownSince: make(map[string]float64, len(tr.downSince)),
		DownTotal: make(map[string]float64, len(tr.downTotal)),
	}
	for k, v := range tr.downSince {
		s.DownSince[k] = v
	}
	for k, v := range tr.downTotal {
		s.DownTotal[k] = v
	}
	return s
}

// RestoreAvailabilityTracker rebuilds a tracker from its serialized
// bookkeeping.
func RestoreAvailabilityTracker(s AvailabilityState) (*AvailabilityTracker, error) {
	if len(s.UAVs) == 0 {
		return nil, errors.New("sar: availability state tracks no UAVs")
	}
	tr := newAvailabilityTracker(s.Start, s.UAVs)
	for k, v := range s.DownSince {
		tr.downSince[k] = v
	}
	for k, v := range s.DownTotal {
		tr.downTotal[k] = v
	}
	return tr, nil
}
