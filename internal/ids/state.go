package ids

import (
	"slices"
	"strings"

	"sesame/internal/geo"
	"sesame/internal/uavsim"
)

// State is the IDS's serializable detection state for the flight
// recorder (internal/flightrec). The bus subscription, broker wiring
// and observability handles are rebuilt by New/Instrument; pending is
// transient within one inspect call and is always empty between ticks
// (checkpoints are only taken on a quiescent platform).
type State struct {
	Alerts    []Alert                  `json:"alerts"`
	Arrival   map[string][]float64     `json:"arrival"`
	LastSeen  map[string]float64       `json:"last_seen"`
	LastSweep float64                  `json:"last_sweep"`
	LastGPS   map[string]uavsim.GPSFix `json:"last_gps"`
	LastOdo   map[string]geo.LatLng    `json:"last_odo"`
	LastHit   map[string]float64       `json:"last_hit"`
}

// State exports the detection state keyed by topic, UAV id and
// "type|uav". Checkpoints and parked missions carry this schema, so it
// does not follow the tracks' layout.
func (d *IDS) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := State{
		Alerts:    append([]Alert(nil), d.alerts...),
		Arrival:   make(map[string][]float64),
		LastSeen:  make(map[string]float64),
		LastSweep: d.lastSweep,
		LastGPS:   make(map[string]uavsim.GPSFix),
		LastOdo:   make(map[string]geo.LatLng),
		LastHit:   make(map[string]float64),
	}
	for _, tt := range d.tracks {
		if tt.rated {
			s.Arrival[tt.topic] = append([]float64(nil), tt.arrival...)
		}
		if tt.live {
			s.LastSeen[tt.topic] = tt.lastSeen
		}
	}
	for uav, vt := range d.vehicles {
		if vt.hasGPS {
			s.LastGPS[uav] = vt.gps
		}
		if vt.hasOdo {
			s.LastOdo[uav] = vt.odo
		}
		for k, hit := range vt.hit {
			if hit {
				s.LastHit[alertTypes[k]+"|"+uav] = vt.lastHit[k]
			}
		}
	}
	return s
}

// Restore overwrites the detection state. Every State that State
// produced round-trips exactly; cooldown keys of unknown alert types
// are dropped, as no rule reads them.
func (d *IDS) Restore(s State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alerts = append(d.alerts[:0:0], s.Alerts...)
	d.pending = nil
	d.topics = make(map[string]*topicTrack, len(s.Arrival))
	d.vehicles = make(map[string]*vehicleTrack, len(s.LastGPS))
	d.tracks, d.silent = nil, nil
	d.lastSweep = s.LastSweep
	for k, v := range s.Arrival {
		tt := d.track(k)
		tt.arrival, tt.rated = append([]float64(nil), v...), true
	}
	for k, v := range s.LastSeen {
		tt := d.track(k)
		tt.lastSeen, tt.live = v, true
	}
	for k, v := range s.LastGPS {
		vt := d.vehicle(k)
		vt.gps, vt.hasGPS = v, true
	}
	for k, v := range s.LastOdo {
		vt := d.vehicle(k)
		vt.odo, vt.hasOdo = v, true
	}
	for k, v := range s.LastHit {
		typ, uav, _ := strings.Cut(k, "|")
		if kind := slices.Index(alertTypes[:], typ); kind >= 0 {
			vt := d.vehicle(uav)
			vt.lastHit[kind], vt.hit[kind] = v, true
		}
	}
}
