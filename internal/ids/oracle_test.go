package ids

// Oracle is the string-keyed rule engine the IDS ran before its state
// moved into per-topic and per-vehicle tracks: six maps, each looked up
// by topic, UAV id or "type|uav" on every message. It is kept verbatim
// as the reference the differential tests (differential_test.go) hold
// the tracked IDS to. It publishes nothing and counts nothing.

import (
	"fmt"
	"sort"

	"sesame/internal/geo"
	"sesame/internal/rosbus"
	"sesame/internal/uavsim"
)

// Oracle is the reference rule engine. Attach it to a bus with
// bus.Tap(o.Inspect), or call Inspect directly.
type Oracle struct {
	cfg       Config
	alerts    []Alert
	arrival   map[string][]float64
	lastSeen  map[string]float64
	lastSweep float64
	lastGPS   map[string]uavsim.GPSFix
	lastOdo   map[string]geo.LatLng
	lastHit   map[string]float64
}

// NewOracle returns an empty reference engine; cfg is normalised the
// way New normalises it.
func NewOracle(cfg Config) *Oracle {
	if cfg.RateWindowS <= 0 {
		cfg.RateWindowS = 8
	}
	return &Oracle{
		cfg:      cfg,
		arrival:  make(map[string][]float64),
		lastSeen: make(map[string]float64),
		lastGPS:  make(map[string]uavsim.GPSFix),
		lastOdo:  make(map[string]geo.LatLng),
		lastHit:  make(map[string]float64),
	}
}

// Alerts returns a copy of the alerts raised so far.
func (o *Oracle) Alerts() []Alert { return append([]Alert(nil), o.alerts...) }

// State exports the engine's state in the IDS's checkpoint schema.
func (o *Oracle) State() State {
	s := State{
		Alerts:    append([]Alert(nil), o.alerts...),
		Arrival:   make(map[string][]float64, len(o.arrival)),
		LastSeen:  make(map[string]float64, len(o.lastSeen)),
		LastSweep: o.lastSweep,
		LastGPS:   make(map[string]uavsim.GPSFix, len(o.lastGPS)),
		LastOdo:   make(map[string]geo.LatLng, len(o.lastOdo)),
		LastHit:   make(map[string]float64, len(o.lastHit)),
	}
	for k, v := range o.arrival {
		s.Arrival[k] = append([]float64(nil), v...)
	}
	for k, v := range o.lastSeen {
		s.LastSeen[k] = v
	}
	for k, v := range o.lastGPS {
		s.LastGPS[k] = v
	}
	for k, v := range o.lastOdo {
		s.LastOdo[k] = v
	}
	for k, v := range o.lastHit {
		s.LastHit[k] = v
	}
	return s
}

// Inspect applies every rule to one message.
func (o *Oracle) Inspect(m rosbus.Message) {
	uav := uavOf(m.Topic)

	if allowed, checked := o.cfg.AllowedPublishers[m.Topic]; checked {
		ok := false
		for _, a := range allowed {
			if a == m.Publisher {
				ok = true
				break
			}
		}
		if !ok {
			o.raise(Alert{
				Type:   AlertUnauthorizedNode,
				UAV:    uav,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("publisher %q not in allow-list", m.Publisher),
				Stamp:  m.Stamp,
			})
		}
	}

	if o.cfg.MaxRateHz > 0 {
		window := o.arrival[m.Topic]
		cutoff := m.Stamp - o.cfg.RateWindowS
		keep := window[:0]
		for _, s := range window {
			if s >= cutoff {
				keep = append(keep, s)
			}
		}
		keep = append(keep, m.Stamp)
		o.arrival[m.Topic] = keep
		rate := float64(len(keep)) / o.cfg.RateWindowS
		if rate > o.cfg.MaxRateHz && len(keep) >= 4 {
			o.raise(Alert{
				Type:   AlertMessageInjection,
				UAV:    uav,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("rate %.2f Hz exceeds %.2f Hz budget", rate, o.cfg.MaxRateHz),
				Stamp:  m.Stamp,
			})
		}
	}

	if o.cfg.SilenceTimeoutS > 0 {
		if m.Stamp > o.lastSweep {
			o.lastSweep = m.Stamp
			var silent []string
			for topic, last := range o.lastSeen {
				if topic == m.Topic {
					continue
				}
				if m.Stamp-last > o.cfg.SilenceTimeoutS {
					silent = append(silent, topic)
				}
			}
			sort.Strings(silent)
			for _, topic := range silent {
				o.raise(Alert{
					Type:   AlertLinkSilence,
					UAV:    uavOf(topic),
					Topic:  topic,
					Detail: fmt.Sprintf("no traffic for %.0f s (timeout %.0f s)", m.Stamp-o.lastSeen[topic], o.cfg.SilenceTimeoutS),
					Stamp:  m.Stamp,
				})
				delete(o.lastSeen, topic)
			}
		}
		if m.Stamp > o.lastSeen[m.Topic] {
			o.lastSeen[m.Topic] = m.Stamp
		}
	}

	switch p := m.Payload.(type) {
	case uavsim.GPSFix:
		o.inspectGPS(m, p)
	case uavsim.StatusReport:
		o.lastOdo[p.UAV] = p.Position
	}
}

func (o *Oracle) inspectGPS(m rosbus.Message, fix uavsim.GPSFix) {
	if fix.Quality == uavsim.GPSLost {
		return
	}
	if prev, ok := o.lastGPS[fix.UAV]; ok && fix.Stamp > prev.Stamp {
		dt := fix.Stamp - prev.Stamp
		speed := geo.Haversine(prev.Position, fix.Position) / dt
		if o.cfg.MaxSpeedMS > 0 && speed > o.cfg.MaxSpeedMS {
			o.raise(Alert{
				Type:   AlertTeleport,
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("implied speed %.1f m/s exceeds %.1f m/s", speed, o.cfg.MaxSpeedMS),
				Stamp:  fix.Stamp,
			})
		}
	}
	o.lastGPS[fix.UAV] = fix

	if odo, ok := o.lastOdo[fix.UAV]; ok && o.cfg.GPSDivergenceM > 0 {
		div := geo.Haversine(fix.Position, odo)
		if div > o.cfg.GPSDivergenceM {
			o.raise(Alert{
				Type:   AlertGPSAnomaly,
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("GPS diverges %.1f m from odometry (bound %.1f m)", div, o.cfg.GPSDivergenceM),
				Stamp:  fix.Stamp,
			})
		}
	}
}

func (o *Oracle) raise(a Alert) {
	key := a.Type + "|" + a.UAV
	if last, ok := o.lastHit[key]; ok && a.Stamp-last < o.cfg.CooldownS {
		return
	}
	o.lastHit[key] = a.Stamp
	o.alerts = append(o.alerts, a)
}
