// Package ids implements the intrusion detection system of the
// Security EDDI architecture (paper §III-B). Where the paper's IDS
// inspects ROS network traffic, this one taps the rosbus middleware —
// the same vantage point — and applies detection rules to the message
// stream:
//
//   - unauthorized-node: a publisher name outside the topic's allow-list;
//   - message-injection: per-topic message rate above the declared
//     telemetry rate (a second publisher racing the legitimate one);
//   - gps-anomaly: sustained divergence between the GPS position feed
//     and the IMU/odometry track reported on the status topic — the
//     signature of GPS/position spoofing;
//   - teleport: consecutive GPS fixes implying a physically impossible
//     speed.
//
// Alerts are JSON-encoded and published to the mqttlite broker under
// alerts/ids/<uav>, where the Security EDDI scripts subscribe.
package ids

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sesame/internal/geo"
	"sesame/internal/mqttlite"
	"sesame/internal/obsv"
	"sesame/internal/rosbus"
	"sesame/internal/uavsim"
)

// Alert types.
const (
	AlertUnauthorizedNode = "unauthorized-node"
	AlertMessageInjection = "message-injection"
	AlertGPSAnomaly       = "gps-anomaly"
	AlertTeleport         = "teleport"
	AlertLinkSilence      = "link-silence"
)

// Alert is one IDS finding.
type Alert struct {
	Type   string  `json:"type"`
	UAV    string  `json:"uav"`
	Topic  string  `json:"topic"`
	Detail string  `json:"detail"`
	Stamp  float64 `json:"stamp"`
}

// AlertTopic returns the broker topic alerts for uav are published on.
func AlertTopic(uav string) string { return "alerts/ids/" + uav }

// Config tunes the rule engine.
type Config struct {
	// AllowedPublishers maps a bus topic to the node names allowed to
	// publish on it. Topics absent from the map are unchecked.
	AllowedPublishers map[string][]string
	// MaxRateHz is the per-topic message budget; rates above it raise
	// message-injection. Zero disables the rule.
	MaxRateHz float64
	// RateWindowS is the sliding window for rate estimation.
	RateWindowS float64
	// GPSDivergenceM raises gps-anomaly when the GPS track drifts this
	// far from the odometry track.
	GPSDivergenceM float64
	// MaxSpeedMS raises teleport when consecutive fixes imply a faster
	// ground speed.
	MaxSpeedMS float64
	// Cooldown suppresses duplicate alerts of the same (type, uav)
	// within this many seconds.
	CooldownS float64
	// SilenceTimeoutS raises link-silence when a previously active
	// topic stops carrying traffic for this long (jamming signature).
	// Zero disables the rule. Silence is checked lazily whenever any
	// other message arrives, mirroring a traffic-driven network IDS.
	SilenceTimeoutS float64
}

// DefaultConfig matches the experiment scenarios: 1 Hz telemetry,
// 10 m divergence bound, 30 m/s speed bound.
func DefaultConfig() Config {
	return Config{
		MaxRateHz:       1.5,
		RateWindowS:     8,
		GPSDivergenceM:  10,
		MaxSpeedMS:      30,
		CooldownS:       5,
		SilenceTimeoutS: 12,
	}
}

// alertTypes indexes the alert types for the per-vehicle cooldown
// stamps; the order is fixed, not significant.
var alertTypes = [...]string{
	AlertUnauthorizedNode, AlertMessageInjection, AlertGPSAnomaly,
	AlertTeleport, AlertLinkSilence,
}

// Indices into alertTypes.
const (
	kindUnauthorized = iota
	kindInjection
	kindGPSAnomaly
	kindTeleport
	kindSilence
)

// topicTrack is one topic's detection state, resolved on the topic's
// first message so every later message costs one map lookup.
type topicTrack struct {
	topic string
	// uav is parsed from the topic ("" off the /uav/ tree) and vehicle
	// is its track.
	uav     string
	vehicle *vehicleTrack
	// arrival is the rate rule's sliding window; rated marks a window
	// the rule has opened.
	arrival []float64
	rated   bool
	// lastSeen is the newest stamp; live marks a topic the silence rule
	// watches (cleared when it raises, re-armed by fresh traffic).
	lastSeen float64
	live     bool
}

// vehicleTrack is one UAV's telemetry and cooldown state, keyed by the
// UAV an alert or payload names.
type vehicleTrack struct {
	gps    uavsim.GPSFix
	hasGPS bool
	odo    geo.LatLng
	hasOdo bool
	// lastHit[k] is the stamp of the last raised alert of alertTypes[k];
	// hit[k] marks that one was raised.
	lastHit [len(alertTypes)]float64
	hit     [len(alertTypes)]bool
}

// IDS is the live detector. Create with New; detach with Close.
type IDS struct {
	cfg    Config
	broker *mqttlite.Broker
	cancel func()

	mu        sync.Mutex
	alerts    []Alert
	pending   []Alert
	topics    map[string]*topicTrack
	vehicles  map[string]*vehicleTrack
	tracks    []*topicTrack // every topic track, in creation order
	silent    []*topicTrack // silence-sweep scratch
	lastSweep float64       // newest stamp the silence sweep ran at

	// Observability mirrors (nil when uninstrumented; all nil-safe).
	// The per-rule evaluation counters are resolved once at Instrument:
	// inspect runs on every bus message, so the hot path must not pay a
	// labeled-series lookup per rule.
	mEvalAllow    *obsv.Counter
	mEvalRate     *obsv.Counter
	mEvalSilence  *obsv.Counter
	mEvalTeleport *obsv.Counter
	mEvalGPS      *obsv.Counter
	mAlerts       *obsv.CounterVec
	mSuppressed   *obsv.Counter
}

// New attaches the IDS to the bus and starts publishing alerts to the
// broker.
func New(bus *rosbus.Bus, broker *mqttlite.Broker, cfg Config) (*IDS, error) {
	if bus == nil || broker == nil {
		return nil, errors.New("ids: nil bus or broker")
	}
	if cfg.RateWindowS <= 0 {
		cfg.RateWindowS = 8
	}
	d := &IDS{
		cfg:      cfg,
		broker:   broker,
		topics:   make(map[string]*topicTrack),
		vehicles: make(map[string]*vehicleTrack),
	}
	cancel, err := bus.Tap(d.inspect)
	if err != nil {
		return nil, err
	}
	d.cancel = cancel
	return d, nil
}

// track returns the topic's track, creating it on first use. Callers
// hold d.mu.
func (d *IDS) track(topic string) *topicTrack {
	if tt, ok := d.topics[topic]; ok {
		return tt
	}
	uav := uavOf(topic)
	tt := &topicTrack{topic: topic, uav: uav, vehicle: d.vehicle(uav)}
	d.topics[topic] = tt
	d.tracks = append(d.tracks, tt)
	return tt
}

// vehicleOf returns the track of the UAV a payload on tt names: tt's
// own, or a lookup for another. Callers hold d.mu.
func (d *IDS) vehicleOf(tt *topicTrack, uav string) *vehicleTrack {
	if uav == tt.uav {
		return tt.vehicle
	}
	return d.vehicle(uav)
}

// vehicle returns the UAV's track, creating it on first use. Callers
// hold d.mu.
func (d *IDS) vehicle(uav string) *vehicleTrack {
	vt, ok := d.vehicles[uav]
	if !ok {
		vt = &vehicleTrack{}
		d.vehicles[uav] = vt
	}
	return vt
}

// Instrument mirrors rule evaluations and alert emissions into reg. A
// nil registry leaves the IDS uninstrumented (nil handles are no-ops).
func (d *IDS) Instrument(reg *obsv.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	evals := reg.CounterVec("sesame_ids_rule_evaluations_total",
		"Detection-rule evaluations, by rule.", "rule")
	d.mEvalAllow = evals.With("allow-list")
	d.mEvalRate = evals.With("rate")
	d.mEvalSilence = evals.With("silence")
	d.mEvalTeleport = evals.With("teleport")
	d.mEvalGPS = evals.With("gps-divergence")
	d.mAlerts = reg.CounterVec("sesame_ids_alerts_total",
		"Alerts raised (post-cooldown), by type.", "type")
	d.mSuppressed = reg.Counter("sesame_ids_alerts_suppressed_total",
		"Alerts suppressed by the per-(type,uav) cooldown.")
}

// Close detaches the IDS from the bus.
func (d *IDS) Close() {
	if d.cancel != nil {
		d.cancel()
		d.cancel = nil
	}
}

// Alerts returns a copy of all alerts raised so far.
func (d *IDS) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Alert(nil), d.alerts...)
}

// uavOf extracts the UAV id from a "/uav/<id>/<kind>" topic. It runs
// on every bus message, so it parses in place rather than splitting
// (the Split allocation dominated large-fleet tick profiles).
func uavOf(topic string) string {
	i := strings.IndexByte(topic, '/')
	if i < 0 {
		return ""
	}
	rest := topic[i+1:]
	if !strings.HasPrefix(rest, "uav/") {
		return ""
	}
	id := rest[len("uav/"):]
	if j := strings.IndexByte(id, '/'); j >= 0 {
		id = id[:j]
	}
	return id
}

// inspect is the bus tap. Alerts are accumulated under the lock and
// published to the broker after it is released, so broker handlers may
// freely publish back onto the bus without deadlocking the tap.
func (d *IDS) inspect(m rosbus.Message) {
	d.mu.Lock()
	d.pending = d.pending[:0]
	tt := d.track(m.Topic)

	// Rule 1: publisher allow-list.
	if len(d.cfg.AllowedPublishers) > 0 {
		if allowed, checked := d.cfg.AllowedPublishers[m.Topic]; checked {
			d.mEvalAllow.Inc()
			if !slices.Contains(allowed, m.Publisher) {
				d.raise(tt.vehicle, kindUnauthorized, Alert{
					UAV:    tt.uav,
					Topic:  m.Topic,
					Detail: fmt.Sprintf("publisher %q not in allow-list", m.Publisher),
					Stamp:  m.Stamp,
				})
			}
		}
	}

	// Rule 2: rate anomaly.
	if d.cfg.MaxRateHz > 0 {
		d.mEvalRate.Inc()
		cutoff := m.Stamp - d.cfg.RateWindowS
		keep := tt.arrival[:0]
		for _, s := range tt.arrival {
			if s >= cutoff {
				keep = append(keep, s)
			}
		}
		keep = append(keep, m.Stamp)
		tt.arrival, tt.rated = keep, true
		rate := float64(len(keep)) / d.cfg.RateWindowS
		if rate > d.cfg.MaxRateHz && len(keep) >= 4 {
			d.raise(tt.vehicle, kindInjection, Alert{
				UAV:    tt.uav,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("rate %.2f Hz exceeds %.2f Hz budget", rate, d.cfg.MaxRateHz),
				Stamp:  m.Stamp,
			})
		}
	}

	// Rule: link silence. Lazily scan tracked topics whenever traffic
	// arrives; a topic quiet past the timeout looks like jamming. All
	// messages of one simulation step carry the same stamp, and within a
	// stamp no tracked entry can newly cross the timeout, so one sweep
	// per distinct stamp raises exactly the alerts a per-message sweep
	// would — without the O(topics) scan on every message, which made
	// each simulation step quadratic in fleet size.
	if d.cfg.SilenceTimeoutS > 0 {
		if m.Stamp > d.lastSweep {
			d.lastSweep = m.Stamp
			d.mEvalSilence.Inc()
			// Collect expired topics first and raise in topic order: a
			// fleet-wide outage silences several topics at the same stamp,
			// and the downstream security events are digested.
			d.silent = d.silent[:0]
			for _, st := range d.tracks {
				if st.live && st != tt && m.Stamp-st.lastSeen > d.cfg.SilenceTimeoutS {
					d.silent = append(d.silent, st)
				}
			}
			slices.SortFunc(d.silent, func(a, b *topicTrack) int { return strings.Compare(a.topic, b.topic) })
			for _, st := range d.silent {
				d.raise(st.vehicle, kindSilence, Alert{
					UAV:    st.uav,
					Topic:  st.topic,
					Detail: fmt.Sprintf("no traffic for %.0f s (timeout %.0f s)", m.Stamp-st.lastSeen, d.cfg.SilenceTimeoutS),
					Stamp:  m.Stamp,
				})
				// Re-arm only after fresh traffic.
				st.lastSeen, st.live = 0, false
			}
		}
		if m.Stamp > tt.lastSeen {
			tt.lastSeen, tt.live = m.Stamp, true
		}
	}

	// Rules 3 & 4 consume typed telemetry, keyed by the UAV the payload
	// names (normally the topic's own).
	switch p := m.Payload.(type) {
	case uavsim.GPSFix:
		d.inspectGPS(m, p, d.vehicleOf(tt, p.UAV))
	case uavsim.StatusReport:
		vt := d.vehicleOf(tt, p.UAV)
		vt.odo, vt.hasOdo = p.Position, true
	}

	toPublish := append([]Alert(nil), d.pending...)
	d.mu.Unlock()
	for _, a := range toPublish {
		payload, err := json.Marshal(a)
		if err != nil {
			continue
		}
		topic := AlertTopic(a.UAV)
		if a.UAV == "" {
			topic = "alerts/ids/unknown"
		}
		_ = d.broker.Publish(topic, payload, false)
	}
}

func (d *IDS) inspectGPS(m rosbus.Message, fix uavsim.GPSFix, vt *vehicleTrack) {
	if fix.Quality == uavsim.GPSLost {
		return
	}
	// Teleport: implied speed between consecutive fixes.
	if prev := vt.gps; vt.hasGPS && fix.Stamp > prev.Stamp {
		d.mEvalTeleport.Inc()
		dt := fix.Stamp - prev.Stamp
		speed := geo.Haversine(prev.Position, fix.Position) / dt
		if d.cfg.MaxSpeedMS > 0 && speed > d.cfg.MaxSpeedMS {
			d.raise(vt, kindTeleport, Alert{
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("implied speed %.1f m/s exceeds %.1f m/s", speed, d.cfg.MaxSpeedMS),
				Stamp:  fix.Stamp,
			})
		}
	}
	vt.gps, vt.hasGPS = fix, true

	// GPS/odometry divergence.
	if d.cfg.GPSDivergenceM > 0 && vt.hasOdo {
		d.mEvalGPS.Inc()
		div := geo.Haversine(fix.Position, vt.odo)
		if div > d.cfg.GPSDivergenceM {
			d.raise(vt, kindGPSAnomaly, Alert{
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("GPS diverges %.1f m from odometry (bound %.1f m)", div, d.cfg.GPSDivergenceM),
				Stamp:  fix.Stamp,
			})
		}
	}
}

// raise records an alert of type alertTypes[kind] and queues it for
// publication, respecting the cooldown. vt is the track of a.UAV.
// Callers hold d.mu.
func (d *IDS) raise(vt *vehicleTrack, kind int, a Alert) {
	if vt.hit[kind] && a.Stamp-vt.lastHit[kind] < d.cfg.CooldownS {
		d.mSuppressed.Inc()
		return
	}
	vt.lastHit[kind], vt.hit[kind] = a.Stamp, true
	a.Type = alertTypes[kind]
	d.mAlerts.With(a.Type).Inc()
	d.alerts = append(d.alerts, a)
	d.pending = append(d.pending, a)
}
