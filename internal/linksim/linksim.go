// Package linksim is a deterministic per-link fault layer for the
// in-process comms substitutes (rosbus, mqttlite). The paper's platform
// (§IV-A) runs over a real radio link between the vehicles and the
// ground station; linksim reproduces the failure modes of that link —
// message drop, delay, duplication, reordering and scheduled outage
// windows — the way FlyNetSim-style evaluation stacks put an explicit
// lossy network between UAV and GCS.
//
// Determinism contract: every stochastic draw comes from a per-link
// seeded simclock stream, draws happen in a fixed order per frame, and
// delayed frames are released through the clock's event queue. A run
// with the same seed and the same fault schedule is therefore
// bit-identical, the comms analogue of uavsim.ScheduleFault.
package linksim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"

	"sesame/internal/mqttlite"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

// ErrLinkDown is surfaced to publishers whose frame hit a rejecting
// outage window (a link that refuses traffic rather than eating it).
var ErrLinkDown = errors.New("linksim: link down")

// Profile sets the steady-state stochastic impairments of one link.
// The zero Profile is a perfect link. The JSON tags are the campaign
// sweep-spec serialization (omitempty keeps unimpaired axes out of
// spec dumps and manifests).
type Profile struct {
	DropProb    float64 `json:"drop_prob,omitempty"`    // P(frame silently lost)
	DupProb     float64 `json:"dup_prob,omitempty"`     // P(frame delivered twice)
	DelayProb   float64 `json:"delay_prob,omitempty"`   // P(frame queued and released later)
	DelayMinS   float64 `json:"delay_min_s,omitempty"`  // uniform delay window, seconds
	DelayMaxS   float64 `json:"delay_max_s,omitempty"`  //
	ReorderProb float64 `json:"reorder_prob,omitempty"` // P(frame held to swap with the next one)
	HoldMaxS    float64 `json:"hold_max_s,omitempty"`   // fail-safe release for held frames (default 1s)
}

// LinkStats counts one link's frame fates. The conservation invariant
// Offered + Duplicated == Delivered + Dropped + Rejected + Pending
// holds at every quiescent point (OutageDropped, Delayed and Reordered
// are sub-classifications, not invariant terms).
type LinkStats struct {
	Offered       uint64 `json:"offered"`
	Delivered     uint64 `json:"delivered"`
	Dropped       uint64 `json:"dropped"`
	OutageDropped uint64 `json:"outage_dropped"`
	Rejected      uint64 `json:"rejected"`
	Delayed       uint64 `json:"delayed"`
	Duplicated    uint64 `json:"duplicated"`
	Reordered     uint64 `json:"reordered"`
	Pending       uint64 `json:"pending"`
}

type outage struct {
	from, to float64
	reject   bool
}

// heldFrame is a frame parked for reordering; released is guarded by
// the layer mutex so the inline release and the fail-safe timer cannot
// both fire.
type heldFrame struct {
	deliver  func()
	released bool
}

// Link is one logical radio link (conventionally one per UAV node
// name). All methods are safe for concurrent use.
type Link struct {
	layer   *Layer
	name    string
	rng     *rand.Rand
	profile Profile
	outages []outage
	held    *heldFrame
	pending int
	stats   LinkStats
}

// Layer multiplexes links over a bus and/or broker. The zero value is
// not usable; call New.
type Layer struct {
	mu    sync.Mutex
	clock *simclock.Clock
	name  string
	links map[string]*Link
}

// New returns a fault layer drawing randomness from clock's streams.
// The layer name namespaces the RNG streams so two layers on one clock
// stay independent.
func New(clock *simclock.Clock, name string) *Layer {
	if name == "" {
		name = "default"
	}
	return &Layer{clock: clock, name: name, links: make(map[string]*Link)}
}

// Link returns the named link, creating a perfect one on first use.
func (l *Layer) Link(name string) *Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	lk, ok := l.links[name]
	if !ok {
		lk = &Link{
			layer: l,
			name:  name,
			rng:   l.clock.Stream("linksim/" + l.name + "/" + name),
		}
		l.links[name] = lk
	}
	return lk
}

// lookup returns the named link or nil, without creating it.
func (l *Layer) lookup(name string) *Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.links[name]
}

// AttachBus routes every bus publication through the link named after
// its publisher node. Publishers without a configured link pass through
// untouched, so only explicitly faulted nodes see impairments.
func (l *Layer) AttachBus(bus *rosbus.Bus) {
	bus.SetFilter(func(msg rosbus.Message) (bool, error) {
		lk := l.lookup(msg.Publisher)
		if lk == nil {
			return true, nil
		}
		return lk.transit(func() { _ = bus.Deliver(msg) })
	})
}

// AttachBroker routes broker publications through the link named by
// route(topic); an empty route result passes the message through. This
// is how the IDS alert path (alerts/ids/<uav>) shares a UAV's link.
func (l *Layer) AttachBroker(b *mqttlite.Broker, route func(topic string) string) {
	b.SetFilter(func(topic string, payload []byte) (bool, error) {
		name := route(topic)
		if name == "" {
			return true, nil
		}
		lk := l.lookup(name)
		if lk == nil {
			return true, nil
		}
		p := append([]byte(nil), payload...)
		return lk.transit(func() { _ = b.Deliver(topic, p, false) })
	})
}

// Stats returns a snapshot of every link's counters, keyed by link name.
func (l *Layer) Stats() map[string]LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]LinkStats, len(l.links))
	for name, lk := range l.links {
		s := lk.stats
		s.Pending = uint64(lk.pending)
		out[name] = s
	}
	return out
}

// Links returns the sorted names of configured links.
func (l *Layer) Links() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.links))
	for name := range l.links {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetProfile replaces the link's impairment profile.
func (lk *Link) SetProfile(p Profile) {
	if p.ReorderProb > 0 && p.HoldMaxS <= 0 {
		p.HoldMaxS = 1
	}
	if p.DelayMaxS < p.DelayMinS {
		p.DelayMaxS = p.DelayMinS
	}
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.profile = p
}

// AddOutage schedules a silent-loss window [from, to): frames offered
// inside it vanish without an error (radio silence).
func (lk *Link) AddOutage(from, to float64) {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.outages = append(lk.outages, outage{from: from, to: to})
}

// AddRejectOutage schedules a rejecting window [from, to): frames
// offered inside it fail with ErrLinkDown, so publishers can react.
func (lk *Link) AddRejectOutage(from, to float64) {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.outages = append(lk.outages, outage{from: from, to: to, reject: true})
}

// DownAt takes the link down permanently (silent loss) from time t.
func (lk *Link) DownAt(t float64) {
	lk.AddOutage(t, math.Inf(1))
}

// DownNow reports whether the link is inside any outage window at time
// now.
func (lk *Link) DownNow(now float64) bool {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	down, _ := lk.outageAt(now)
	return down
}

// Stats returns a snapshot of the link's counters.
func (lk *Link) Stats() LinkStats {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	s := lk.stats
	s.Pending = uint64(lk.pending)
	return s
}

// Pending returns the number of frames queued (delayed or held).
func (lk *Link) Pending() int {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	return lk.pending
}

// outageAt must be called with the layer mutex held.
func (lk *Link) outageAt(now float64) (down, reject bool) {
	for _, o := range lk.outages {
		if now >= o.from && now < o.to {
			if o.reject {
				return true, true
			}
			down = true
		}
	}
	return down, false
}

// transit decides one frame's fate. deliver must re-inject the frame
// past the filter (bus.Deliver / broker.Deliver). The return values
// follow the Filter contract: forward=true hands delivery back to the
// caller; forward=false means the frame was consumed here (dropped,
// queued, or already delivered via deliver).
//
// Deliveries always happen outside the layer mutex: deliver re-enters
// bus handlers, which may publish alerts through a broker whose filter
// takes this same mutex.
func (lk *Link) transit(deliver func()) (bool, error) {
	l := lk.layer
	l.mu.Lock()
	lk.stats.Offered++
	now := l.clock.Now()

	if down, reject := lk.outageAt(now); down {
		if reject {
			lk.stats.Rejected++
			l.mu.Unlock()
			return false, ErrLinkDown
		}
		lk.stats.Dropped++
		lk.stats.OutageDropped++
		l.mu.Unlock()
		return false, nil
	}

	p := lk.profile
	// Fixed per-frame draw order (determinism): drop, then — for frames
	// that survive — reorder, dup, delay, delay amount. Early exits skip
	// later draws, which is fine: the draw sequence is a pure function
	// of the frame sequence and prior outcomes.
	if p.DropProb > 0 && lk.rng.Float64() < p.DropProb {
		lk.stats.Dropped++
		l.mu.Unlock()
		return false, nil
	}

	if p.ReorderProb > 0 && lk.held == nil && lk.rng.Float64() < p.ReorderProb {
		hf := &heldFrame{deliver: deliver}
		lk.held = hf
		lk.pending++
		lk.stats.Reordered++
		holdMax := p.HoldMaxS
		l.clock.After(holdMax, "linksim/"+l.name+"/"+lk.name+"/hold", func() {
			l.mu.Lock()
			if hf.released {
				l.mu.Unlock()
				return
			}
			hf.released = true
			if lk.held == hf {
				lk.held = nil
			}
			lk.pending--
			lk.stats.Delivered++
			l.mu.Unlock()
			hf.deliver()
		})
		l.mu.Unlock()
		return false, nil
	}

	dup := p.DupProb > 0 && lk.rng.Float64() < p.DupProb
	delayed := p.DelayProb > 0 && lk.rng.Float64() < p.DelayProb
	if delayed {
		amount := p.DelayMinS
		if p.DelayMaxS > p.DelayMinS {
			amount += lk.rng.Float64() * (p.DelayMaxS - p.DelayMinS)
		}
		copies := 1
		lk.stats.Delayed++
		if dup {
			copies = 2
			lk.stats.Duplicated++
		}
		lk.pending += copies
		l.clock.After(amount, "linksim/"+l.name+"/"+lk.name+"/delay", func() {
			l.mu.Lock()
			lk.pending -= copies
			lk.stats.Delivered += uint64(copies)
			l.mu.Unlock()
			for i := 0; i < copies; i++ {
				deliver()
			}
		})
		l.mu.Unlock()
		return false, nil
	}

	// Inline path. Releasing a held frame here is what produces the
	// reorder: the held (earlier) frame lands after this (later) one.
	var release *heldFrame
	if lk.held != nil && !lk.held.released {
		release = lk.held
		release.released = true
		lk.held = nil
		lk.pending--
		lk.stats.Delivered++ // the released frame
	}
	lk.stats.Delivered++ // this frame
	if dup {
		lk.stats.Duplicated++
		lk.stats.Delivered++
	}
	l.mu.Unlock()

	if release == nil && !dup {
		// Nothing extra to interleave: let the caller deliver.
		return true, nil
	}
	deliver()
	if release != nil {
		release.deliver()
	}
	if dup {
		deliver()
	}
	return false, nil
}
