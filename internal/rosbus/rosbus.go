// Package rosbus is an in-process publish/subscribe middleware that
// stands in for ROS Noetic in the paper's architecture (Figs. 2 and 3).
// It reproduces the property that makes the §V-C attack possible: like
// stock ROS, the bus does not authenticate publishers, so any node that
// can reach the bus may advertise on any topic and inject falsified
// messages. The IDS taps the bus the way a network IDS taps ROS
// traffic.
//
// Delivery is synchronous and in registration order, which keeps
// simulation runs deterministic.
package rosbus

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"sesame/internal/obsv"
)

// Message is one bus datagram. Payloads are domain structs defined by
// the publishing subsystem (e.g. GPSFix, BatteryState).
type Message struct {
	Topic     string
	Publisher string  // advertised node name; NOT authenticated
	Seq       uint64  // per-topic sequence number assigned by the bus
	Stamp     float64 // simulation time in seconds, set by the publisher
	Payload   interface{}
}

// Handler consumes messages delivered to a subscription.
type Handler func(Message)

// Subscription identifies an active subscription; use Bus.Unsubscribe
// to cancel it.
type Subscription struct {
	topic string
	id    int
}

// ErrDepthExceeded is returned when the publish-from-handler recursion
// guard trips; match it with errors.Is.
var ErrDepthExceeded = errors.New("rosbus: publish depth exceeded")

// Filter inspects every message accepted from a publisher before it is
// delivered. Returning forward=false consumes the message: the bus does
// not deliver it, and the filter owns its fate (it may call Deliver
// later, once, several times, or never — the hook a lossy-link layer
// needs). A non-nil error is additionally surfaced to the publisher,
// which models a link that rejects frames rather than eating them.
type Filter func(Message) (forward bool, err error)

// Stats is a point-in-time snapshot of bus-wide counters.
type Stats struct {
	// Published counts messages accepted from publishers (a sequence
	// number was assigned), whether or not they were delivered.
	Published uint64
	// Delivered counts messages dispatched to subscribers and taps,
	// including filter redeliveries via Deliver.
	Delivered uint64
	// FilterConsumed counts messages a filter kept from synchronous
	// delivery (dropped, delayed or rejected by the link layer).
	FilterConsumed uint64
	// DepthExceeded counts publishes refused by the recursion guard.
	DepthExceeded uint64
}

// Bus is the topic registry and router (the roscore equivalent).
// The zero value is not usable; call NewBus.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topicState
	// taps are the bus-wide handlers, by id.
	taps   []entry
	nextID int
	filter Filter
	// depth guards against unbounded publish-from-handler recursion.
	depth int
	// stats
	delivered      uint64
	filterConsumed uint64
	depthExceeded  uint64
	// Observability mirrors (nil when uninstrumented; all nil-safe).
	mPublished     *obsv.CounterVec
	mDelivered     *obsv.Counter
	mConsumed      *obsv.Counter
	mDepthExceeded *obsv.Counter
}

// entry is one registered handler. Subscriptions and taps draw their
// ids from one counter, so a slice appended in registration order
// stays sorted by id.
type entry struct {
	id int
	h  Handler
}

type topicState struct {
	seq uint64
	// subs are the topic's subscriptions, by id.
	subs []entry
	// handlers is the delivery snapshot: subscribers by id, then taps
	// by id. Every change builds a fresh slice and none is written in
	// place, so a dispatch that read the old slice under the lock keeps
	// calling exactly the handlers registered when it started.
	handlers []Handler
	// stats
	published uint64
	// mPublished caches this topic's labeled counter so the publish
	// hot path never pays a series lookup (nil when uninstrumented).
	mPublished *obsv.Counter
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*topicState)}
}

// Instrument mirrors the bus counters into reg. A nil registry leaves
// the bus uninstrumented (every mirror stays a no-op nil handle).
func (b *Bus) Instrument(reg *obsv.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mPublished = reg.CounterVec("sesame_rosbus_published_total",
		"Messages accepted from publishers, by topic.", "topic")
	for topic, ts := range b.topics {
		ts.mPublished = b.mPublished.With(topic)
	}
	b.mDelivered = reg.Counter("sesame_rosbus_delivered_total",
		"Messages dispatched to subscribers and taps.")
	b.mConsumed = reg.Counter("sesame_rosbus_filter_consumed_total",
		"Messages consumed by the link filter before delivery.")
	b.mDepthExceeded = reg.Counter("sesame_rosbus_depth_exceeded_total",
		"Publishes refused by the recursion guard.")
}

// maxPublishDepth bounds handler->publish recursion.
const maxPublishDepth = 32

// Publisher is a handle bound to a topic and an (unverified) node name.
// It keeps the topic's state from Advertise, so publishing never looks
// the topic up again.
type Publisher struct {
	bus   *Bus
	ts    *topicState
	topic string
	node  string
}

// Advertise returns a publisher for topic under the given node name.
// Names are not authenticated — this mirrors the ROS vulnerability the
// Security EDDI exists to detect.
func (b *Bus) Advertise(topic, node string) (*Publisher, error) {
	if topic == "" || node == "" {
		return nil, errors.New("rosbus: empty topic or node name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Publisher{bus: b, ts: b.ensureTopic(topic), topic: topic, node: node}, nil
}

// ensureTopic returns the topic's state, creating it on first use.
// Topics are never removed, so the state a caller keeps stays live.
// Callers hold b.mu.
func (b *Bus) ensureTopic(topic string) *topicState {
	ts, ok := b.topics[topic]
	if !ok {
		ts = &topicState{}
		if b.mPublished != nil {
			ts.mPublished = b.mPublished.With(topic)
		}
		ts.rebuild(b.taps)
		b.topics[topic] = ts
	}
	return ts
}

// rebuild replaces the topic's delivery snapshot; callers hold b.mu.
func (ts *topicState) rebuild(taps []entry) {
	hs := make([]Handler, 0, len(ts.subs)+len(taps))
	for _, e := range ts.subs {
		hs = append(hs, e.h)
	}
	for _, e := range taps {
		hs = append(hs, e.h)
	}
	ts.handlers = hs
}

// rebuildAll refreshes every topic's snapshot after a tap change;
// callers hold b.mu.
func (b *Bus) rebuildAll() {
	for _, ts := range b.topics {
		ts.rebuild(b.taps)
	}
}

// without removes the entry with the given id from es.
func without(es []entry, id int) []entry {
	return slices.DeleteFunc(es, func(e entry) bool { return e.id == id })
}

// Publish sends payload on the publisher's topic at simulation time
// stamp. Handlers run synchronously before Publish returns.
func (p *Publisher) Publish(stamp float64, payload interface{}) error {
	return p.bus.publish(p.ts, Message{
		Topic:     p.topic,
		Publisher: p.node,
		Stamp:     stamp,
		Payload:   payload,
	})
}

// Inject delivers a fully caller-controlled message, spoofed publisher
// name included. It is how attack scenarios model a compromised node.
func (b *Bus) Inject(msg Message) error {
	if msg.Topic == "" {
		return errors.New("rosbus: empty topic")
	}
	return b.publish(nil, msg)
}

// SetFilter installs (or, with nil, removes) the bus-wide link filter.
// Only one filter is supported; a link layer multiplexes internally.
func (b *Bus) SetFilter(f Filter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter = f
}

// WrapFilter composes a new filter over whatever is currently
// installed: the wrapper receives the previous filter (possibly nil)
// and decides whether and how to delegate. Fault layers stack this way
// — e.g. a chaos layer over a link simulator — instead of overwriting
// each other through SetFilter.
func (b *Bus) WrapFilter(wrap func(next Filter) Filter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter = wrap(b.filter)
}

// enter takes the recursion guard and resolves the topic (ts, when
// non-nil, is topic's state already). Callers hold b.mu; on error
// enter has released it.
func (b *Bus) enter(ts *topicState, topic string) (*topicState, error) {
	if b.depth >= maxPublishDepth {
		b.depthExceeded++
		b.mDepthExceeded.Inc()
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %d levels (handler loop?)", ErrDepthExceeded, maxPublishDepth)
	}
	b.depth++
	if ts == nil {
		ts = b.ensureTopic(topic)
	}
	return ts, nil
}

// publish assigns msg the topic's next sequence number, offers it to
// the filter and delivers it. ts is msg.Topic's state, or nil to
// resolve it here.
func (b *Bus) publish(ts *topicState, msg Message) error {
	b.mu.Lock()
	ts, err := b.enter(ts, msg.Topic)
	if err != nil {
		return err
	}
	ts.seq++
	ts.published++
	ts.mPublished.Inc()
	msg.Seq = ts.seq
	if filter := b.filter; filter != nil {
		// The filter runs outside the lock: a link layer may call
		// Deliver (inline dup/reorder release) or schedule clock
		// callbacks that do.
		b.mu.Unlock()
		fwd, err := filter(msg)
		b.mu.Lock()
		if !fwd || err != nil {
			b.filterConsumed++
			b.mConsumed.Inc()
			b.depth--
			b.mu.Unlock()
			return err
		}
	}
	b.deliver(ts, msg)
	return nil
}

// Deliver dispatches a message to subscribers and taps, bypassing the
// filter and sequence assignment. It is the re-injection path for a
// link layer releasing delayed, duplicated or reordered frames; msg
// should be a message the filter previously consumed (Seq already
// assigned). The recursion guard still applies.
func (b *Bus) Deliver(msg Message) error {
	if msg.Topic == "" {
		return errors.New("rosbus: empty topic")
	}
	b.mu.Lock()
	ts, err := b.enter(nil, msg.Topic)
	if err != nil {
		return err
	}
	b.deliver(ts, msg)
	return nil
}

// deliver reads the topic's handler snapshot, releases b.mu (which the
// caller holds, with the recursion guard taken), runs the handlers in
// deterministic id order and releases the guard.
func (b *Bus) deliver(ts *topicState, msg Message) {
	handlers := ts.handlers
	b.delivered++
	b.mDelivered.Inc()
	b.mu.Unlock()

	for _, h := range handlers {
		h(msg)
	}

	b.mu.Lock()
	b.depth--
	b.mu.Unlock()
}

// Stats returns a snapshot of the bus-wide counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var published uint64
	for _, ts := range b.topics {
		published += ts.published
	}
	return Stats{
		Published:      published,
		Delivered:      b.delivered,
		FilterConsumed: b.filterConsumed,
		DepthExceeded:  b.depthExceeded,
	}
}

// Subscribe registers handler for every future message on topic.
func (b *Bus) Subscribe(topic string, handler Handler) (Subscription, error) {
	if topic == "" {
		return Subscription{}, errors.New("rosbus: empty topic")
	}
	if handler == nil {
		return Subscription{}, errors.New("rosbus: nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ts := b.ensureTopic(topic)
	b.nextID++
	ts.subs = append(ts.subs, entry{b.nextID, handler})
	ts.rebuild(b.taps)
	return Subscription{topic: topic, id: b.nextID}, nil
}

// Unsubscribe cancels a subscription. Unknown subscriptions are a no-op.
func (b *Bus) Unsubscribe(s Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[s.topic]; ok {
		ts.subs = without(ts.subs, s.id)
		ts.rebuild(b.taps)
	}
}

// Tap registers handler for every message on every topic (the IDS
// vantage point). The returned cancel function removes the tap.
func (b *Bus) Tap(handler Handler) (cancel func(), err error) {
	if handler == nil {
		return nil, errors.New("rosbus: nil tap handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	b.taps = append(b.taps, entry{id, handler})
	b.rebuildAll()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.taps = without(b.taps, id)
		b.rebuildAll()
	}, nil
}

// Topics returns the sorted list of known topics.
func (b *Bus) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for t := range b.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PublishedCount returns how many messages have been published on topic.
func (b *Bus) PublishedCount(topic string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return ts.published
	}
	return 0
}

// SubscriberCount returns the number of active subscriptions on topic.
func (b *Bus) SubscriberCount(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return len(ts.subs)
	}
	return 0
}
