package missionhost

import "fmt"

// Subscriber is one watcher's bounded snapshot queue. Publication
// never blocks the tick path: a full queue drops its oldest entry
// (the subscriber was going to skip it anyway — only the freshest
// state matters to a live view) and the drop is counted.
type Subscriber struct {
	m      *Mission
	ch     chan *Snapshot
	closed bool // guarded by m.subsMu
}

// C delivers published snapshots, newest last. The channel closes
// when the subscription ends (Close, mission Delete, host Shutdown).
func (s *Subscriber) C() <-chan *Snapshot { return s.ch }

// Close ends the subscription. Safe to call twice and safe to race
// with host-side closes.
func (s *Subscriber) Close() {
	s.m.subsMu.Lock()
	defer s.m.subsMu.Unlock()
	if _, ok := s.m.subs[s]; !ok {
		return
	}
	delete(s.m.subs, s)
	s.closed = true
	close(s.ch)
	s.m.host.watchers.Add(-1)
}

// Subscribe attaches a bounded watcher queue to a mission,
// rehydrating it first if it was parked mid-flight — a watcher
// arriving at an evicted mission gets a live stream, not a 404.
// buffer <= 0 defaults to 16.
func (h *Host) Subscribe(id string, buffer int) (*Subscriber, error) {
	if buffer <= 0 {
		buffer = 16
	}
	h.mu.Lock()
	m, ok := h.missions[id]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	m.touch()
	err := h.wakeLocked(m)
	h.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sub := &Subscriber{m: m, ch: make(chan *Snapshot, buffer)}
	m.subsMu.Lock()
	if m.subsClosed {
		m.subsMu.Unlock()
		return nil, ErrClosed
	}
	m.subs[sub] = struct{}{}
	m.subsMu.Unlock()
	h.watchers.Add(1)
	// Seed the queue with the current state so a new watcher renders
	// immediately instead of waiting for the next tick.
	if snap := m.Snapshot(); snap != nil {
		sub.ch <- snap
	}
	return sub, nil
}

// notify fans one published snapshot out to every subscriber with
// drop-oldest backpressure.
func (m *Mission) notify(snap *Snapshot) {
	m.subsMu.Lock()
	defer m.subsMu.Unlock()
	for sub := range m.subs {
		select {
		case sub.ch <- snap:
		default:
			select {
			case <-sub.ch:
				m.host.sseDrops.Add(1)
				m.host.met.sseDropsTotal.Inc()
			default:
			}
			select {
			case sub.ch <- snap:
			default:
			}
		}
	}
}

// closeSubs ends every subscription of one mission (Delete and host
// Shutdown).
func (m *Mission) closeSubs() {
	m.subsMu.Lock()
	defer m.subsMu.Unlock()
	m.subsClosed = true
	for sub := range m.subs {
		delete(m.subs, sub)
		sub.closed = true
		close(sub.ch)
		m.host.watchers.Add(-1)
	}
}
