// Package simclock provides the deterministic discrete-event simulation
// kernel used by the UAV world model and the experiment harness. It
// substitutes for the wall-clock/Gazebo time base the paper's field
// trials used: every stochastic component draws from seeded RNG streams
// owned by the kernel, so an experiment re-runs bit-for-bit for a given
// seed.
package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// Clock is a discrete-event simulation clock with an event queue and a
// family of named, independently seeded random streams. The zero value
// is not usable; call New.
type Clock struct {
	now     float64
	queue   eventQueue
	seq     uint64 // tie-breaker for same-time events (FIFO)
	seed    int64
	streams map[string]*countingSource
	rands   map[string]*rand.Rand
}

// New returns a clock starting at t=0 whose random streams derive from
// seed.
func New(seed int64) *Clock {
	return &Clock{
		seed:    seed,
		streams: make(map[string]*countingSource),
		rands:   make(map[string]*rand.Rand),
	}
}

// Now returns the current simulation time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Seed returns the seed the clock's streams derive from.
func (c *Clock) Seed() int64 { return c.seed }

// countingSource wraps a stream's underlying generator and counts how
// many times it stepped. math/rand's generator advances exactly one
// step per Int63 or Uint64 call, so the count alone pins the stream's
// position: recreating the source from (seed, name) and drawing count
// values restores the identical state. The wrapper implements
// rand.Source64 exactly like the wrapped rngSource does, so rand.Rand's
// method selection — hence every emitted sequence — is unchanged.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.draws = 0
	s.src.Seed(seed)
}

// streamSeed derives the named stream's seed from the clock seed via
// FNV-1a, the scheme every stream has used since the seed repo.
func (c *Clock) streamSeed(name string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return c.seed ^ int64(h)
}

// Stream returns the named random stream, creating it deterministically
// from the clock seed and the name on first use. Distinct names give
// independent streams; the same (seed, name) pair always gives the same
// sequence.
func (c *Clock) Stream(name string) *rand.Rand {
	if r, ok := c.rands[name]; ok {
		return r
	}
	src := &countingSource{src: rand.NewSource(c.streamSeed(name)).(rand.Source64)}
	r := rand.New(src)
	c.streams[name] = src
	c.rands[name] = r
	return r
}

// ShardStreams returns n deterministic sub-streams of the named stream
// family, one per shard, creating them on first use. Shard i draws from
// the named stream "<name>/shard<i>", never from Stream(name) itself;
// the split depends only on (seed, name, i), never on how shards are
// scheduled, so concurrent shards stay reproducible. Call this before
// handing the streams to concurrent workers: stream creation mutates
// the clock's registry and is not goroutine-safe.
func (c *Clock) ShardStreams(name string, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = c.Stream(fmt.Sprintf("%s/shard%03d", name, i))
	}
	return out
}

// StreamState records one named stream's position as the number of
// generator steps consumed since creation.
type StreamState struct {
	Name  string `json:"name"`
	Draws uint64 `json:"draws"`
}

// StreamStates returns every created stream's position, sorted by name
// for deterministic serialization.
func (c *Clock) StreamStates() []StreamState {
	states := make([]StreamState, 0, len(c.streams))
	for name, src := range c.streams {
		states = append(states, StreamState{Name: name, Draws: src.draws})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return states
}

// RestoreStreams repositions every stream to the recorded draw count.
// Existing stream objects are reset IN PLACE rather than replaced:
// components that captured a *rand.Rand at construction (GPS
// receivers, the detector) keep their handles, and those handles emit
// exactly the values the original clock would have emitted had it kept
// running. Existing streams absent from states are rewound to zero
// draws — the original run had not touched them by the checkpoint, so
// first use must see a fresh sequence.
func (c *Clock) RestoreStreams(states []StreamState) {
	want := make(map[string]uint64, len(states))
	for _, st := range states {
		want[st.Name] = st.Draws
	}
	for name, src := range c.streams {
		src.Seed(c.streamSeed(name))
		for src.draws < want[name] {
			src.Uint64()
		}
	}
	for _, st := range states {
		if _, ok := c.streams[st.Name]; ok {
			continue
		}
		c.Stream(st.Name)
		src := c.streams[st.Name]
		for src.draws < st.Draws {
			src.Uint64()
		}
	}
}

// SetNow jumps the clock to t without running events. It is the restore
// counterpart of RunUntil: callers must only use it on a quiescent
// clock (Pending() == 0), since queued events scheduled before t would
// otherwise fire late. Moving backwards panics like Schedule does.
func (c *Clock) SetNow(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: set now %v before now %v", t, c.now))
	}
	if c.queue.Len() > 0 {
		panic("simclock: SetNow on a non-quiescent clock")
	}
	c.now = t
}

// Event is a scheduled callback.
type event struct {
	at   float64
	seq  uint64
	name string
	fn   func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Schedule queues fn to run at absolute simulation time at. Scheduling
// in the past (at < Now) panics: it is always a logic error in a
// discrete-event model.
func (c *Clock) Schedule(at float64, name string, fn func()) {
	if at < c.now {
		panic(fmt.Sprintf("simclock: schedule %q at %v before now %v", name, at, c.now))
	}
	c.seq++
	heap.Push(&c.queue, &event{at: at, seq: c.seq, name: name, fn: fn})
}

// After queues fn to run delay seconds from now.
func (c *Clock) After(delay float64, name string, fn func()) {
	c.Schedule(c.now+delay, name, fn)
}

// Step runs the next queued event, advancing the clock to its time. It
// reports whether an event was run.
func (c *Clock) Step() bool {
	if c.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*event)
	c.now = e.at
	e.fn()
	return true
}

// RunUntil executes queued events in order until the queue is empty or
// the next event is after t, then sets the clock to t. It returns the
// number of events executed.
func (c *Clock) RunUntil(t float64) int {
	n := 0
	for c.queue.Len() > 0 && c.queue[0].at <= t {
		c.Step()
		n++
	}
	if t > c.now {
		c.now = t
	}
	return n
}

// Pending returns the number of queued events.
func (c *Clock) Pending() int { return c.queue.Len() }

// Ticker invokes fn(now) every interval seconds starting at the next
// interval boundary after now, until fn returns false.
func (c *Clock) Ticker(interval float64, name string, fn func(now float64) bool) {
	if interval <= 0 {
		panic("simclock: non-positive ticker interval")
	}
	var tick func()
	tick = func() {
		if fn(c.now) {
			c.After(interval, name, tick)
		}
	}
	c.After(interval, name, tick)
}
