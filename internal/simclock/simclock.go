// Package simclock provides the deterministic discrete-event simulation
// kernel used by the UAV world model and the experiment harness. It
// substitutes for the wall-clock/Gazebo time base the paper's field
// trials used: every stochastic component draws from seeded RNG streams
// owned by the kernel, so an experiment re-runs bit-for-bit for a given
// seed. Each stream is a 128-bit PCG generator whose state is its whole
// position, so a checkpoint records the state and a restore sets it.
package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
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
	streams map[string]*stream
}

// stream is one named random stream: its generator and the math/rand
// handle every component draws through.
type stream struct {
	src pcgSource
	r   *rand.Rand
}

// pcgSource makes math/rand/v2's PCG a math/rand Source64, so a stream
// keeps the *rand.Rand handle type and its methods.
type pcgSource struct{ randv2.PCG }

func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// New returns a clock starting at t=0 whose random streams derive from
// seed.
func New(seed int64) *Clock {
	return &Clock{seed: seed, streams: make(map[string]*stream)}
}

// Now returns the current simulation time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Seed returns the seed the clock's streams derive from.
func (c *Clock) Seed() int64 { return c.seed }

// reset puts the named stream at its initial state: the PCG seeded
// with the clock seed and the FNV-1a hash of the name (with the offset
// basis every stream has used since the seed repo).
func (c *Clock) reset(s *stream, name string) {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	s.src.PCG.Seed(uint64(c.seed), h)
}

// Stream returns the named random stream, creating it deterministically
// from the clock seed and the name on first use. Distinct names give
// independent streams; the same (seed, name) pair always gives the same
// sequence.
func (c *Clock) Stream(name string) *rand.Rand {
	if s, ok := c.streams[name]; ok {
		return s.r
	}
	s := &stream{}
	c.reset(s, name)
	s.r = rand.New(&s.src)
	c.streams[name] = s
	return s.r
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

// StreamState records one named stream's position: its generator's
// state in the PCG's binary encoding.
type StreamState struct {
	Name  string `json:"name"`
	State []byte `json:"state"`
}

// StreamStates returns every created stream's state, sorted by name
// for deterministic serialization.
func (c *Clock) StreamStates() []StreamState {
	states := make([]StreamState, 0, len(c.streams))
	for name, s := range c.streams {
		b, _ := s.src.MarshalBinary() // cannot fail
		states = append(states, StreamState{Name: name, State: b})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return states
}

// RestoreStreams sets every stream to its recorded state, in O(1) per
// stream. Existing streams are reset IN PLACE rather than replaced:
// components that captured a *rand.Rand at construction (GPS
// receivers, the detector) keep their handles, and those handles emit
// exactly the values the original clock would have emitted had it kept
// running. Existing streams absent from states go back to their
// initial state — the original run had not created them by the
// checkpoint, so first use must see a fresh sequence. A missing or
// malformed state is an error, and then no stream changes.
func (c *Clock) RestoreStreams(states []StreamState) error {
	pcgs := make([]randv2.PCG, len(states))
	for i, st := range states {
		if len(st.State) == 0 {
			return fmt.Errorf("simclock: stream %q has no generator state (a checkpoint from before PCG streams)", st.Name)
		}
		if err := pcgs[i].UnmarshalBinary(st.State); err != nil {
			return fmt.Errorf("simclock: stream %q: %w", st.Name, err)
		}
	}
	for name, s := range c.streams {
		c.reset(s, name)
	}
	for i, st := range states {
		c.Stream(st.Name)
		c.streams[st.Name].src.PCG = pcgs[i]
	}
	return nil
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
