package simclock

import (
	"bytes"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	c := New(1)
	var got []string
	c.Schedule(3, "c", func() { got = append(got, "c") })
	c.Schedule(1, "a", func() { got = append(got, "a") })
	c.Schedule(2, "b", func() { got = append(got, "b") })
	for c.Step() {
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 3 {
		t.Fatalf("Now = %v, want 3", c.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	c := New(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(1, "e", func() { got = append(got, i) })
	}
	c.RunUntil(1)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := New(1)
	c.Schedule(5, "x", func() {})
	c.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.Schedule(4, "bad", func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := New(1)
	ran := false
	c.Schedule(2, "e", func() { ran = true })
	n := c.RunUntil(10)
	if n != 1 || !ran {
		t.Fatalf("n=%d ran=%v", n, ran)
	}
	if c.Now() != 10 {
		t.Fatalf("Now = %v, want 10", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	c := New(1)
	c.Schedule(20, "late", func() {})
	if n := c.RunUntil(10); n != 0 {
		t.Fatalf("ran %d events, want 0", n)
	}
	if c.Pending() != 1 {
		t.Fatal("future event lost")
	}
}

func TestAfter(t *testing.T) {
	c := New(1)
	c.Schedule(5, "setup", func() {
		c.After(3, "later", func() {
			if c.Now() != 8 {
				t.Errorf("After fired at %v, want 8", c.Now())
			}
		})
	})
	c.RunUntil(100)
}

func TestTicker(t *testing.T) {
	c := New(1)
	var times []float64
	c.Ticker(2, "tick", func(now float64) bool {
		times = append(times, now)
		return now < 6
	})
	c.RunUntil(100)
	want := []float64{2, 4, 6}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", times, want)
		}
	}
}

func TestTickerBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	New(1).Ticker(0, "bad", func(float64) bool { return false })
}

func TestStreamsDeterministic(t *testing.T) {
	a := New(42).Stream("gps")
	b := New(42).Stream("gps")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name streams diverged")
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	c := New(42)
	a := c.Stream("gps")
	b := c.Stream("battery")
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("differently named streams produced identical sequences")
	}
	// Re-fetching a stream returns the same generator, not a reset one.
	if c.Stream("gps") != a {
		t.Fatal("Stream must memoize")
	}
}

func TestStepEmpty(t *testing.T) {
	c := New(1)
	if c.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New(7)
		for j := 0; j < 100; j++ {
			c.Schedule(float64(j%10), "e", func() {})
		}
		c.RunUntil(10)
	}
}

// fnv1a is the stream-name hash, as the clock computes it.
func fnv1a(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// TestStreamSequencesPinned pins a stream's generator and its first
// values for every rand.Rand method the codebase draws with: a change
// here moves every digest. The raw words are math/rand/v2's PCG seeded
// with (clock seed, FNV-1a of the name).
func TestStreamSequencesPinned(t *testing.T) {
	raw := randv2.NewPCG(42, fnv1a("wind"))
	got := New(42).Stream("wind")
	for i := 0; i < 100; i++ {
		if a, b := got.Uint64(), raw.Uint64(); a != b {
			t.Fatalf("Uint64 #%d: %d != PCG %d", i, a, b)
		}
	}
	for _, tc := range []struct {
		method string
		draw   func(r *rand.Rand) any
		want   []any
	}{
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() },
			[]any{uint64(9616616433208466566), uint64(16381614513917250018), uint64(14218216227398804014)}},
		{"Int63", func(r *rand.Rand) any { return r.Int63() },
			[]any{int64(4808308216604233283), int64(8190807256958625009), int64(7109108113699402007)}},
		{"Float64", func(r *rand.Rand) any { return r.Float64() },
			[]any{0.5213178214422212, 0.8880491022404576, 0.7707710461307218}},
		{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() },
			[]any{-1.2744510827202595, -0.2272530327309108, -0.8277076197109697}},
		{"Intn", func(r *rand.Rand) any { return r.Intn(97) },
			[]any{70, 0, 32}},
	} {
		r := New(42).Stream("wind")
		for i, w := range tc.want {
			if v := tc.draw(r); v != w {
				t.Errorf("%s #%d = %v, want %v", tc.method, i, v, w)
			}
		}
	}
	p := []int{0, 1, 2, 3, 4, 5, 6, 7}
	New(42).Stream("wind").Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	if want := []int{2, 1, 3, 0, 5, 7, 6, 4}; !slices.Equal(p, want) {
		t.Errorf("Shuffle = %v, want %v", p, want)
	}
}

// TestStreamDrawsDoNotAllocate: a draw steps the PCG in place; neither
// the generator nor the math/rand adapter allocates.
func TestStreamDrawsDoNotAllocate(t *testing.T) {
	r := New(7).Stream("gps/u1")
	if n := testing.AllocsPerRun(100, func() {
		r.Uint64()
		r.Int63()
		r.Float64()
		r.NormFloat64()
		r.Intn(97)
	}); n != 0 {
		t.Fatalf("%v allocations per round of draws, want 0", n)
	}
}

// TestStreamStateRestore checks the checkpoint/restore contract: a clock
// restored from StreamStates emits exactly the values the original
// would have emitted next, across mixed draw kinds and several streams.
func TestStreamStateRestore(t *testing.T) {
	orig := New(99)
	gust := orig.Stream("world/gust")
	gps := orig.Stream("uav/gps")
	for i := 0; i < 137; i++ {
		gust.NormFloat64()
		if i%3 == 0 {
			gps.Float64()
		}
	}
	states := orig.StreamStates()
	if len(states) != 2 {
		t.Fatalf("want 2 stream states, got %d", len(states))
	}

	restored := New(99)
	if err := restored.RestoreStreams(states); err != nil {
		t.Fatal(err)
	}
	rg := restored.Stream("world/gust")
	rp := restored.Stream("uav/gps")
	for i := 0; i < 64; i++ {
		if a, b := gust.NormFloat64(), rg.NormFloat64(); a != b {
			t.Fatalf("gust draw %d diverged: %v != %v", i, a, b)
		}
		if a, b := gps.Intn(1000), rp.Intn(1000); a != b {
			t.Fatalf("gps draw %d diverged: %v != %v", i, a, b)
		}
	}

	// StreamStates is sorted by name for deterministic serialization.
	if states[0].Name > states[1].Name {
		t.Fatal("StreamStates must be sorted by name")
	}
}

func TestSetNow(t *testing.T) {
	c := New(1)
	c.SetNow(12.5)
	if c.Now() != 12.5 {
		t.Fatalf("SetNow: now = %v", c.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetNow backwards must panic")
			}
		}()
		c.SetNow(1)
	}()
	c.Schedule(20, "e", func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetNow with pending events must panic")
			}
		}()
		c.SetNow(30)
	}()
}

// TestRestoreStreamsKeepsCapturedHandles pins the in-place restore
// contract: a *rand.Rand captured before RestoreStreams (the GPS
// receiver and detector hold theirs from construction) must emit the
// restored sequence, not keep drawing from a detached generator.
func TestRestoreStreamsKeepsCapturedHandles(t *testing.T) {
	original := New(99)
	ref := original.Stream("gps/u1")
	for i := 0; i < 137; i++ {
		ref.NormFloat64()
	}
	want := make([]float64, 16)
	states := original.StreamStates()
	for i := range want {
		want[i] = ref.NormFloat64()
	}

	replay := New(99)
	captured := replay.Stream("gps/u1") // handle taken BEFORE restore
	captured.NormFloat64()              // and already advanced differently
	if err := replay.RestoreStreams(states); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := captured.NormFloat64(); got != w {
			t.Fatalf("captured handle draw %d: got %v want %v", i, got, w)
		}
	}

	// Streams the checkpoint never saw rewind to a fresh sequence.
	fresh := New(5)
	side := fresh.Stream("side")
	first := side.Int63()
	for i := 0; i < 9; i++ {
		side.Int63()
	}
	if err := fresh.RestoreStreams(nil); err != nil {
		t.Fatal(err)
	}
	if got := side.Int63(); got != first {
		t.Fatalf("unseen stream must rewind: got %v want %v", got, first)
	}
}

// TestShardStreams pins the per-vehicle stream split: every n >= 1
// yields deterministic per-shard sub-streams, never the plain named
// stream (a one-UAV fleet's captures must not share the stream that
// drew anything else), that reproduce across clocks with the same seed
// and checkpoint like any other named stream.
func TestShardStreams(t *testing.T) {
	a := New(5)
	if got := a.ShardStreams("det", 1); len(got) != 1 || got[0] != a.Stream("det/shard000") || got[0] == a.Stream("det") {
		t.Fatal("n=1 must return the det/shard000 stream")
	}
	if got := a.ShardStreams("det", 0); len(got) != 0 {
		t.Fatalf("n=0 returned %d streams, want none", len(got))
	}

	b := New(5)
	sa := a.ShardStreams("dets", 4)
	sb := b.ShardStreams("dets", 4)
	if len(sa) != 4 || len(sb) != 4 {
		t.Fatalf("shard count = %d/%d, want 4", len(sa), len(sb))
	}
	for i := range sa {
		for k := 0; k < 8; k++ {
			if x, y := sa[i].Int63(), sb[i].Int63(); x != y {
				t.Fatalf("shard %d draw %d diverges across same-seed clocks: %d != %d", i, k, x, y)
			}
		}
	}

	// Shard i is exactly the "<name>/shard%03d" stream, so a caller can
	// reach the same sequence by name (and checkpoints capture it).
	c, dc := New(5), New(5)
	byName := c.Stream("dets/shard002")
	direct := dc.ShardStreams("dets", 4)[2]
	initial := streamState(t, New(5), "dets/shard002")
	for k := 0; k < 8; k++ {
		if x, y := byName.Int63(), direct.Int63(); x != y {
			t.Fatalf("shard 2 != named stream at draw %d: %d != %d", k, x, y)
		}
	}
	got, want := streamState(t, c, "dets/shard002"), streamState(t, dc, "dets/shard002")
	if !bytes.Equal(got, want) {
		t.Errorf("named stream state %x, the shard stream's %x", got, want)
	}
	if bytes.Equal(got, initial) {
		t.Error("shard stream state did not move with its draws")
	}

	// Distinct shards must not emit the same sequence.
	d := New(5)
	sd := d.ShardStreams("dets", 2)
	same := true
	for k := 0; k < 8; k++ {
		if sd[0].Int63() != sd[1].Int63() {
			same = false
		}
	}
	if same {
		t.Error("shards 0 and 1 emitted identical sequences")
	}
}

// streamState returns the named stream's recorded state on c, creating
// the stream if needed.
func streamState(t *testing.T, c *Clock, name string) []byte {
	t.Helper()
	c.Stream(name)
	for _, st := range c.StreamStates() {
		if st.Name == name {
			return st.State
		}
	}
	t.Fatalf("stream %q missing from StreamStates", name)
	return nil
}

// TestFleetStreamStatesDistinct: every stream a 10,000-UAV fleet
// creates starts from its own generator state and draws its own first
// value, so no two vehicles share a noise sequence.
func TestFleetStreamStatesDistinct(t *testing.T) {
	const uavs = 10000
	c := New(7)
	names := []string{"world/gust", "platform/detector", "scene", "scenario/scene/0", "linksim/fleet/u1"}
	for i := 1; i <= uavs; i++ {
		id := fmt.Sprintf("u%d", i)
		names = append(names, "gps/"+id, "colloc/"+id)
	}
	for _, name := range names {
		c.Stream(name)
	}
	c.ShardStreams("platform/detector", uavs)
	states := c.StreamStates()
	if want := len(names) + uavs; len(states) != want {
		t.Fatalf("%d streams, want %d", len(states), want)
	}
	seenState := make(map[string]string, len(states))
	seenDraw := make(map[uint64]string, len(states))
	for _, st := range states {
		if prev, ok := seenState[string(st.State)]; ok {
			t.Fatalf("streams %q and %q start from the same state", prev, st.Name)
		}
		seenState[string(st.State)] = st.Name
		first := c.Stream(st.Name).Uint64()
		if prev, ok := seenDraw[first]; ok {
			t.Fatalf("streams %q and %q draw the same first value", prev, st.Name)
		}
		seenDraw[first] = st.Name
	}
}

// TestRestoreStreamsRejectsBadState: a missing state (a checkpoint
// from before PCG streams recorded only draw counts) or a malformed one
// is an error, and a refused restore leaves every stream where it was.
func TestRestoreStreamsRejectsBadState(t *testing.T) {
	c := New(3)
	c.Stream("gps/u1").Uint64()
	good := streamState(t, c, "gps/u1")
	for _, tc := range []struct {
		name  string
		state []byte
	}{
		{"missing", nil},
		{"truncated", good[:len(good)-1]},
		{"bad tag", append([]byte("xyz:"), good[4:]...)},
		{"too long", append(append([]byte(nil), good...), 0)},
	} {
		before := c.StreamStates()
		states := []StreamState{{Name: "world/gust", State: good}, {Name: "gps/u1", State: tc.state}}
		if err := c.RestoreStreams(states); err == nil {
			t.Errorf("%s state: restore succeeded", tc.name)
		}
		if after := c.StreamStates(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s state: a refused restore changed the streams", tc.name)
		}
	}
}

func BenchmarkStreamCreate(b *testing.B) {
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("gps/u%d", i+1)
	}
	b.ReportAllocs()
	var c *Clock
	for i := 0; i < b.N; i++ {
		if i%len(names) == 0 {
			c = New(7)
		}
		c.Stream(names[i%len(names)])
	}
}

// FuzzRestoreStreams: arbitrary bytes as a stream state either restore
// and read back unchanged, or are refused with the clock untouched;
// they never panic.
func FuzzRestoreStreams(f *testing.F) {
	c := New(1)
	c.Stream("gps/u1").Uint64()
	f.Add("gps/u1", c.StreamStates()[0].State)
	f.Add("gps/u1", []byte(nil))
	f.Add("new", []byte("pcg:0123456789abcdef"))
	f.Add("", []byte("pcg:short"))
	f.Fuzz(func(t *testing.T, name string, state []byte) {
		c := New(1)
		c.Stream("gps/u1").Uint64()
		before := c.StreamStates()
		if err := c.RestoreStreams([]StreamState{{Name: name, State: state}}); err != nil {
			if after := c.StreamStates(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused restore changed the streams: %v", err)
			}
			return
		}
		if got := streamState(t, c, name); !bytes.Equal(got, state) {
			t.Fatalf("state %x read back as %x", state, got)
		}
		c.Stream(name).NormFloat64()
	})
}
