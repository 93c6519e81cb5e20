package simclock

import (
	"math/rand"
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

// TestCountingSourceSequencesUnchanged pins the stream sequences against
// the raw generator the seed repo used: wrapping the source to count
// draws must not change a single emitted value, for every rand.Rand
// method the codebase uses.
func TestCountingSourceSequencesUnchanged(t *testing.T) {
	const seed = 42
	c := New(seed)
	var h uint64 = 1469598103934665603
	for _, b := range []byte("wind") {
		h ^= uint64(b)
		h *= 1099511628211
	}
	raw := rand.New(rand.NewSource(seed ^ int64(h)))
	got := c.Stream("wind")
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			if a, b := got.Float64(), raw.Float64(); a != b {
				t.Fatalf("Float64 #%d: %v != %v", i, a, b)
			}
		case 1:
			if a, b := got.NormFloat64(), raw.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 #%d: %v != %v", i, a, b)
			}
		case 2:
			if a, b := got.Intn(97), raw.Intn(97); a != b {
				t.Fatalf("Intn #%d: %v != %v", i, a, b)
			}
		case 3:
			if a, b := got.Int63(), raw.Int63(); a != b {
				t.Fatalf("Int63 #%d: %v != %v", i, a, b)
			}
		case 4:
			if a, b := got.Uint64(), raw.Uint64(); a != b {
				t.Fatalf("Uint64 #%d: %v != %v", i, a, b)
			}
		}
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
	restored.RestoreStreams(states)
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
	replay.RestoreStreams(states)
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
	fresh.RestoreStreams(nil)
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
	c := New(5)
	byName := c.Stream("dets/shard002")
	direct := New(5).ShardStreams("dets", 4)[2]
	for k := 0; k < 8; k++ {
		if x, y := byName.Int63(), direct.Int63(); x != y {
			t.Fatalf("shard 2 != named stream at draw %d: %d != %d", k, x, y)
		}
	}
	found := false
	for _, st := range c.StreamStates() {
		if st.Name == "dets/shard002" && st.Draws == 8 {
			found = true
		}
	}
	if !found {
		t.Error("shard stream position missing from StreamStates")
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
