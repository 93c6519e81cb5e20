package rosbus

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sesame/internal/obsv"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBus()
	var got []Message
	if _, err := b.Subscribe("/uav1/gps", func(m Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	pub, err := b.Advertise("/uav1/gps", "uav1")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1.5, "fix-a"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(2.0, "fix-b"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].Payload != "fix-a" || got[0].Stamp != 1.5 || got[0].Publisher != "uav1" {
		t.Fatalf("first message wrong: %+v", got[0])
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("sequence numbers wrong: %d, %d", got[0].Seq, got[1].Seq)
	}
}

func TestTopicIsolation(t *testing.T) {
	b := NewBus()
	var aCount, bCount int
	_, _ = b.Subscribe("/a", func(Message) { aCount++ })
	_, _ = b.Subscribe("/b", func(Message) { bCount++ })
	pa, _ := b.Advertise("/a", "n")
	_ = pa.Publish(0, nil)
	if aCount != 1 || bCount != 0 {
		t.Fatalf("isolation broken: a=%d b=%d", aCount, bCount)
	}
}

func TestMultipleSubscribersOrdered(t *testing.T) {
	b := NewBus()
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		_, _ = b.Subscribe("/t", func(Message) { order = append(order, i) })
	}
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order = %v, want [1 2 3]", order)
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBus()
	count := 0
	sub, _ := b.Subscribe("/t", func(Message) { count++ })
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	b.Unsubscribe(sub)
	_ = p.Publish(0, nil)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	// Unsubscribing twice is harmless.
	b.Unsubscribe(sub)
}

func TestInjectSpoofedPublisher(t *testing.T) {
	b := NewBus()
	var got Message
	_, _ = b.Subscribe("/uav1/gps", func(m Message) { got = m })
	err := b.Inject(Message{Topic: "/uav1/gps", Publisher: "uav1", Stamp: 3, Payload: "spoof"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Publisher != "uav1" || got.Payload != "spoof" {
		t.Fatalf("spoofed message not delivered verbatim: %+v", got)
	}
}

func TestTapSeesAllTopics(t *testing.T) {
	b := NewBus()
	var seen []string
	cancel, err := b.Tap(func(m Message) { seen = append(seen, m.Topic) })
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := b.Advertise("/a", "n")
	pb, _ := b.Advertise("/b", "n")
	_ = pa.Publish(0, nil)
	_ = pb.Publish(0, nil)
	if len(seen) != 2 || seen[0] != "/a" || seen[1] != "/b" {
		t.Fatalf("tap saw %v", seen)
	}
	cancel()
	_ = pa.Publish(0, nil)
	if len(seen) != 2 {
		t.Fatal("cancelled tap still receiving")
	}
}

func TestTapRunsAfterSubscribers(t *testing.T) {
	b := NewBus()
	var order []string
	_, _ = b.Tap(func(Message) { order = append(order, "tap") })
	_, _ = b.Subscribe("/t", func(Message) { order = append(order, "sub") })
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	if len(order) != 2 || order[0] != "sub" || order[1] != "tap" {
		t.Fatalf("order = %v, want [sub tap]", order)
	}
}

// TestHandlerChangesDuringDispatch: a dispatch calls exactly the
// handlers registered when it started. A handler added meanwhile waits
// for the next message, and one removed meanwhile is still called.
func TestHandlerChangesDuringDispatch(t *testing.T) {
	b := NewBus()
	var order []string
	var subB Subscription
	var cancelTap func()
	first := true
	_, _ = b.Subscribe("/t", func(Message) {
		order = append(order, "a")
		if first {
			first = false
			_, _ = b.Subscribe("/t", func(Message) { order = append(order, "c") })
			b.Unsubscribe(subB)
			cancelTap()
		}
	})
	subB, _ = b.Subscribe("/t", func(Message) { order = append(order, "b") })
	cancelTap, _ = b.Tap(func(Message) { order = append(order, "tap") })
	_, _ = b.Tap(func(Message) { order = append(order, "tap2") })
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	_ = p.Publish(0, nil)
	want := "a b tap tap2 a c tap2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if n := b.SubscriberCount("/t"); n != 2 {
		t.Fatalf("SubscriberCount = %d, want 2", n)
	}
}

func TestValidation(t *testing.T) {
	b := NewBus()
	if _, err := b.Advertise("", "n"); err == nil {
		t.Error("empty topic must fail")
	}
	if _, err := b.Advertise("/t", ""); err == nil {
		t.Error("empty node must fail")
	}
	if _, err := b.Subscribe("", func(Message) {}); err == nil {
		t.Error("empty topic must fail")
	}
	if _, err := b.Subscribe("/t", nil); err == nil {
		t.Error("nil handler must fail")
	}
	if _, err := b.Tap(nil); err == nil {
		t.Error("nil tap must fail")
	}
	if err := b.Inject(Message{}); err == nil {
		t.Error("empty topic inject must fail")
	}
}

func TestPublishFromHandler(t *testing.T) {
	b := NewBus()
	relay, _ := b.Advertise("/out", "relay")
	var out []string
	_, _ = b.Subscribe("/in", func(m Message) {
		_ = relay.Publish(m.Stamp, "relayed:"+m.Payload.(string))
	})
	_, _ = b.Subscribe("/out", func(m Message) { out = append(out, m.Payload.(string)) })
	in, _ := b.Advertise("/in", "src")
	if err := in.Publish(1, "x"); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "relayed:x" {
		t.Fatalf("relay failed: %v", out)
	}
}

func TestPublishLoopDetected(t *testing.T) {
	b := NewBus()
	p, _ := b.Advertise("/loop", "n")
	sawErr := false
	_, _ = b.Subscribe("/loop", func(m Message) {
		if err := p.Publish(m.Stamp+1, nil); err != nil {
			sawErr = true
			if !errors.Is(err, ErrDepthExceeded) {
				t.Errorf("loop error = %v, want ErrDepthExceeded", err)
			}
		}
	})
	_ = p.Publish(0, nil)
	if !sawErr {
		t.Fatal("infinite publish loop must be cut off with an error")
	}
	if got := b.Stats().DepthExceeded; got != 1 {
		t.Fatalf("Stats().DepthExceeded = %d, want 1", got)
	}
}

func TestDeliverLoopDetected(t *testing.T) {
	b := NewBus()
	sawErr := false
	_, _ = b.Subscribe("/loop", func(m Message) {
		if err := b.Deliver(m); err != nil {
			sawErr = true
			if !errors.Is(err, ErrDepthExceeded) {
				t.Errorf("loop error = %v, want ErrDepthExceeded", err)
			}
		}
	})
	if err := b.Deliver(Message{Topic: "/loop"}); err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("infinite Deliver loop must be cut off with an error")
	}
	if b.Stats().DepthExceeded == 0 {
		t.Fatal("DepthExceeded not counted for Deliver recursion")
	}
}

func TestFilterConsumesAndRedelivers(t *testing.T) {
	b := NewBus()
	var got []Message
	_, _ = b.Subscribe("/t", func(m Message) { got = append(got, m) })
	var held []Message
	b.SetFilter(func(m Message) (bool, error) {
		if m.Payload == "hold" {
			held = append(held, m)
			return false, nil
		}
		return true, nil
	})
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, "hold")
	if err := p.Publish(1, "pass"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != "pass" {
		t.Fatalf("filter leak: got %v", got)
	}
	// Re-injection bypasses the filter and keeps the original seq.
	for _, m := range held {
		if err := b.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[1].Payload != "hold" || got[1].Seq != 1 {
		t.Fatalf("redelivery wrong: %+v", got)
	}
	st := b.Stats()
	if st.Published != 2 || st.Delivered != 2 || st.FilterConsumed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Removing the filter restores plain delivery.
	b.SetFilter(nil)
	_ = p.Publish(2, "hold")
	if len(got) != 3 {
		t.Fatalf("filter still active after SetFilter(nil): %v", got)
	}
}

func TestFilterErrorReachesPublisher(t *testing.T) {
	b := NewBus()
	boom := errors.New("link rejected")
	b.SetFilter(func(Message) (bool, error) { return false, boom })
	delivered := 0
	_, _ = b.Subscribe("/t", func(Message) { delivered++ })
	p, _ := b.Advertise("/t", "n")
	if err := p.Publish(0, nil); !errors.Is(err, boom) {
		t.Fatalf("publish error = %v, want %v", err, boom)
	}
	if delivered != 0 {
		t.Fatal("rejected message must not be delivered")
	}
}

func TestStats(t *testing.T) {
	b := NewBus()
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	_ = p.Publish(0, nil)
	if got := b.PublishedCount("/t"); got != 2 {
		t.Fatalf("PublishedCount = %d", got)
	}
	if got := b.PublishedCount("/none"); got != 0 {
		t.Fatalf("unknown topic count = %d", got)
	}
	_, _ = b.Subscribe("/t", func(Message) {})
	if got := b.SubscriberCount("/t"); got != 1 {
		t.Fatalf("SubscriberCount = %d", got)
	}
	if got := b.SubscriberCount("/none"); got != 0 {
		t.Fatalf("unknown topic subs = %d", got)
	}
	topics := b.Topics()
	if len(topics) != 1 || topics[0] != "/t" {
		t.Fatalf("Topics = %v", topics)
	}
}

func TestConcurrentPublish(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	count := 0
	_, _ = b.Subscribe("/t", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := b.Advertise("/t", "n")
			for j := 0; j < 100; j++ {
				_ = p.Publish(0, nil)
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Fatalf("count = %d, want 800", count)
	}
	if b.PublishedCount("/t") != 800 {
		t.Fatalf("PublishedCount = %d, want 800", b.PublishedCount("/t"))
	}
}

func BenchmarkPublishOneSubscriber(b *testing.B) {
	bus := NewBus()
	_, _ = bus.Subscribe("/t", func(Message) {})
	p, _ := bus.Advertise("/t", "n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Publish(0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPublisherHandleTracksBusChanges advertises first and changes the
// bus after: a Publisher keeps its topic's state from Advertise, and
// must still reach the current handler set, count into a registry
// instrumented later, and share one sequence with Inject.
func TestPublisherHandleTracksBusChanges(t *testing.T) {
	b := NewBus()
	pub, err := b.Advertise("/t", "n")
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.Advertise("/u", "n")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	publish := func(p *Publisher, payload string) {
		t.Helper()
		if err := p.Publish(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	publish(pub, "before")

	reg := obsv.NewRegistry()
	b.Instrument(reg)
	cancel, err := b.Tap(func(m Message) { got = append(got, "tap:"+m.Payload.(string)) })
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("/t", func(m Message) { got = append(got, "sub:"+m.Payload.(string)) })
	if err != nil {
		t.Fatal(err)
	}
	publish(pub, "a")
	publish(other, "b")
	b.Unsubscribe(sub)
	publish(pub, "c")
	cancel()
	publish(pub, "d")

	want := []string{"sub:a", "tap:a", "tap:b", "tap:c"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	counts := reg.CounterValues()
	if n := counts[`sesame_rosbus_published_total{topic="/t"}`]; n != 3 {
		t.Errorf("/t published counter = %d, want 3 (publishes after Instrument)", n)
	}
	if n := counts[`sesame_rosbus_published_total{topic="/u"}`]; n != 1 {
		t.Errorf("/u published counter = %d, want 1", n)
	}

	// Inject and the Publisher draw from one per-topic sequence.
	var seqs []uint64
	if _, err := b.Subscribe("/t", func(m Message) { seqs = append(seqs, m.Seq) }); err != nil {
		t.Fatal(err)
	}
	publish(pub, "e")
	if err := b.Inject(Message{Topic: "/t", Publisher: "evil", Stamp: 2, Payload: "f"}); err != nil {
		t.Fatal(err)
	}
	publish(pub, "g")
	if len(seqs) != 3 || seqs[0] != 5 || seqs[1] != 6 || seqs[2] != 7 {
		t.Fatalf("sequence across Publish/Inject/Publish = %v, want [5 6 7]", seqs)
	}
	if n := b.PublishedCount("/t"); n != 7 {
		t.Fatalf("PublishedCount(/t) = %d, want 7", n)
	}
	if n := reg.CounterValues()[`sesame_rosbus_published_total{topic="/t"}`]; n != 6 {
		t.Errorf("/t published counter after Inject = %d, want 6", n)
	}
}
