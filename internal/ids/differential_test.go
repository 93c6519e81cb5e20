package ids_test

// Differential tests: the tracked IDS must raise exactly the alerts,
// and export exactly the State, of the string-keyed Oracle
// (oracle_test.go) after every message of a stream. The streams are
// bus recordings of whole missions — spoofing, a severed link, a lossy
// link and the urban_canyon archetype — and generated streams with
// foreign publishers, payloads naming another UAV than their topic,
// teleports and lost fixes.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"sesame/internal/geo"
	"sesame/internal/ids"
	"sesame/internal/linksim"
	"sesame/internal/mqttlite"
	"sesame/internal/platform"
	"sesame/internal/rosbus"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// strictConfig arms every rule tightly so generated streams trip them
// often, the allow-list included.
func strictConfig() ids.Config {
	return ids.Config{
		AllowedPublishers: map[string][]string{
			"/uav/u1/gps":    {"u1"},
			"/uav/u2/status": {"u2", "gcs"},
			"/uav/u3/gps":    {},
		},
		MaxRateHz:       0.4,
		RateWindowS:     5,
		GPSDivergenceM:  2,
		MaxSpeedMS:      15,
		CooldownS:       1.5,
		SilenceTimeoutS: 3,
	}
}

// differ feeds one stream through a tracked IDS and the Oracle side by
// side. It returns the tracked IDS so callers can go on probing it.
func differ(t *testing.T, cfg ids.Config, msgs []rosbus.Message) *ids.IDS {
	t.Helper()
	bus := rosbus.NewBus()
	d, err := ids.New(bus, mqttlite.NewBroker(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	o := ids.NewOracle(cfg)
	// Alerts only ever append, so comparing each message's new ones
	// compares the whole list after every message.
	seen := 0
	for i, m := range msgs {
		if err := bus.Deliver(m); err != nil {
			t.Fatal(err)
		}
		o.Inspect(m)
		got, want := d.State(), o.State()
		if len(got.Alerts) != len(want.Alerts) || !reflect.DeepEqual(got.Alerts[seen:], want.Alerts[seen:]) {
			t.Fatalf("message %d (%s @ %v): alerts diverge\n got %+v\nwant %+v", i, m.Topic, m.Stamp, got.Alerts[seen:], want.Alerts[seen:])
		}
		seen = len(want.Alerts)
		got.Alerts, want.Alerts = nil, nil
		if !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			t.Fatalf("message %d (%s @ %v): state diverges\n got %s\nwant %s", i, m.Topic, m.Stamp, gj, wj)
		}
	}
	if !reflect.DeepEqual(d.Alerts(), o.Alerts()) {
		t.Fatal("Alerts() diverges from the oracle's")
	}
	return d
}

// record flies sc for ticks platform ticks and returns every message
// the bus dispatched after launch.
func record(t *testing.T, sc *scenario.Scenario, ticks int) []rosbus.Message {
	t.Helper()
	run, err := platform.LaunchScenario(sc, platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Platform.Close()
	rec, err := rosbus.NewRecorder(run.World.Bus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		if err := run.Platform.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rec.Stop()
	return rec.Messages()
}

// disordered counts messages that arrive with a stamp no newer than
// the previous one on their topic (duplicates and reorders).
func disordered(msgs []rosbus.Message) int {
	last := map[string]float64{}
	n := 0
	for _, m := range msgs {
		if prev, ok := last[m.Topic]; ok && m.Stamp <= prev {
			n++
		}
		last[m.Topic] = m.Stamp
	}
	return n
}

func TestInspectDifferentialRecordedMissions(t *testing.T) {
	spoof := scenario.Classic(3, 3, 0, 400)
	spoof.HorizonS = 600
	spoof.Timeline = []scenario.Event{scenario.GPSSpoof(30, "u2")}

	silence := scenario.Classic(5, 3, 0, 400)
	silence.HorizonS = 600
	silence.Timeline = []scenario.Event{{AtS: 30, UAV: "u3", Kind: scenario.EventCommsFailure}}

	lossy := scenario.Classic(9, 3, 0, 400)
	lossy.HorizonS = 600
	lossy.Links = []scenario.Link{{Profile: linksim.Profile{
		DupProb: 0.15, ReorderProb: 0.15, DelayProb: 0.1, DelayMinS: 0.1, DelayMaxS: 2.5,
	}}}

	data, err := os.ReadFile("../../examples/scenarios/urban_canyon.json")
	if err != nil {
		t.Fatal(err)
	}
	canyon, err := scenario.Load(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		sc   *scenario.Scenario
		// want is an alert type the default rules must raise on the run.
		want string
	}{
		{"spoof", spoof, ids.AlertGPSAnomaly},
		{"link-silence", silence, ids.AlertLinkSilence},
		{"lossy-link", lossy, ""},
		{"urban-canyon", canyon, ids.AlertGPSAnomaly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs := record(t, tc.sc, 150)
			if tc.name == "lossy-link" && disordered(msgs) == 0 {
				t.Fatal("the lossy link delivered no duplicated or out-of-order stamp")
			}
			d := differ(t, ids.DefaultConfig(), msgs)
			if tc.want != "" && !hasAlert(d.Alerts(), tc.want) {
				t.Errorf("no %s alert in %d messages: %+v", tc.want, len(msgs), d.Alerts())
			}
			differ(t, strictConfig(), msgs)
		})
	}
}

func hasAlert(alerts []ids.Alert, typ string) bool {
	for _, a := range alerts {
		if a.Type == typ {
			return true
		}
	}
	return false
}

var (
	streamTopics = []string{
		"/uav/u1/gps", "/uav/u1/status", "/uav/u2/gps", "/uav/u2/status",
		"/uav/u3/gps", "/uav/u3/battery", "/uav/u10/status", "/gcs/cmd", "/uav",
	}
	streamNodes = []string{"u1", "u2", "u3", "gcs", "evil"}
	streamUAVs  = []string{"u1", "u2", "u3", "u10", ""}
	streamHome  = geo.LatLng{Lat: 35.1856, Lng: 33.3823}
)

// decodeStream turns bytes into a message stream, five bytes a
// message: topic, publisher, payload kind and UAV, a signed stamp step
// in quarter seconds, and a position offset whose top values teleport.
func decodeStream(data []byte) []rosbus.Message {
	var msgs []rosbus.Message
	stamp := 0.0
	for ; len(data) >= 5; data = data[5:] {
		topic := streamTopics[int(data[0])%len(streamTopics)]
		node := streamNodes[int(data[1])%len(streamNodes)]
		uav := streamUAVs[int(data[2]>>2)%len(streamUAVs)]
		stamp += float64(int8(data[3])) / 4
		off := float64(data[4]) * 0.5
		if data[4] >= 240 {
			off = float64(data[4]) * 40
		}
		pos := geo.Destination(streamHome, float64(data[4])*7, off)
		var payload interface{}
		switch data[2] & 3 {
		case 0:
			payload = uavsim.GPSFix{UAV: uav, Position: pos, Quality: uavsim.GPSRTK, Stamp: stamp}
		case 1:
			payload = uavsim.GPSFix{UAV: uav, Position: pos, Quality: uavsim.GPSLost, Stamp: stamp}
		case 2:
			payload = uavsim.StatusReport{UAV: uav, Position: pos, Stamp: stamp}
		default:
			payload = "opaque"
		}
		msgs = append(msgs, rosbus.Message{Topic: topic, Publisher: node, Stamp: stamp, Payload: payload})
	}
	return msgs
}

// randomStream draws a stream whose stamps mostly advance, so the
// rate, silence and teleport rules all see both sides of their bounds.
// A monotone stream never steps its stamp backwards.
func randomStream(rng *rand.Rand, n int, monotone bool) []byte {
	data := make([]byte, 5*n)
	rng.Read(data)
	for i := 3; i < len(data); i += 5 {
		switch r := rng.Intn(10); {
		case r < 6:
			data[i] = byte(rng.Intn(8)) // forward up to 1.75 s
		case r < 8:
			data[i] = 0 // same stamp
		case r < 9 && !monotone:
			data[i] = byte(int8(-rng.Intn(40))) // back up to 10 s
		case r < 9:
			data[i] = 1
		default:
			data[i] = byte(20 + rng.Intn(30)) // a gap past the timeouts
		}
	}
	return data
}

func TestInspectDifferentialRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 16; i++ {
		msgs := decodeStream(randomStream(rng, 300, false))
		differ(t, strictConfig(), msgs)
		differ(t, ids.DefaultConfig(), msgs)
	}
}

func FuzzInspectDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		f.Add(randomStream(rng, 60, false))
	}
	f.Add([]byte{0, 4, 0, 4, 255, 0, 0, 0, 4, 1, 5, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*200 {
			data = data[:5*200]
		}
		msgs := decodeStream(data)
		differ(t, strictConfig(), msgs)
		differ(t, ids.DefaultConfig(), msgs)
	})
}

// TestRestoreStateRoundTrip restores a mid-stream State into a fresh
// IDS: State must read back byte-identical, and the restored IDS must
// then track the original message for message. On the non-monotone
// stream stamps step back, so the restored IDS must know the stamp the
// original last swept for silence, or it sweeps that stamp again.
func TestRestoreStateRoundTrip(t *testing.T) {
	cfg := strictConfig()
	for _, monotone := range []bool{true, false} {
		t.Run(fmt.Sprintf("monotone=%v", monotone), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			msgs := decodeStream(randomStream(rng, 400, monotone))
			cut := len(msgs) / 2
			bus := rosbus.NewBus()
			orig, err := ids.New(bus, mqttlite.NewBroker(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			for _, m := range msgs[:cut] {
				if err := bus.Deliver(m); err != nil {
					t.Fatal(err)
				}
			}

			want, err := json.Marshal(orig.State())
			if err != nil {
				t.Fatal(err)
			}
			var decoded ids.State
			if err := json.Unmarshal(want, &decoded); err != nil {
				t.Fatal(err)
			}
			rbus := rosbus.NewBus()
			restored, err := ids.New(rbus, mqttlite.NewBroker(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			restored.Restore(decoded)
			got, err := json.Marshal(restored.State())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("Restore -> State changed the document:\n got %s\nwant %s", got, want)
			}
			for i, m := range msgs[cut:] {
				if err := bus.Deliver(m); err != nil {
					t.Fatal(err)
				}
				if err := rbus.Deliver(m); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(restored.State(), orig.State()) {
					t.Fatalf("message %d after restore: the restored IDS diverges", cut+i)
				}
			}
			if !reflect.DeepEqual(restored.Alerts(), orig.Alerts()) {
				t.Fatal("the restored IDS raised different alerts")
			}
		})
	}

	// A hand-written document with every key kind round-trips too.
	doc := ids.State{
		Alerts:    []ids.Alert{{Type: ids.AlertTeleport, UAV: "u1", Topic: "/uav/u1/gps", Detail: "x", Stamp: 3}},
		Arrival:   map[string][]float64{"/uav/u1/gps": {1, 2, 3}, "/gcs/cmd": nil},
		LastSeen:  map[string]float64{"/uav/u1/gps": 3, "/uav/u2/status": 0},
		LastSweep: 3,
		LastGPS:   map[string]uavsim.GPSFix{"u1": {UAV: "u1", Position: streamHome, Stamp: 3}},
		LastOdo:   map[string]geo.LatLng{"u2": streamHome},
		LastHit:   map[string]float64{"teleport|u1": 3, "link-silence|": 9, "gps-anomaly|u|x": 1},
	}
	fresh, err := ids.New(rosbus.NewBus(), mqttlite.NewBroker(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fresh.Restore(doc)
	if got := fresh.State(); !reflect.DeepEqual(got, doc) {
		t.Fatalf("hand-written state round trip:\n got %+v\nwant %+v", got, doc)
	}
}
