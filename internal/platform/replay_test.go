package platform

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/linksim"
	"sesame/internal/uavsim"
)

// replayScenario is one record/crash/resume regime. Scenarios with
// link=true run behind a lossy linksim layer, the regime where delayed
// frames force the recorder to defer checkpoints to quiescent ticks.
type replayScenario struct {
	name    string
	cfg     func() Config
	seed    int64
	persons int
	link    bool
	faults  func(p *Platform, layer *linksim.Layer)
	horizon float64
}

func replayScenarios() []replayScenario {
	return []replayScenario{
		{"nominal", DefaultConfig, 2, 0, false, nil, 1200},
		{"spoofing-attack", DefaultConfig, 4, 0, false, func(p *Platform, _ *linksim.Layer) {
			at := p.World.Clock.Now() + 30
			_ = p.World.ScheduleFault(uavsim.GPSSpoofFault(at, "u2", 135, 3))
		}, 1500},
		{"battery-baseline", func() Config {
			c := DefaultConfig()
			c.SESAME = false
			return c
		}, 3, 0, false, func(p *Platform, _ *linksim.Layer) {
			at := p.World.Clock.Now() + 60
			_ = p.World.ScheduleFault(uavsim.BatteryCollapseFault(at, "u1", 70, 40))
		}, 1200},
		{"perception-descend", DefaultConfig, 5, 12, false, nil, 900},
		{"linksim-degraded", DefaultConfig, 21, 0, true, func(p *Platform, layer *linksim.Layer) {
			now := p.World.Clock.Now()
			layer.Link("u2").AddOutage(now+30, now+60)
		}, 1800},
		// Cell-sharded scheduler with a perception workload: checkpoints
		// must capture the per-vehicle split detector streams and the
		// merged shard counters, and the resumed run (pooled) must finish
		// bit-identically to the uninterrupted sharded runs.
		{"sharded-perception", func() Config {
			c := DefaultConfig()
			c.Cells = 2
			return c
		}, 5, 12, false, nil, 900},
	}
}

// buildReplayScenario rebuilds a scenario exactly the way every run of
// it starts: world + fleet, optional degraded link layer, mission
// start, fault schedule. Record, baseline and resume runs all go
// through here so their pre-checkpoint histories are identical.
func buildReplayScenario(t *testing.T, sc replayScenario, workers int) *Platform {
	t.Helper()
	cfg := sc.cfg()
	cfg.Workers = workers
	p := buildPlatform(t, cfg, sc.seed, sc.persons)
	var layer *linksim.Layer
	if sc.link {
		layer = attachLinkLayer(p)
		profile := linksim.Profile{DupProb: 0.1}
		for _, id := range []string{"u1", "u2", "u3"} {
			layer.Link(id).SetProfile(profile)
		}
	}
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	if sc.faults != nil {
		sc.faults(p, layer)
	}
	return p
}

// runUntil reproduces RunMission against a fixed absolute end time, so
// a resumed platform stops at exactly the tick the uninterrupted run
// stopped at.
func runUntil(t *testing.T, p *Platform, end float64) {
	t.Helper()
	for p.World.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
		if p.MissionComplete() {
			return
		}
	}
}

// TestReplayDeterminism is the flight recorder's acceptance test: a
// recorded mission, killed mid-flight and resumed from its latest
// checkpoint, must finish bit-identically to the uninterrupted run —
// and recording itself must not perturb the simulation. For every
// scenario it compares four digests: uninterrupted serial, uninterrupted
// pooled, recorded (serial), and resumed-from-checkpoint (pooled, which
// also proves recordings interoperate across scheduler pool sizes).
func TestReplayDeterminism(t *testing.T) {
	for _, sc := range replayScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Uninterrupted baselines.
			serial := buildReplayScenario(t, sc, 1)
			end := serial.World.Clock.Now() + sc.horizon
			runUntil(t, serial, end)
			want := digestPlatform(t, serial)

			pooled := buildReplayScenario(t, sc, 8)
			runUntil(t, pooled, end)
			if got := digestPlatform(t, pooled); got != want {
				t.Fatalf("pooled baseline diverges from serial: %s != %s", got, want)
			}

			// Recorded run: black box on, checkpoint every 25 ticks.
			dir := filepath.Join(t.TempDir(), "blackbox")
			recorded := buildReplayScenario(t, sc, 1)
			rec, err := flightrec.NewRecorder(dir, sc.seed, recorded.ConfigDigest(), 25, flightrec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			recorded.SetRecorder(rec)
			runUntil(t, recorded, end)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if got := digestPlatform(t, recorded); got != want {
				t.Fatalf("recording perturbed the run: %s != %s", got, want)
			}

			// Crash mid-flight: resume from the newest checkpoint at or
			// before the halfway tick, on a freshly rebuilt scenario.
			half := recorded.Ticks() / 2
			snap, hdr, err := flightrec.LatestSnapshot(dir, half)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Seed != sc.seed {
				t.Fatalf("recording header seed %d, want %d", hdr.Seed, sc.seed)
			}
			var ps PlatformSnapshot
			if err := json.Unmarshal(snap.State, &ps); err != nil {
				t.Fatal(err)
			}
			resumed := buildReplayScenario(t, sc, 8)
			if hdr.ConfigDigest != resumed.ConfigDigest() {
				t.Fatalf("recording config digest %s, platform %s", hdr.ConfigDigest, resumed.ConfigDigest())
			}
			resumeEnd := resumed.World.Clock.Now() + sc.horizon
			if resumeEnd != end {
				t.Fatalf("rebuilt scenario start diverges: end %v, want %v", resumeEnd, end)
			}
			if err := resumed.RestoreCheckpoint(&ps); err != nil {
				t.Fatal(err)
			}
			if resumed.Ticks() != snap.Tick {
				t.Fatalf("restored tick %d, checkpoint %d", resumed.Ticks(), snap.Tick)
			}
			runUntil(t, resumed, resumeEnd)
			if got := digestPlatform(t, resumed); got != want {
				t.Errorf("resumed run diverges from uninterrupted: %s != %s", got, want)
			}
		})
	}
}

// TestCheckpointRestoreErrors pins the restore path's guard rails.
func TestCheckpointRestoreErrors(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 7, 0)
	if _, err := p.Checkpoint(); err == nil {
		t.Error("checkpoint before StartMission must fail")
	}
	if err := p.RestoreCheckpoint(nil); err == nil {
		t.Error("nil checkpoint must fail")
	}
	if err := p.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Mismatched configuration is refused before any state moves.
	other := DefaultConfig()
	other.SurveyAltitudeM = 80
	q := buildPlatform(t, other, 7, 0)
	if err := q.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	if err := q.RestoreCheckpoint(snap); err == nil {
		t.Error("config digest mismatch must fail")
	}

	// A scenario already past the checkpoint time is refused.
	late := buildPlatform(t, DefaultConfig(), 7, 0)
	if err := late.StartMission(ClassicArea(350)); err != nil {
		t.Fatal(err)
	}
	for late.World.Clock.Now() <= snap.World.Time {
		if err := late.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := late.RestoreCheckpoint(snap); err == nil {
		t.Error("restore onto a scenario past the checkpoint must fail")
	}

	// Restore before StartMission is refused.
	fresh := buildPlatform(t, DefaultConfig(), 7, 0)
	if err := fresh.RestoreCheckpoint(snap); err == nil {
		t.Error("restore before StartMission must fail")
	}
}

// TestAppendRecordsMatchSchema pins the hand-rolled hot-path encoders
// to the tickRecord/busRecord schema: their output must be valid JSON
// that decodes into exactly the values reflective marshaling would
// have produced.
func TestAppendRecordsMatchSchema(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 11, 4)
	if err := p.StartMission(ClassicArea(400)); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 25; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	now := p.World.Clock.Now()
	raw := p.appendTickRecord(nil, now)
	if !json.Valid(raw) {
		t.Fatalf("appendTickRecord produced invalid JSON: %s", raw)
	}
	var got tickRecord
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := tickRecord{Tick: p.ticks, Time: now, Decision: p.decision.String()}
	for _, id := range p.order {
		st := p.states[id]
		want.UAVs = append(want.UAVs, tickUAVRecord{
			ID:         id,
			Mode:       st.uav.Mode().String(),
			Action:     st.action.String(),
			BatteryPct: st.uav.Battery.ChargePct,
			AltitudeM:  st.uav.AltitudeM(),
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tick record mismatch:\n got %+v\nwant %+v", got, want)
	}

	raw = p.appendBusRecord(nil)
	if !json.Valid(raw) {
		t.Fatalf("appendBusRecord produced invalid JSON: %s", raw)
	}
	var gotBus busRecord
	if err := json.Unmarshal(raw, &gotBus); err != nil {
		t.Fatal(err)
	}
	bs := p.World.Bus.Stats()
	wantBus := busRecord{
		Tick:           p.ticks,
		Published:      bs.Published,
		Delivered:      bs.Delivered,
		FilterConsumed: bs.FilterConsumed,
		DepthExceeded:  bs.DepthExceeded,
		TelemetryDrops: p.World.Drops().TelemetryPublish,
	}
	if gotBus != wantBus {
		t.Errorf("bus record mismatch:\n got %+v\nwant %+v", gotBus, wantBus)
	}
}

// TestAppendJSONString pins the fast path and the escape fallback.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "u1", "plain-id_42", `quote"back\slash`, "ctrl\x01char", "voilà"} {
		got := appendJSONString(nil, s)
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Errorf("appendJSONString(%q) = %s: %v", s, got, err)
			continue
		}
		if back != s {
			t.Errorf("appendJSONString(%q) round-tripped to %q", s, back)
		}
	}
}

// TestAppendEventRecordMatchesJSON pins the hand-rolled event encoder
// to encoding/json's schema for eddi.Event, including sorted Data keys.
func TestAppendEventRecordMatchesJSON(t *testing.T) {
	p := buildPlatform(t, DefaultConfig(), 1, 0)
	defer p.Close()
	events := []eddi.Event{
		{Kind: eddi.KindSafety, UAV: "u1", Time: 12.5, Severity: 0.8,
			Summary: `battery "low"`, Data: map[string]string{"pct": "18.3", "act": "swap", "a": "1"}},
		{Kind: eddi.KindSecurity, UAV: "u2", Time: 1e-5, Severity: 1},
	}
	for _, ev := range events {
		raw := p.appendEventRecord(nil, ev)
		if !json.Valid(raw) {
			t.Fatalf("invalid JSON: %s", raw)
		}
		var got eddi.Event
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("event round-trip mismatch:\n got %+v\nwant %+v", got, ev)
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var a, b map[string]interface{}
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("schema drift from encoding/json:\n hand %s\n json %s", raw, want)
		}
	}
}
