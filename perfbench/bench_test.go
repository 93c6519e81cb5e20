package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sesame/internal/missionhost"
	"sesame/internal/scenario"
)

// selfTestUnits keeps each self-test pass short while still flying
// every code path: whole missions, sharded ticks, full host rounds.
var selfTestUnits = map[string]int{"paper3": 4, "fleet1k": 5, "hosted": 20}

// countMetrics are the per-layer metrics that are exact counts of
// simulated work, so two runs that do the same units must agree on
// them bit for bit.
var countMetrics = []string{
	"eddi.evals_per_uav_tick",
	"rosbus.delivered_per_uav_tick",
	"ids.rule_evals_per_uav_tick",
	"ids.alerts_per_1k_rule_evals",
	"linksim.delivered_ratio",
	"missionhost.ticks_per_round",
	"missionhost.replay_park_ratio",
	"missionhost.replay_ticks_per_resume",
	"missionhost.cache_hit_ratio",
	"flightrec.checkpoint_bytes_p50",
}

// selfRun runs the untraced and the traced pass of one workload for a
// fixed number of units.
func selfRun(t *testing.T, workload string, seed int64) (plain, traced *pass) {
	t.Helper()
	opts := options{workload: workload, seed: seed, seconds: 600, maxUnits: selfTestUnits[workload], out: t.TempDir()}
	plain, err := runPass(opts, false)
	if err != nil {
		t.Fatalf("untraced pass: %v", err)
	}
	traced, err = runPass(opts, true)
	if err != nil {
		t.Fatalf("traced pass: %v", err)
	}
	return plain, traced
}

// TestSameSeedSameCounts: two runs at one seed give identical count
// metrics and identical output-check digests.
func TestSameSeedSameCounts(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			p1, t1 := selfRun(t, wl, 1)
			p2, t2 := selfRun(t, wl, 1)
			if len(p1.digests) == 0 {
				t.Fatal("the output checks compared no digests")
			}
			if !reflect.DeepEqual(p1.digests, p2.digests) {
				t.Errorf("digests differ between runs:\n%v\n%v", p1.digests, p2.digests)
			}
			v1, v2 := perLayerValues(p1, t1), perLayerValues(p2, t2)
			for _, name := range countMetrics {
				if v1[name] != v2[name] {
					t.Errorf("%s: %v then %v", name, v1[name], v2[name])
				}
			}
			if p1.uavTicks != p2.uavTicks || p1.attempted != p2.attempted {
				t.Errorf("work differs: %v/%d then %v/%d UAV-ticks/units", p1.uavTicks, p1.attempted, p2.uavTicks, p2.attempted)
			}
		})
	}
}

// TestSecondSeedPassesChecks: another workload seed passes every output
// check on both passes.
func TestSecondSeedPassesChecks(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			plain, traced := selfRun(t, wl, 2)
			for _, ps := range []*pass{plain, traced} {
				if ps.failed != 0 || ps.attempted != selfTestUnits[wl] {
					t.Errorf("traced=%v: %d of %d units failed: %v", ps.traced, ps.failed, ps.attempted, ps.errs)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric names and
// units in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range perLayer {
		layer = append(layer, entry{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end: BENCHMARK.json %v, benchmark %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("per_layer: BENCHMARK.json %v, benchmark %v", spec.PerLayer, layer)
	}
}

// TestParkBeforeFirstTick: a generated-scenario mission parked before
// its first tick and resumed must finish with the digest of its spec
// flown standalone. On the current code several seeds differ (a known
// missionhost/platform defect, left for a program fix); the hosted
// workload therefore parks no mission before it has flown a round.
func TestParkBeforeFirstTick(t *testing.T) {
	for _, arch := range []string{scenario.UrbanCanyon, scenario.MaritimeSAR} {
		for seed := int64(1); seed <= 12; seed++ {
			spec := missionhost.Spec{ID: "m", Seed: seed, Archetype: arch}
			want, err := missionhost.FlyStandalone(spec)
			if err != nil {
				t.Fatal(err)
			}
			h, err := missionhost.New(missionhost.Config{Workers: 1, MaxLive: 1, TickBudget: hostedTickBudget, ParkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Create(spec); err != nil {
				t.Fatal(err)
			}
			if err := h.Park("m"); err != nil {
				t.Fatal(err)
			}
			if err := h.Resume("m"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < hostedFinishRounds; i++ {
				if in, err := h.Info("m"); err != nil || in.Done {
					break
				}
				h.Round()
			}
			got, err := h.Digest("m")
			h.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s seed %d parked at tick 0: hosted digest %s != standalone %s", arch, seed, got, want)
			}
		}
	}
}
