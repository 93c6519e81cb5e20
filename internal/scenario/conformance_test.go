package scenario_test

// The property-based conformance suite: every loadable scenario —
// generated or hand-written — must build a world that honors the
// repo's determinism contract (serial == pooled digests, sharded
// digests identical across cell counts, checkpoint/resume identity)
// and its safety invariants (every vehicle accounted for at every
// tick, no negative battery, only defined modes/actions/decisions,
// missions only complete with the whole fleet in a terminal state).
//
// The suite lives in the external test package so it can drive the
// scenarios through internal/platform, which sits above scenario in
// the import graph.

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sesame/internal/platform"
	"sesame/internal/scenario"
)

// update regenerates testdata/golden_digests.json from the current
// build: go test ./internal/scenario -run Golden -update
var update = flag.Bool("update", false, "rewrite golden digest testdata")

// knownModes is the complete uavsim flight-mode vocabulary; a status
// outside it means the platform lost track of a vehicle's state.
var knownModes = map[string]bool{
	"idle": true, "mission": true, "hold": true, "return-to-base": true,
	"landing": true, "emergency-landing": true, "landed": true, "crashed": true,
}

// terminalModes are the modes a completed mission may leave a vehicle
// in — everything else means the mission "completed" mid-flight.
var terminalModes = map[string]bool{
	"idle": true, "hold": true, "landed": true, "crashed": true,
}

// launch builds the scenario into a running mission with the given
// scheduler layout. Cells is digested, so checkpoint pairs must agree
// on it; Workers is not.
func launch(t *testing.T, sc *scenario.Scenario, workers, cells int) *platform.ScenarioRun {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Workers = workers
	cfg.Cells = cells
	run, err := platform.LaunchScenario(sc, cfg)
	if err != nil {
		t.Fatalf("LaunchScenario(%s): %v", sc.Name, err)
	}
	t.Cleanup(run.Platform.Close)
	return run
}

// digest replicates the platform test suite's digestPlatform: a hash
// over everything observable about a run — the Fig. 4 status, the
// mission decision, the full event history and the fleet availability.
func digest(t *testing.T, p *platform.Platform) string {
	t.Helper()
	blob := struct {
		Status   platform.Status
		Decision string
		History  interface{}
	}{p.Status(), p.Decision().String(), p.Coordinator.History("")}
	data, err := json.Marshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := p.Availability(); err == nil {
		data = append(data, []byte(fmt.Sprintf("avail=%.12f", a))...)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// checkSafety asserts the per-tick safety invariants on a running
// scenario: the status accounts for exactly the declared fleet, no
// battery reads negative, and every mode/action/decision is a defined
// enum value (the fail-safe vocabulary is always reachable, never an
// out-of-range code).
func checkSafety(t *testing.T, sc *scenario.Scenario, p *platform.Platform, tag string) {
	t.Helper()
	st := p.Status()
	if len(st.UAVs) != len(sc.Fleet) {
		t.Fatalf("%s: status accounts for %d of %d vehicles", tag, len(st.UAVs), len(sc.Fleet))
	}
	seen := make(map[string]bool, len(st.UAVs))
	for _, u := range st.UAVs {
		seen[u.ID] = true
		if !knownModes[u.Mode] {
			t.Fatalf("%s: %s in undefined mode %q", tag, u.ID, u.Mode)
		}
		if !(u.BatteryPct >= 0) { // also catches NaN
			t.Fatalf("%s: %s battery %v below zero", tag, u.ID, u.BatteryPct)
		}
		if strings.HasPrefix(u.Action, "UAVAction(") {
			t.Fatalf("%s: %s advised undefined action %q", tag, u.ID, u.Action)
		}
	}
	for _, id := range sc.FleetIDs() {
		if !seen[id] {
			t.Fatalf("%s: vehicle %s lost from status", tag, id)
		}
	}
	if strings.HasPrefix(st.Decision, "MissionDecision(") {
		t.Fatalf("%s: undefined mission decision %q", tag, st.Decision)
	}
	if p.MissionComplete() {
		for _, u := range st.UAVs {
			if !terminalModes[u.Mode] {
				t.Fatalf("%s: mission complete with %s still %q", tag, u.ID, u.Mode)
			}
		}
	}
}

// tickN drives n platform ticks, checking the safety invariants after
// every one.
func tickN(t *testing.T, sc *scenario.Scenario, p *platform.Platform, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.Tick(); err != nil {
			t.Fatalf("%s: tick %d: %v", tag, i, err)
		}
		checkSafety(t, sc, p, tag)
	}
}

// drainClock fires every pending clock event (delayed link frames) at
// its scheduled stamp, the quiescence Checkpoint requires. The same
// drain happens on both sides of a checkpoint pair, so the pair stays
// comparable.
func drainClock(t *testing.T, p *platform.Platform) {
	t.Helper()
	for i := 0; p.World.Clock.Pending() > 0; i++ {
		if i >= 1<<20 {
			t.Fatal("clock did not quiesce")
		}
		p.World.Clock.Step()
	}
}

// fly launches the scenario, runs it for ticks with invariant checks,
// and returns its digest.
func fly(t *testing.T, sc *scenario.Scenario, workers, cells, ticks int, tag string) string {
	t.Helper()
	run := launch(t, sc, workers, cells)
	tickN(t, sc, run.Platform, ticks, tag)
	return digest(t, run.Platform)
}

// TestScenarioProperty is the generative acceptance gate: at least 100
// generated scenarios (including in -short), cycling through every
// archetype, must each pass the full determinism battery.
//
//   - one digest for every layout: serial (Workers=1) == pooled
//     (Workers=8) in the one-cell layout == sharded over 2 and 3
//     cells, detection scene or not;
//   - a checkpoint taken mid-flight, and one taken before the first
//     tick, from the serial one-cell run and restored onto a freshly
//     built pooled platform over 3 cells must finish bit-identically
//     to the donor run. The tick-0 case covers timeline faults already
//     due at launch but not yet injected.
//
// Safety invariants are checked after every tick of every run.
func TestScenarioProperty(t *testing.T) {
	const cases = 102
	const ticks = 40
	archs := scenario.Archetypes()
	for i := 0; i < cases; i++ {
		i := i
		arch := archs[i%len(archs)]
		t.Run(fmt.Sprintf("%03d-%s", i, arch), func(t *testing.T) {
			t.Parallel()
			seed := int64(i)*7919 + 5
			sc, err := scenario.Generate(seed, arch)
			if err != nil {
				t.Fatal(err)
			}

			serial := fly(t, sc, 1, 1, ticks, "serial")
			for _, v := range []struct {
				workers, cells int
				tag            string
			}{{8, 1, "pooled"}, {1, 2, "sharded-2"}, {8, 3, "sharded-3"}} {
				if got := fly(t, sc, v.workers, v.cells, ticks, v.tag); got != serial {
					t.Errorf("%s run diverges from serial: %s != %s", v.tag, got, serial)
				}
			}

			// Checkpoint/resume identity: kill the serial run at tick 0
			// and halfway, restore onto a pooled rebuild over another
			// cell count, fly both to the same end.
			for _, at := range []int{0, ticks / 2} {
				donor := launch(t, sc, 1, 1)
				tickN(t, sc, donor.Platform, at, "donor")
				drainClock(t, donor.Platform)
				snap, err := donor.Platform.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at tick %d: %v", at, err)
				}
				resumed := launch(t, sc, 8, 3)
				if err := resumed.Platform.RestoreCheckpoint(snap); err != nil {
					t.Fatalf("restore at tick %d: %v", at, err)
				}
				tickN(t, sc, donor.Platform, ticks-at, "donor-cont")
				tickN(t, sc, resumed.Platform, ticks-at, "resumed")
				if got, want := digest(t, resumed.Platform), digest(t, donor.Platform); got != want {
					t.Errorf("run resumed at tick %d diverges from donor: %s != %s", at, got, want)
				}
			}
		})
	}
}

// TestGeneratedScenarioStability pins that generation is a pure
// function of (seed, archetype): same inputs, same digest; different
// archetypes on the same seed, unrelated worlds.
func TestGeneratedScenarioStability(t *testing.T) {
	for _, arch := range scenario.Archetypes() {
		a, err := scenario.Generate(99, arch)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scenario.Generate(99, arch)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: generation not reproducible: %s != %s", arch, a.Digest(), b.Digest())
		}
	}
	m, _ := scenario.Generate(7, scenario.MaritimeSAR)
	u, _ := scenario.Generate(7, scenario.UrbanCanyon)
	if m.Digest() == u.Digest() {
		t.Error("different archetypes produced identical scenarios")
	}
}

// golden is one pinned canonical scenario: its schema digest and the
// digest of a 50-tick serial run under the default platform config.
type golden struct {
	File           string `json:"file"`
	ScenarioDigest string `json:"scenario_digest"`
	RunDigest      string `json:"run_digest"`
}

const goldenPath = "testdata/golden_digests.json"

// examplesDir is the repo's commented canonical scenario set.
const examplesDir = "../../examples/scenarios"

// loadExample reads and strictly parses one canonical scenario file.
func loadExample(t *testing.T, file string) *scenario.Scenario {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(examplesDir, file))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCanonicalScenarioGoldens validates every example scenario —
// loads it strictly, flies it for 50 ticks with the safety invariants
// checked each tick — and pins both its schema digest and its run
// digest against testdata. A golden drift means the scenario layer
// changed observable behavior; regenerate deliberately with -update.
func TestCanonicalScenarioGoldens(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) < 3 {
		t.Fatalf("expected at least 3 canonical scenarios in %s, found %d", examplesDir, len(files))
	}

	var got []golden
	for _, file := range files {
		sc := loadExample(t, file)
		run := launch(t, sc, 0, 0)
		tickN(t, sc, run.Platform, 50, file)
		got = append(got, golden{
			File:           file,
			ScenarioDigest: sc.Digest(),
			RunDigest:      digest(t, run.Platform),
		})
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden file pins %d scenarios, examples dir has %d (regenerate with -update)",
			len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden drift for %s:\n got %+v\nwant %+v", got[i].File, got[i], want[i])
		}
	}
}
