package campaign

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sesame/internal/linksim"
)

// update regenerates testdata/classic_goldens.json from the current
// build: go test ./internal/campaign -run ClassicMissionGoldens -update
var update = flag.Bool("update", false, "rewrite golden digest testdata")

const classicGoldenPath = "testdata/classic_goldens.json"

// builtinGrid mirrors sesame-campaign's built-in demo grid at seed 1:
// 4 seeds × 3 link conditions × 3 fault scenarios = 36 runs, indexed
// seed-major, then link, then fault.
func builtinGrid() Spec {
	return Spec{
		Name:      "demo",
		SeedFrom:  1,
		SeedCount: 4,
		HorizonS:  900,
		Links: []LinkVariant{
			{Name: "nominal"},
			{Name: "lossy-10", Profile: linksim.Profile{DropProb: 0.10}},
			{Name: "blackout-60s", OutageStartS: 120, OutageDurS: 60},
		},
		Faults: []FaultVariant{
			{Name: "none"},
			{Name: "battery-60", BatteryAtS: 60},
			{Name: "spoof-30", SpoofAtS: 30},
		},
	}
}

// classicGolden is one pinned grid point: its run key and the digest
// RerunOne reproduces for it.
type classicGolden struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Ticks  uint64 `json:"ticks"`
	Digest string `json:"digest"`
}

// TestClassicMissionGoldens pins standalone reruns of built-in grid
// points on the classic mission path — a clean run, a lossy link with
// the battery collapse, an outage with the spoofing attack, a lossy
// link with the spoofing attack on the next seed — plus the outage
// grid point with both faults injected in one run. A drift means the
// classic campaign mission changed; regenerate deliberately with
// -update.
func TestClassicMissionGoldens(t *testing.T) {
	grid := builtinGrid()
	cocktail := builtinGrid()
	cocktail.Faults = []FaultVariant{{Name: "battery-60-spoof-30", BatteryAtS: 60, SpoofAtS: 30}}
	cases := []struct {
		spec  Spec
		index int
	}{{grid, 0}, {grid, 4}, {grid, 8}, {grid, 14}, {cocktail, 2}}
	var got []classicGolden
	for _, c := range cases {
		res, err := RerunOne(c.spec, c.index)
		if err != nil {
			t.Fatalf("run %d: %v", c.index, err)
		}
		got = append(got, classicGolden{Index: c.index, Key: res.Key, Ticks: res.Ticks, Digest: res.Digest})
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(classicGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(classicGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", classicGoldenPath)
		return
	}

	data, err := os.ReadFile(classicGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []classicGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden file pins %d runs, the table has %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden drift for %s:\n got %+v\nwant %+v", got[i].Key, got[i], want[i])
		}
	}
}
