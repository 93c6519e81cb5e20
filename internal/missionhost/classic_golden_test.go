package missionhost

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates testdata/classic_goldens.json from the current
// build: go test ./internal/missionhost -run ClassicMissionGoldens -update
var update = flag.Bool("update", false, "rewrite golden digest testdata")

const classicGoldenPath = "testdata/classic_goldens.json"

// classicGolden is one pinned classic mission: its Spec and the digest
// FlyStandalone reports for it.
type classicGolden struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// TestClassicMissionGoldens pins the classic demo mission (the Spec
// shape with neither Archetype nor Scenario) over seeds, fleet sizes
// and an empty scene. A drift means the classic mission's world,
// fleet, survey square or scene changed; regenerate deliberately with
// -update. The eight flights take well under a second.
func TestClassicMissionGoldens(t *testing.T) {
	var got []classicGolden
	for _, seed := range []int64{1, 2} {
		for _, uavs := range []int{3, 5} {
			for _, persons := range []int{10, -1} {
				name := fmt.Sprintf("seed%d-uavs%d-persons%d", seed, uavs, persons)
				digest, err := FlyStandalone(Spec{Seed: seed, UAVs: uavs, Persons: persons})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got = append(got, classicGolden{Name: name, Digest: digest})
			}
		}
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
		t.Fatalf("golden file pins %d missions, the table has %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("golden %d is %s, the table has %s (regenerate with -update)", i, want[i].Name, got[i].Name)
		}
		if got[i].Digest != want[i].Digest {
			t.Errorf("golden drift for %s:\n got %s\nwant %s", got[i].Name, got[i].Digest, want[i].Digest)
		}
	}
}
