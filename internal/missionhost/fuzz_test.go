package missionhost

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sesame/internal/scenario"
)

// FuzzParseSpec drives the POST /missions body parser with arbitrary
// input. Whatever it accepts must validate, and must survive the
// JSON round trip a park takes (meta.json) back to the same Spec, so a
// rehydrated mission rebuilds the mission that was created.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[1]`,
		`{"id":"m1","seed":1,"uavs":2,"persons":2,"horizon_s":600}`,
		`{"id":"a","seed":3,"archetype":"urban_canyon","tick_budget":4}`,
		`{"persons":-1,"cells":2,"horizon_s":0.5}`,
		`{"id":"bad id"}`,
		`{"archetype":"maritime_sar","uavs":3}`,
		`{"seed":-9,"horizon_s":-0}`,
		`{"scenario":null}`,
		`{"id":"x"} trailing`,
		`{"unknown":1}`,
	}
	if sc, err := scenario.Generate(2, "multi_site"); err == nil {
		if doc, err := json.Marshal(sc); err == nil {
			seeds = append(seeds, `{"id":"doc","scenario":`+string(doc)+`}`)
		}
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate rejects: %v", err)
		}
		again := s
		again.Normalize()
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v", s, again)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not serialize: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-parse: %v\n%s", err, out)
		}
		out2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-parsed spec does not serialize: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", out, out2)
		}
		// The embedded scenario comes back compacted; every other field
		// must come back unchanged.
		if (len(s.Scenario) > 0) != (len(back.Scenario) > 0) {
			t.Fatalf("round trip changed the mission kind: %s -> %s", s.Kind(), back.Kind())
		}
		s.Scenario, back.Scenario = nil, nil
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec: %+v -> %+v", s, back)
		}
	})
}
