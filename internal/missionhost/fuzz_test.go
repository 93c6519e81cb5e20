package missionhost

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"testing"

	"sesame/internal/scenario"
)

// FuzzParseSpec drives the POST /missions body parser with arbitrary
// input. Whatever it accepts must validate, and must survive the
// JSON round trip a park takes (meta.json) back to the same Spec, so a
// rehydrated mission rebuilds the mission that was created, and no key
// of it may be spelled in another case.
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
		// Keys are exact, in the spec and in its embedded scenario.
		for _, folded := range foldedKeys(out) {
			if _, err := ParseSpec(folded); err == nil {
				t.Fatalf("ParseSpec accepted a case-folded key: %s", folded)
			}
		}
	})
}

// foldedKeys returns one copy of the canonical JSON document doc per
// distinct object key, with that key upper-cased: keys that match a
// field only when case is ignored, which a strict parser must refuse.
func foldedKeys(doc []byte) [][]byte {
	var out [][]byte
	seen := make(map[string]bool)
	for _, m := range objectKey.FindAllSubmatchIndex(doc, -1) {
		key := string(doc[m[2]:m[3]])
		if seen[key] {
			continue
		}
		seen[key] = true
		v := append(append([]byte{}, doc[:m[2]]...), bytes.ToUpper(doc[m[2]:m[3]])...)
		out = append(out, append(v, doc[m[3]:]...))
	}
	return out
}

// objectKey matches an object key in encoding/json output, where every
// quote inside a string value is escaped.
var objectKey = regexp.MustCompile(`[{,]"([^"\\]+)":`)
