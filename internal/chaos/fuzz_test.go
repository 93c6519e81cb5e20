package chaos

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	"sesame/internal/simclock"
)

// FuzzPlanParse hardens the chaos-plan loader: arbitrary bytes must
// either be rejected with an error or produce a plan that validates,
// round-trips through JSON, and builds a working Layer — never a
// panic, and never an accepted-but-invalid plan that would desync a
// distributed injection schedule.
func FuzzPlanParse(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":7}`))
	f.Add([]byte(`{"name":"p","seed":-1,"monitors":[{"uav":"u1","mode":"panic","window":{"from_s":10,"to_s":20},"prob":1}]}`))
	f.Add([]byte(`{"bus":[{"match":"telemetry/","prob":0.25}],"db":[{"window":{"to_s":60},"prob":0.5}]}`))
	f.Add([]byte(`{"recorder":[{"op":"corrupt-snapshot","prob":1}],"workers":[{"indices":[0,3],"attempts":2}]}`))
	f.Add([]byte(`{"monitors":[{"mode":"latency","prob":0.5,"latency_us":100}]}`))
	f.Add([]byte(`{"seed":1} trailing`))
	f.Add([]byte(`{"monitors":[{"mode":"panic","prob":2}]}`))
	f.Add([]byte(`{"bus":[{"prob":1e309}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := LoadPlan(data)
		if err != nil {
			return
		}
		// Accepted plans are valid by contract...
		if err := plan.Validate(); err != nil {
			t.Fatalf("LoadPlan accepted an invalid plan: %v", err)
		}
		// ...build a layer...
		if _, err := New(simclock.New(0), plan); err != nil {
			t.Fatalf("New rejected an accepted plan: %v", err)
		}
		// ...and survive a serialize/parse round trip (the resume path:
		// the same plan file is loaded again by the resumed process).
		out, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := LoadPlan(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.Seed != plan.Seed || len(again.Monitors) != len(plan.Monitors) ||
			len(again.Bus) != len(plan.Bus) || len(again.Broker) != len(plan.Broker) ||
			len(again.DB) != len(plan.DB) || len(again.Recorder) != len(plan.Recorder) ||
			len(again.Workers) != len(plan.Workers) {
			t.Fatalf("round trip mismatch: %+v vs %+v", again, plan)
		}
		// ...and spells every key exactly.
		for _, folded := range foldedKeys(out) {
			if _, err := LoadPlan(folded); err == nil {
				t.Fatalf("LoadPlan accepted a case-folded key: %s", folded)
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
