package scenario

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"
)

// FuzzScenarioParse throws arbitrary bytes at the strict loader. The
// contract under fuzz: Load never panics, and anything it accepts is
// fully valid — it re-validates, re-serializes, and reloads to an
// identical digest (no parse/serialize asymmetry a campaign manifest
// could smuggle state through); and no key of it may be spelled in
// another case.
func FuzzScenarioParse(f *testing.F) {
	seeds := [][]byte{
		[]byte(``),
		[]byte(`{}`),
		[]byte(`{"name":"x","seed":1,"origin":{"lat":35,"lng":33},"horizon_s":60,` +
			`"sites":[{"area":[{"lat":35.001,"lng":33.001},{"lat":35.001,"lng":33.002},` +
			`{"lat":35.002,"lng":33.002}]}],"fleet":[{"id":"u1"}]}`),
		[]byte(`{"name":"x","unknown_field":true}`),
		[]byte(`{"name":"x"} trailing`),
		[]byte(`{"name":"x","horizon_s":1e999}`),
		[]byte(`[1,2,3]`),
		[]byte(`null`),
	}
	for _, arch := range Archetypes() {
		if sc, err := Generate(1, arch); err == nil {
			if data, err := json.Marshal(sc); err == nil {
				seeds = append(seeds, data)
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario Validate rejects: %v", err)
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not serialize: %v", err)
		}
		back, err := Load(out)
		if err != nil {
			t.Fatalf("accepted scenario does not reload: %v", err)
		}
		if back.Digest() != sc.Digest() {
			t.Fatalf("round trip changed digest: %s != %s", back.Digest(), sc.Digest())
		}
		for _, folded := range foldedKeys(out) {
			if _, err := Load(folded); err == nil {
				t.Fatalf("Load accepted a case-folded key: %s", folded)
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
