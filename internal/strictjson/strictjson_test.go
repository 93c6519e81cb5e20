package strictjson

import (
	"encoding/json"
	"strings"
	"testing"
)

type inner struct {
	Name string `json:"name"`
}

type doc struct {
	Seed    int64              `json:"seed"`
	Plain   int                // untagged: its Go name is its key
	Skipped int                `json:"-"`
	Items   []inner            `json:"items"`
	Ptr     *inner             `json:"ptr"`
	Labels  map[string]inner   `json:"labels"`
	Raw     json.RawMessage    `json:"raw"`
	Any     any                `json:"any"`
	Grid    [2][]inner         `json:"grid"`
	Nested  map[string][]inner `json:"nested"`
}

func TestDecodeAcceptsExactKeys(t *testing.T) {
	in := `{"seed":2,"Plain":3,"items":[{"name":"a"}],"ptr":{"name":"b"},
		"labels":{"ANY Key":{"name":"c"}},"raw":{"Whatever":{"CASE":1}},"any":{"Free":[{"X":1}]},
		"grid":[[{"name":"d"}],[]],"nested":{"K":[{"name":"e"}]}}`
	var d doc
	if err := Decode([]byte(in), &d); err != nil {
		t.Fatal(err)
	}
	if d.Seed != 2 || d.Plain != 3 || d.Items[0].Name != "a" || d.Ptr.Name != "b" ||
		d.Labels["ANY Key"].Name != "c" || string(d.Raw) != `{"Whatever":{"CASE":1}}` ||
		d.Grid[0][0].Name != "d" || d.Nested["K"][0].Name != "e" {
		t.Fatalf("decoded %+v", d)
	}
}

func TestDecodeRefuses(t *testing.T) {
	for name, in := range map[string]string{
		"case-folded key":         `{"SEED":2}`,
		"case-folded duplicate":   `{"seed":2,"Seed":4}`,
		"case-folded untagged":    `{"plain":3}`,
		"case-folded in slice":    `{"items":[{"name":"a"},{"NAME":"b"}]}`,
		"case-folded via pointer": `{"ptr":{"Name":"b"}}`,
		"case-folded map value":   `{"labels":{"k":{"nAme":"c"}}}`,
		"case-folded in array":    `{"grid":[[],[{"Name":"d"}]]}`,
		"unknown field":           `{"bogus":1}`,
		"skipped field":           `{"Skipped":1}`,
		"trailing document":       `{"seed":1} {"seed":2}`,
		"trailing value":          `{"seed":1} 5`,
		"trailing delimiter":      `{"seed":1}}`,
		"syntax error":            `{"seed":`,
	} {
		var d doc
		if err := Decode([]byte(in), &d); err == nil {
			t.Errorf("%s: %s accepted", name, in)
		}
	}
}

func TestDecodeNamesTheKey(t *testing.T) {
	var d doc
	err := Decode([]byte(`{"items":[{"name":"a"},{"NAME":"b"}]}`), &d)
	if err == nil || !strings.Contains(err.Error(), `unknown field "NAME"`) {
		t.Fatalf("error %v does not name the key", err)
	}
}
