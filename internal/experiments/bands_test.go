package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"sesame/internal/campaign"
)

// paperBands is testdata/paper_bands.json: the seed sweep, the
// campaign spec whose fault variants the campaign samples come from,
// and one band per paper claim.
type paperBands struct {
	Notes      string        `json:"notes"`
	SeedFrom   int64         `json:"seed_from"`
	Seeds      int           `json:"seeds"`
	ShortSeeds int           `json:"short_seeds"`
	Campaign   campaign.Spec `json:"campaign"`
	Bands      []paperBand   `json:"bands"`
}

// paperBand bounds one statistic of one per-seed sample. Paper and
// Parent document where the bound comes from; only Min/Max gate.
type paperBand struct {
	ID        string   `json:"id"`
	Section   string   `json:"section"`
	Claim     string   `json:"claim"`
	Sample    string   `json:"sample"`
	Statistic string   `json:"statistic"`
	Threshold float64  `json:"threshold,omitempty"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	Paper     *float64 `json:"paper"`
	Parent    float64  `json:"parent"`
}

// bandStatistic reduces a sample with the campaign engine's kernels:
// "p95" is the nearest-rank 95th percentile, "share_at_least" the
// share of values >= threshold read off the ECDF.
func bandStatistic(b paperBand, xs []float64) (float64, error) {
	switch b.Statistic {
	case "p95":
		return campaign.Percentile(xs, 0.95), nil
	case "share_at_least":
		below := 0.0
		for _, pt := range campaign.ECDF(xs) {
			if pt.X < b.Threshold {
				below = pt.P
			}
		}
		return 1 - below, nil
	}
	return 0, fmt.Errorf("band %s: unknown statistic %q", b.ID, b.Statistic)
}

// campaignSample reads one field of every result of a fault variant.
// A detection that never happened (-1) counts as infinitely late.
func campaignSample(results []campaign.Result, fault, field string) ([]float64, error) {
	var xs []float64
	for _, r := range results {
		if r.Fault != fault {
			continue
		}
		var v float64
		switch field {
		case "safety_detect_s":
			v = r.SafetyDetectS
		case "security_detect_s":
			v = r.SecurityDetectS
		case "completed":
			if r.Completed {
				v = 1
			}
		default:
			return nil, fmt.Errorf("unknown campaign field %q", field)
		}
		if v < 0 {
			v = math.Inf(1)
		}
		xs = append(xs, v)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("no campaign runs of fault variant %q", fault)
	}
	return xs, nil
}

// TestPaperBands gates the paper's §V claims as tolerance bands over
// a seed sweep, so a deliberate re-pin of the mission digests is
// still held to the paper's results. The bands live in one reviewed
// file, testdata/paper_bands.json.
func TestPaperBands(t *testing.T) {
	data, err := os.ReadFile("testdata/paper_bands.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg paperBands
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	seeds := cfg.Seeds
	if testing.Short() {
		seeds = cfg.ShortSeeds
	}

	samples := map[string][]float64{}
	for s := cfg.SeedFrom; s < cfg.SeedFrom+int64(seeds); s++ {
		r, err := RunFig5(s)
		if err != nil {
			t.Fatalf("fig5 seed %d: %v", s, err)
		}
		samples["fig5.improvement_pct"] = append(samples["fig5.improvement_pct"], r.ImprovementPct)
		f7, err := RunFig7(s)
		if err != nil {
			t.Fatalf("fig7 seed %d: %v", s, err)
		}
		landed, landErr := 0.0, math.Inf(1)
		if f7.LandedOK {
			landed, landErr = 1, f7.LandingErrorM
		}
		samples["fig7.landed"] = append(samples["fig7.landed"], landed)
		samples["fig7.landing_error_m"] = append(samples["fig7.landing_error_m"], landErr)
	}

	spec := cfg.Campaign
	spec.SeedFrom, spec.SeedCount = cfg.SeedFrom, seeds
	var results []campaign.Result
	eng, err := campaign.New(spec, campaign.Options{
		OutDir:   t.TempDir(),
		OnResult: func(r campaign.Result) { results = append(results, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, b := range cfg.Bands {
		xs, ok := samples[b.Sample]
		if !ok {
			parts := strings.Split(b.Sample, ":")
			if len(parts) != 3 || parts[0] != "campaign" {
				t.Fatalf("band %s: unknown sample %q", b.ID, b.Sample)
			}
			if xs, err = campaignSample(results, parts[1], parts[2]); err != nil {
				t.Fatalf("band %s: %v", b.ID, err)
			}
		}
		got, err := bandStatistic(b, xs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s (%s): %s over %d seeds = %g (parent %g)", b.ID, b.Section, b.Statistic, seeds, got, b.Parent)
		if b.Min != nil && !(got >= *b.Min) {
			t.Errorf("%s (%s): %s = %g, below the band's %g (%s)", b.ID, b.Section, b.Statistic, got, *b.Min, b.Claim)
		}
		if b.Max != nil && !(got <= *b.Max) {
			t.Errorf("%s (%s): %s = %g, above the band's %g (%s)", b.ID, b.Section, b.Statistic, got, *b.Max, b.Claim)
		}
	}
}
