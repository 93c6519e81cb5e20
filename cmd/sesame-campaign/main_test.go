package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesame/internal/campaign"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no out", []string{}, "-out is required"},
		{"positional", []string{"-out", "d", "stray"}, "unexpected arguments"},
		{"bad workers", []string{"-out", "d", "-workers", "-1"}, "must be >= 0"},
		{"bad max-runs", []string{"-out", "d", "-max-runs", "-3"}, "must be >= 0"},
		{"print-spec without out", []string{"-print-spec"}, ""},
		{"ok", []string{"-spec", "s.json", "-out", "d", "-resume", "-workers", "2"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseArgs(%v): %v", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseArgs(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestPrintSpecIsValidSpec(t *testing.T) {
	var out bytes.Buffer
	opts, err := parseArgs([]string{"-print-spec"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(opts, &out); err != nil {
		t.Fatal(err)
	}
	// The dumped spec must round-trip through the strict -spec loader.
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opts2, err := parseArgs([]string{"-spec", path, "-print-spec"})
	if err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := run(opts2, &out2); err != nil {
		t.Fatalf("re-loading dumped spec: %v", err)
	}
	if out.String() != out2.String() {
		t.Fatal("spec dump is not a fixed point of load+dump")
	}
}

func TestSpecLoadRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"name":"x","sed_count":3}`,
		`{"name":"x","SEED_COUNT":3}`, // matches seed_count only when case is ignored
		`{"name":"x","links":[{"NAME":"nominal"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		opts, err := parseArgs([]string{"-spec", path, "-print-spec"})
		if err != nil {
			t.Fatal(err)
		}
		if err := run(opts, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("misspelled spec field in %s not rejected: %v", doc, err)
		}
	}
}

// TestKillResumeRoundTrip drives the CLI the way an operator would:
// a sweep cut short by -max-runs, then -resume, must produce outputs
// byte-identical to an uninterrupted sweep of the same spec file.
func TestKillResumeRoundTrip(t *testing.T) {
	specJSON := `{
  "name": "cli-test",
  "seed_from": 1,
  "seed_count": 2,
  "horizon_s": 240,
  "area_side_m": 200,
  "links": [{"name": "nominal"}, {"name": "lossy", "profile": {"drop_prob": 0.1}}],
  "faults": [{"name": "spoof-30", "spoof_at_s": 30}]
}`
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref")
	cut := filepath.Join(dir, "cut")

	mustRun := func(args ...string) string {
		t.Helper()
		opts, err := parseArgs(args)
		if err != nil {
			t.Fatalf("parseArgs(%v): %v", args, err)
		}
		var out bytes.Buffer
		if err := run(opts, &out); err != nil {
			t.Fatalf("run(%v): %v\n%s", args, err, out.String())
		}
		return out.String()
	}

	mustRun("-spec", spec, "-out", ref, "-workers", "2", "-progress-every", "0")
	cutOut := mustRun("-spec", spec, "-out", cut, "-workers", "2", "-max-runs", "1", "-progress-every", "0")
	if !strings.Contains(cutOut, "stopped early") {
		t.Fatalf("cut sweep did not report early stop:\n%s", cutOut)
	}
	mustRun("-spec", spec, "-out", cut, "-workers", "2", "-resume", "-progress-every", "0")

	// Resuming without -resume must refuse rather than overwrite.
	opts, err := parseArgs([]string{"-spec", spec, "-out", cut})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(opts, &bytes.Buffer{}); err == nil {
		t.Fatal("re-running into a journaled directory without -resume did not fail")
	}

	for _, name := range []string{
		campaign.RunsCSVName, campaign.RunsJSONLName,
		campaign.CurvesCSVName, campaign.ECDFCSVName,
		campaign.AggregatesName, campaign.ManifestName,
	} {
		a, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(cut, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between uninterrupted and resumed sweep", name)
		}
	}
}

// TestChaosKillResumeRoundTrip drives -chaos + -run-retries through
// the CLI: one run quarantined after exhausting its retries, one
// healed by a retry — and a sweep cut by -max-runs then resumed (same
// plan passed again) must produce outputs byte-identical to the
// uninterrupted chaos sweep.
func TestChaosKillResumeRoundTrip(t *testing.T) {
	specJSON := `{
  "name": "chaos-cli",
  "seed_from": 1,
  "seed_count": 2,
  "horizon_s": 240,
  "area_side_m": 200,
  "links": [{"name": "nominal"}, {"name": "lossy", "profile": {"drop_prob": 0.1}}],
  "faults": [{"name": "spoof-30", "spoof_at_s": 30}]
}`
	planJSON := `{
  "name": "worker-faults",
  "seed": 13,
  "workers": [
    {"indices": [1], "attempts": 3},
    {"indices": [2], "attempts": 1}
  ]
}`
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	plan := filepath.Join(dir, "plan.json")
	for path, content := range map[string]string{spec: specJSON, plan: planJSON} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ref := filepath.Join(dir, "ref")
	cut := filepath.Join(dir, "cut")

	mustRun := func(args ...string) string {
		t.Helper()
		opts, err := parseArgs(args)
		if err != nil {
			t.Fatalf("parseArgs(%v): %v", args, err)
		}
		var out bytes.Buffer
		if err := run(opts, &out); err != nil {
			t.Fatalf("run(%v): %v\n%s", args, err, out.String())
		}
		return out.String()
	}

	chaosArgs := []string{"-spec", spec, "-chaos", plan, "-run-retries", "2", "-workers", "2", "-progress-every", "0"}
	refOut := mustRun(append(chaosArgs, "-out", ref)...)
	if !strings.Contains(refOut, "chaos armed from") {
		t.Fatalf("chaos banner missing:\n%s", refOut)
	}
	// Run 1 fails all 3 attempts (quarantined); run 2 heals on retry.
	if !strings.Contains(refOut, "1 runs quarantined") {
		t.Fatalf("quarantine summary missing:\n%s", refOut)
	}

	mustRun(append(chaosArgs, "-out", cut, "-max-runs", "2")...)
	mustRun(append(chaosArgs, "-out", cut, "-resume")...)

	for _, name := range []string{
		campaign.RunsCSVName, campaign.RunsJSONLName,
		campaign.CurvesCSVName, campaign.ECDFCSVName,
		campaign.AggregatesName, campaign.ManifestName,
	} {
		a, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(cut, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between uninterrupted and resumed chaos sweep", name)
		}
	}

	// The quarantined run is a status=failed row in the run log.
	runsCSV, err := os.ReadFile(filepath.Join(ref, campaign.RunsCSVName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(runsCSV), "failed") {
		t.Errorf("quarantined run missing from %s:\n%s", campaign.RunsCSVName, runsCSV)
	}

	// Retry flags must be rejected when invalid.
	if _, err := parseArgs([]string{"-out", "d", "-run-retries", "-1"}); err == nil {
		t.Error("negative -run-retries accepted")
	}
}
