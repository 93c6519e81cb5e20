package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig5Shape(t *testing.T) {
	r, err := RunFig5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curve) < 500 {
		t.Fatalf("curve too short: %d", len(r.Curve))
	}
	// Both curves start near zero and are monotone until the baseline
	// lands.
	if r.Curve[0].PoFEDDI > 0.01 || r.Curve[0].PoFReactive > 0.01 {
		t.Fatalf("initial PoF not ~0: %+v", r.Curve[0])
	}
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i].PoFEDDI < r.Curve[i-1].PoFEDDI-1e-9 {
			t.Fatalf("EDDI PoF not monotone at %d", i)
		}
	}
	// Reactive aborts right at the fault.
	if r.ReactiveAbortS < 250 || r.ReactiveAbortS > 255 {
		t.Fatalf("reactive abort at %v, want ~250", r.ReactiveAbortS)
	}
	// The EDDI crosses the threshold near the 510 s mission end.
	if r.ThresholdCrossS < 420 || r.ThresholdCrossS > 580 {
		t.Fatalf("threshold crossed at %v, want near 510", r.ThresholdCrossS)
	}
	if !r.EDDICompletesMission {
		t.Fatal("EDDI must essentially complete the mission")
	}
	// After the baseline lands, its PoF plateaus while EDDI's keeps
	// rising.
	last := r.Curve[len(r.Curve)-1]
	if last.PoFEDDI <= last.PoFReactive {
		t.Fatalf("EDDI final PoF (%v) must exceed grounded baseline (%v)", last.PoFEDDI, last.PoFReactive)
	}
	// Availability shape: with > without, the paper's 91% vs 80%
	// ordering. With SESAME the faulted UAV completes its own task, so
	// availability stays near 100%; the baseline spends the
	// return/swap/redeploy cycle unavailable.
	if r.AvailabilityEDDI < r.AvailabilityReactive+0.05 {
		t.Fatalf("availability: with=%v without=%v", r.AvailabilityEDDI, r.AvailabilityReactive)
	}
	if r.AvailabilityEDDI < 0.95 || r.AvailabilityReactive > 0.93 {
		t.Fatalf("availability out of band: with=%v without=%v", r.AvailabilityEDDI, r.AvailabilityReactive)
	}
	// Completion time: SESAME finishes clearly earlier (paper: ~11%).
	if r.TimeImprovementPct < 5 {
		t.Fatalf("completion improvement = %v%%, want >= 5%%", r.TimeImprovementPct)
	}
	if r.CompletionEDDIS >= r.CompletionReactiveS {
		t.Fatalf("completion: with=%v without=%v", r.CompletionEDDIS, r.CompletionReactiveS)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 5", "threshold", "availability", "91%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunAccuracyShape(t *testing.T) {
	r, err := RunAccuracy(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) != 4 {
		t.Fatalf("sweep rows = %d", len(r.Sweep))
	}
	// Uncertainty grows with altitude; accuracy falls.
	for i := 1; i < len(r.Sweep); i++ {
		if r.Sweep[i].FusedUncertainty < r.Sweep[i-1].FusedUncertainty-0.05 {
			t.Fatalf("uncertainty not increasing with altitude: %+v", r.Sweep)
		}
	}
	low, high := r.Sweep[0], r.Sweep[len(r.Sweep)-1]
	if low.Accuracy < 0.97 {
		t.Fatalf("25 m accuracy = %v, want ~0.998", low.Accuracy)
	}
	if high.FusedUncertainty < 0.9 {
		t.Fatalf("60 m uncertainty = %v, want > 0.9 (the descend trigger)", high.FusedUncertainty)
	}
	if high.Accuracy >= low.Accuracy {
		t.Fatal("accuracy must fall with altitude")
	}
	// The adaptive run descends and recovers the paper's accuracy.
	if r.AdaptiveFinalAltitude != 25 {
		t.Fatalf("adaptive run did not descend (alt %v)", r.AdaptiveFinalAltitude)
	}
	if r.AdaptiveAccuracy < 0.97 {
		t.Fatalf("adaptive accuracy = %v, want ~0.998", r.AdaptiveAccuracy)
	}
	if r.AdaptiveFinalUncertainty >= 0.9 {
		t.Fatalf("adaptive uncertainty = %v, want < 0.9 (~0.75)", r.AdaptiveFinalUncertainty)
	}
	if r.BaselineAccuracy >= r.AdaptiveAccuracy {
		t.Fatalf("baseline (%v) must trail adaptive (%v)", r.BaselineAccuracy, r.AdaptiveAccuracy)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "99.8") && !strings.Contains(buf.String(), "accuracy") {
		t.Fatal("report incomplete")
	}
}

func TestRunFig6Shape(t *testing.T) {
	r, err := RunFig6(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Track) < 300 {
		t.Fatalf("track too short: %d", len(r.Track))
	}
	// Before the attack the trajectories coincide (same seed).
	for _, pt := range r.Track {
		if pt.Time >= r.SpoofStartS-2 {
			break
		}
		if dev := dist2(pt.CleanEast-pt.SpoofEast, pt.CleanNorth-pt.SpoofNorth); dev > 2 {
			t.Fatalf("pre-attack deviation %.1f m at t=%v", dev, pt.Time)
		}
	}
	// After the attack the true tracks diverge substantially.
	if r.MaxDeviationM < 30 {
		t.Fatalf("max deviation = %.1f m, want large", r.MaxDeviationM)
	}
	// Detection is prompt.
	if r.DetectionS < r.SpoofStartS || r.DetectionS > r.SpoofStartS+15 {
		t.Fatalf("detection at %v for attack at %v", r.DetectionS, r.SpoofStartS)
	}
	if len(r.AttackPath) == 0 {
		t.Fatal("no attack path recorded")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "deviation") {
		t.Fatal("report incomplete")
	}
}

func dist2(dx, dy float64) float64 {
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

func TestRunFig7Shape(t *testing.T) {
	r, err := RunFig7(4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.LandedOK {
		t.Fatal("victim never landed")
	}
	if r.LandingErrorM > 10 {
		t.Fatalf("landing error %.1f m, want high precision", r.LandingErrorM)
	}
	if r.Observers != 2 {
		t.Fatalf("observers = %d", r.Observers)
	}
	if len(r.Track) == 0 {
		t.Fatal("no track recorded")
	}
	// The fused estimate error stays bounded once warmed up.
	for i, pt := range r.Track {
		if i > 10 && pt.EstimateErrM > 40 {
			t.Fatalf("estimate error %.1f m at sample %d", pt.EstimateErrM, i)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "landing error") {
		t.Fatal("report incomplete")
	}
}

func TestRunFig1Shape(t *testing.T) {
	r, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Combinations != 512 {
		t.Fatalf("combinations = %d", r.Combinations)
	}
	var total int
	for _, n := range r.ByAction {
		total += n
	}
	if total != 512 {
		t.Fatalf("action counts sum to %d", total)
	}
	// Named scenarios behave per Fig. 1.
	byName := map[string]Fig1Scenario{}
	for _, sc := range r.Scenarios {
		byName[sc.Name] = sc
	}
	if byName["nominal"].Action.String() != "continue+takeover" {
		t.Fatalf("nominal = %v", byName["nominal"].Action)
	}
	if byName["spoofing detected"].Navigation != "collaborative-nav" {
		t.Fatalf("spoofing nav = %v", byName["spoofing detected"].Navigation)
	}
	if byName["spoofed + isolated"].Action.String() != "emergency-land" {
		t.Fatalf("isolated = %v", byName["spoofed + isolated"].Action)
	}
	if len(r.MissionDemo) != 3 {
		t.Fatalf("mission demo rows = %d", len(r.MissionDemo))
	}
	if r.MissionDemo[0].Decision.String() != "mission-complete-as-planned" {
		t.Fatalf("fleet nominal = %v", r.MissionDemo[0].Decision)
	}
	if r.MissionDemo[1].Decision.String() != "task-redistribution-needed" {
		t.Fatalf("fleet degraded = %v", r.MissionDemo[1].Decision)
	}
	if r.MissionDemo[2].Decision.String() != "mission-cannot-be-completed" {
		t.Fatalf("fleet grounded = %v", r.MissionDemo[2].Decision)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "ConSert") {
		t.Fatal("report incomplete")
	}
}

func TestRunAblationsShape(t *testing.T) {
	r, err := RunAblations(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Measures) != 6 {
		t.Fatalf("measures = %d", len(r.Measures))
	}
	for _, m := range r.Measures {
		if m.DetectionRate < 0.5 {
			t.Fatalf("%s detects only %v of 1.2-sigma shifts", m.Measure, m.DetectionRate)
		}
		if m.FalseAlarmRate > 0.25 {
			t.Fatalf("%s false alarms %v", m.Measure, m.FalseAlarmRate)
		}
	}
	// Observer scaling: 3 observers better than 1 on mean error.
	if len(r.Observers) != 3 {
		t.Fatalf("observer points = %d", len(r.Observers))
	}
	if r.Observers[2].MeanEstErrM >= r.Observers[0].MeanEstErrM {
		t.Fatalf("3 obs (%v) not better than 1 (%v)",
			r.Observers[2].MeanEstErrM, r.Observers[0].MeanEstErrM)
	}
	// CBE: static flattening over-claims at every horizon.
	for _, c := range r.CBE {
		if c.StaticPoF <= c.DynamicPoF {
			t.Fatalf("t=%v: static %v not above dynamic %v", c.Time, c.StaticPoF, c.DynamicPoF)
		}
	}
	// Reconfiguration: hex beats quad by a growing margin at short
	// horizons.
	for _, p := range r.Reconfig {
		if p.HexPoF >= p.QuadPoF {
			t.Fatalf("t=%v: hex %v not better than quad %v", p.Time, p.HexPoF, p.QuadPoF)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	for _, want := range []string{"ABL-a", "ABL-b", "ABL-c", "ABL-d"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %s", want)
		}
	}
}

func TestRunPatternsShape(t *testing.T) {
	r, err := RunPatterns(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Coverage < 0.9 {
			t.Fatalf("%s coverage = %v", row.Pattern, row.Coverage)
		}
		if row.PathLengthM <= 0 {
			t.Fatalf("%s path length = %v", row.Pattern, row.PathLengthM)
		}
		if row.DetectedFraction < 0.5 {
			t.Fatalf("%s found only %v of persons", row.Pattern, row.DetectedFraction)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "expanding-square") {
		t.Fatal("report incomplete")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	r5, err := RunFig5(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r5.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	r7, err := RunFig7(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r7.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	rc, err := RunComms(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "comms_scenarios.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 7 || !strings.Contains(lines[0], "scenario") {
		t.Fatalf("comms_scenarios.csv malformed: %d lines", len(lines))
	}
	for _, name := range []string{"fig5_pof.csv", "fig7_tracks.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 10 {
			t.Fatalf("%s has only %d lines", name, len(lines))
		}
		if !strings.Contains(lines[0], "t_s") {
			t.Fatalf("%s missing header: %q", name, lines[0])
		}
	}
}

func TestRunNightShape(t *testing.T) {
	r, err := RunNight(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(vis float64, mod string) NightRow {
		for _, row := range r.Rows {
			if row.Visibility == vis && row.Modality == mod {
				return row
			}
		}
		t.Fatalf("missing row %v/%s", vis, mod)
		return NightRow{}
	}
	// Clear day: RGB wins on accuracy (fewer warm-clutter FPs).
	if get(1.0, "rgb").Accuracy <= get(1.0, "thermal").Accuracy {
		t.Fatalf("day: rgb %v vs thermal %v", get(1.0, "rgb").Accuracy, get(1.0, "thermal").Accuracy)
	}
	// Night/haze: thermal wins.
	if get(0.2, "thermal").Accuracy <= get(0.2, "rgb").Accuracy {
		t.Fatalf("night: thermal %v vs rgb %v", get(0.2, "thermal").Accuracy, get(0.2, "rgb").Accuracy)
	}
	// Thermal recall is flat across visibility; RGB recall falls.
	if get(0.2, "rgb").Recall >= get(1.0, "rgb").Recall {
		t.Fatal("rgb recall must fall with visibility")
	}
	if r.CrossoverVisibility < 0 {
		t.Fatal("expected a crossover")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "thermal") {
		t.Fatal("report incomplete")
	}
}

func TestRunFig7Stats(t *testing.T) {
	s, err := RunFig7Stats(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Landed != 8 {
		t.Fatalf("landed %d/8", s.Landed)
	}
	if s.MeanErrM <= 0 || s.MeanErrM > 8 {
		t.Fatalf("mean landing error = %v", s.MeanErrM)
	}
	if s.P95ErrM < s.MeanErrM || s.WorstErrM < s.P95ErrM {
		t.Fatalf("ordering broken: mean=%v p95=%v worst=%v", s.MeanErrM, s.P95ErrM, s.WorstErrM)
	}
	if s.WorstErrM > 15 {
		t.Fatalf("worst landing error = %v, want high precision across seeds", s.WorstErrM)
	}
	var buf bytes.Buffer
	s.Print(&buf)
	if !strings.Contains(buf.String(), "p95") {
		t.Fatal("report incomplete")
	}
}

func TestRunCommsShape(t *testing.T) {
	r, err := RunComms(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 6 {
		t.Fatalf("got %d scenarios", len(r.Scenarios))
	}
	byName := map[string]CommsScenario{}
	for _, s := range r.Scenarios {
		byName[s.Name] = s
		if !s.ReplayIdentical {
			t.Errorf("%s: replay diverged — determinism contract broken", s.Name)
		}
		if s.Link.Pending != 0 {
			t.Errorf("%s: %d frames stranded in the link queue", s.Name, s.Link.Pending)
		}
		if s.Link.Offered+s.Link.Duplicated != s.Link.Delivered+s.Link.Dropped+s.Link.Rejected {
			t.Errorf("%s: link conservation violated: %+v", s.Name, s.Link)
		}
	}
	nominal := byName["nominal"]
	if !nominal.Completed || nominal.Drops.Total() != 0 || nominal.Link.Dropped != 0 {
		t.Fatalf("nominal run not clean: %+v", nominal)
	}
	// Duplication must be invisible to the mission outcome.
	dup := byName["dup-5"]
	if dup.Link.Duplicated == 0 {
		t.Error("dup-5 duplicated nothing")
	}
	if dup.CompletionS != nominal.CompletionS || dup.Availability != nominal.Availability {
		t.Errorf("duplication changed the outcome: %+v vs %+v", dup, nominal)
	}
	// The brownout stays below the lost-link window: staleness visible,
	// no contingency.
	brown := byName["brownout-12s"]
	if brown.MaxTelemetryAgeS < 11 || brown.MaxTelemetryAgeS > 15 {
		t.Errorf("brownout max age = %v, want ~12", brown.MaxTelemetryAgeS)
	}
	if brown.LostLinkEvents != 0 {
		t.Errorf("brownout fired %d lost-link contingencies, want 0", brown.LostLinkEvents)
	}
	// The blackout crosses it: exactly one contingency, visible
	// staleness beyond the window, mission still completes.
	black := byName["blackout-45s"]
	if black.LostLinkEvents != 1 {
		t.Errorf("blackout fired %d lost-link contingencies, want 1", black.LostLinkEvents)
	}
	if black.MaxTelemetryAgeS <= 15 {
		t.Errorf("blackout max age = %v, want > window", black.MaxTelemetryAgeS)
	}
	if !black.Completed {
		t.Error("fleet must finish the mission despite the blackout")
	}
	if black.Link.OutageDropped == 0 {
		t.Error("blackout dropped no frames")
	}
	// The database brownout exercises retry: some writes recover, the
	// rest are abandoned within the bounded budget and counted.
	db := byName["db-brownout-15s"]
	if db.DBRetries.Scheduled == 0 || db.DBRetries.Succeeded == 0 {
		t.Errorf("db brownout retries: %+v", db.DBRetries)
	}
	if db.DBRetries.Scheduled != db.DBRetries.Succeeded+db.DBRetries.Abandoned {
		t.Errorf("retry accounting leaks: %+v", db.DBRetries)
	}
	if db.Drops.Database != db.DBRetries.Abandoned {
		t.Errorf("abandoned writes not counted as drops: %+v vs %+v", db.Drops, db.DBRetries)
	}
}
