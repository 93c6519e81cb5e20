package safeml

import (
	"math/rand"
	"testing"

	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/statdist"
)

var (
	detectionOrigin = geo.LatLng{Lat: 35.1856, Lng: 33.3823}
	detectionArea   = geo.Polygon{
		detectionOrigin,
		geo.Destination(detectionOrigin, 90, 100),
		geo.Destination(geo.Destination(detectionOrigin, 90, 100), 0, 100),
		geo.Destination(detectionOrigin, 0, 100),
	}
)

func reference(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(j) + rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func shifted(rng *rand.Rand, n, dim int, shift float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(j) + shift + rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func fillAndEval(t *testing.T, m *Monitor, rows [][]float64) Report {
	t.Helper()
	for _, row := range rows {
		if err := m.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewMonitorValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewMonitor(nil, cfg); err == nil {
		t.Error("empty reference must fail")
	}
	if _, err := NewMonitor([][]float64{{}}, cfg); err == nil {
		t.Error("zero features must fail")
	}
	if _, err := NewMonitor([][]float64{{1, 2}, {1}}, cfg); err == nil {
		t.Error("ragged reference must fail")
	}
	bad := cfg
	bad.WindowSize = 1
	if _, err := NewMonitor([][]float64{{1, 2}}, bad); err == nil {
		t.Error("window 1 must fail")
	}
	bad = cfg
	bad.RejectAt = bad.CautionAt
	if _, err := NewMonitor([][]float64{{1, 2}}, bad); err == nil {
		t.Error("inverted thresholds must fail")
	}
}

func TestInDistributionAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := reference(rng, 200, 4)
	m, err := NewMonitor(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := fillAndEval(t, m, shifted(rng, 40, 4, 0))
	if r.Action != ActionAccept {
		t.Fatalf("in-distribution action = %v (u=%v)", r.Action, r.Uncertainty)
	}
	if r.Uncertainty < 0.65 || r.Uncertainty > 0.82 {
		t.Fatalf("in-distribution uncertainty = %v, want ~0.75 (paper §V-B)", r.Uncertainty)
	}
	if r.Confidence != 1-r.Uncertainty {
		t.Fatal("confidence must complement uncertainty")
	}
	if len(r.PerFeature) != 4 || r.Samples != 40 {
		t.Fatalf("report shape wrong: %+v", r)
	}
}

func TestShiftedRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := reference(rng, 200, 4)
	m, _ := NewMonitor(ref, DefaultConfig())
	r := fillAndEval(t, m, shifted(rng, 40, 4, 2.5))
	if r.Action != ActionReject {
		t.Fatalf("shifted action = %v (u=%v), want reject", r.Action, r.Uncertainty)
	}
	if r.Uncertainty < 0.9 {
		t.Fatalf("shifted uncertainty = %v, want >= 0.9", r.Uncertainty)
	}
}

func TestModerateShiftCaution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := reference(rng, 300, 4)
	m, _ := NewMonitor(ref, DefaultConfig())
	r := fillAndEval(t, m, shifted(rng, 40, 4, 0.8))
	if r.Action == ActionAccept {
		t.Fatalf("0.8-sigma shift accepted (u=%v)", r.Uncertainty)
	}
	if r.Action == ActionReject && r.Uncertainty < 0.9 {
		t.Fatalf("inconsistent report: %+v", r)
	}
}

func TestUncertaintyMonotoneInShift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := reference(rng, 300, 4)
	prev := -1.0
	for _, shift := range []float64{0, 1, 2, 4} {
		m, _ := NewMonitor(ref, DefaultConfig())
		r := fillAndEval(t, m, shifted(rng, 40, 4, shift))
		if r.Uncertainty < prev {
			t.Fatalf("uncertainty not monotone at shift %v: %v < %v", shift, r.Uncertainty, prev)
		}
		prev = r.Uncertainty
	}
}

func TestWindowNotFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewMonitor(reference(rng, 50, 3), DefaultConfig())
	if m.Ready() {
		t.Fatal("fresh monitor must not be ready")
	}
	if _, err := m.Evaluate(); err == nil {
		t.Fatal("evaluation before window fills must fail")
	}
	if err := m.Push([]float64{1, 2}); err == nil {
		t.Fatal("wrong width must fail")
	}
}

func TestSlidingWindowForgets(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := reference(rng, 200, 3)
	m, _ := NewMonitor(ref, DefaultConfig())
	// Fill with shifted data -> reject.
	fillAndEval(t, m, shifted(rng, 40, 3, 3))
	// Overwrite entirely with in-distribution data -> accept again.
	r := fillAndEval(t, m, shifted(rng, 40, 3, 0))
	if r.Action != ActionAccept {
		t.Fatalf("window did not slide: %v (u=%v)", r.Action, r.Uncertainty)
	}
}

func TestReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := NewMonitor(reference(rng, 100, 3), DefaultConfig())
	fillAndEval(t, m, shifted(rng, 40, 3, 0))
	m.Reset()
	if m.Ready() {
		t.Fatal("reset monitor must not be ready")
	}
	if _, err := m.Evaluate(); err == nil {
		t.Fatal("evaluation after reset must fail")
	}
}

func TestAllMeasuresUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := reference(rng, 150, 3)
	for _, meas := range statdist.All() {
		cfg := DefaultConfig()
		cfg.Measure = meas
		m, err := NewMonitor(ref, cfg)
		if err != nil {
			t.Fatalf("%s: %v", meas.Name(), err)
		}
		in := fillAndEval(t, m, shifted(rng, 40, 3, 0))
		m2, _ := NewMonitor(ref, cfg)
		out := fillAndEval(t, m2, shifted(rng, 40, 3, 3))
		if out.Distance <= in.Distance {
			t.Errorf("%s: shifted distance (%v) not above in-dist (%v)", meas.Name(), out.Distance, in.Distance)
		}
	}
}

func TestDetectorIntegrationAltitudeDrift(t *testing.T) {
	// End-to-end with the detection substrate: reference features at
	// survey altitude accept; 60 m features reject. This is the §V-B
	// trigger condition.
	rng := rand.New(rand.NewSource(9))
	det, err := detection.NewDetector(rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := det.ReferenceFeatures(300)
	m, err := NewMonitor(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lowFrames := det.ReferenceFeatures(40)
	low := fillAndEval(t, m, lowFrames)
	if low.Action != ActionAccept {
		t.Fatalf("reference-altitude frames: %v (u=%v)", low.Action, low.Uncertainty)
	}
	if low.Uncertainty < 0.65 || low.Uncertainty > 0.85 {
		t.Fatalf("reference uncertainty = %v, want ~0.75", low.Uncertainty)
	}
	// Regenerate features at 60 m via a throwaway capture.
	m.Reset()
	highRows := make([][]float64, 40)
	sceneRng := rand.New(rand.NewSource(10))
	det2, _ := detection.NewDetector(sceneRng)
	for i := range highRows {
		// features are private to Capture; use ReferenceFeatures shape
		// via a high-altitude capture of an empty scene.
		f, err := det2.Capture("u1", float64(i), detectionOrigin, detection.Conditions{AltitudeM: 60, Visibility: 1}, &detection.Scene{Area: detectionArea})
		if err != nil {
			t.Fatal(err)
		}
		highRows[i] = f.Features
	}
	high := fillAndEval(t, m, highRows)
	if high.Uncertainty < 0.9 {
		t.Fatalf("60 m uncertainty = %v, want > 0.9 (paper §V-B)", high.Uncertainty)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	ref := reference(rng, 200, 6)
	m, _ := NewMonitor(ref, DefaultConfig())
	for _, row := range shifted(rng, 40, 6, 1) {
		_ = m.Push(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushEvaluate is the per-frame cost the perception monitor
// pays once its window is full: one Push (a row leaves and a row
// enters every sorted column) and one Evaluate.
func BenchmarkPushEvaluate(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	ref := reference(rng, 200, 6)
	m, _ := NewMonitor(ref, DefaultConfig())
	rows := shifted(rng, 1024, 6, 0.5)
	for _, row := range rows[:40] {
		_ = m.Push(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Push(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvaluateWithPValue(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := reference(rng, 150, 3)
	m, _ := NewMonitor(ref, DefaultConfig())
	fillAndEval(t, m, shifted(rng, 40, 3, 0))
	_, pNull, err := m.EvaluateWithPValue(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMonitor(ref, DefaultConfig())
	fillAndEval(t, m2, shifted(rng, 40, 3, 3))
	rep, pShift, err := m2.EvaluateWithPValue(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pShift >= 0.05 {
		t.Fatalf("shifted p-value = %v, want significant", pShift)
	}
	if pNull <= pShift {
		t.Fatalf("null p (%v) must exceed shifted p (%v)", pNull, pShift)
	}
	if rep.Action != ActionReject {
		t.Fatalf("shifted report action = %v", rep.Action)
	}
}

func TestEvaluateWithPValueValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, _ := NewMonitor(reference(rng, 50, 2), DefaultConfig())
	if _, _, err := m.EvaluateWithPValue(100, rng); err == nil {
		t.Fatal("unfilled window must fail")
	}
	fillAndEval(t, m, shifted(rng, 40, 2, 0))
	if _, _, err := m.EvaluateWithPValue(0, rng); err == nil {
		t.Fatal("rounds=0 must fail")
	}
	if _, _, err := m.EvaluateWithPValue(10, nil); err == nil {
		t.Fatal("nil rng must fail")
	}
}
