package experiments

import (
	"errors"
	"io"
	"math/rand"

	"sesame/internal/deepknowledge"
	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/neural"
	"sesame/internal/platform"
	"sesame/internal/safeml"
	"sesame/internal/sinadra"
)

// AccuracyRow is one altitude operating point of the §V-B table.
type AccuracyRow struct {
	AltitudeM         float64
	SafeMLUncertainty float64
	DKUncertainty     float64
	FusedUncertainty  float64
	Accuracy          float64
	SINADRAAdvice     string
}

// AccuracyResult reproduces §V-B: uncertainty-driven altitude
// adaptation raising SAR accuracy to 99.8%.
type AccuracyResult struct {
	// Sweep is the static altitude sweep.
	Sweep []AccuracyRow
	// Adaptive is the with-SESAME run: start high, descend when fused
	// uncertainty exceeds the 90% threshold.
	AdaptiveFinalAltitude    float64
	AdaptiveFinalUncertainty float64
	AdaptiveAccuracy         float64
	// BaselineAccuracy is the without-SESAME run pinned at the survey
	// altitude.
	BaselineAccuracy float64
	// Threshold is the paper's 90% uncertainty bound.
	Threshold float64
}

// trainDetectorSurrogate builds the small "person detector" network
// whose activations DeepKnowledge inspects, trained on reference
// condition features.
func trainDetectorSurrogate(det *detection.Detector, rng *rand.Rand) (*neural.Network, [][]float64, [][]float64, error) {
	net, err := neural.New(detection.FeatureDim, rng,
		neural.LayerSpec{Units: 16, Activation: neural.ReLU},
		neural.LayerSpec{Units: 8, Activation: neural.ReLU},
		neural.LayerSpec{Units: 1, Activation: neural.Sigmoid})
	if err != nil {
		return nil, nil, nil, err
	}
	train := det.ReferenceFeatures(250)
	var samples []neural.Sample
	for i, x := range train {
		y := 0.0
		if x[0]+x[1] > 1 {
			y = 1
		}
		samples = append(samples, neural.Sample{X: x, Y: []float64{y}})
		_ = i
	}
	if _, err := net.Train(samples, 60, 0.05, rng); err != nil {
		return nil, nil, nil, err
	}
	// "Shifted" design set for TK-neuron selection: high-altitude
	// frames.
	shifted := make([][]float64, 200)
	scene := &detection.Scene{Area: platform.ClassicArea(200)}
	for i := range shifted {
		f, err := det.Capture("design", float64(i), platform.ClassicHome, detection.Conditions{AltitudeM: 60, Visibility: 1}, scene)
		if err != nil {
			return nil, nil, nil, err
		}
		shifted[i] = f.Features
	}
	return net, train, shifted, nil
}

// measureAt captures frames at the given altitude and returns the
// uncertainty components and accuracy.
func measureAt(det *detection.Detector, scene *detection.Scene, sm *safeml.Monitor,
	dk *deepknowledge.Analysis, center geo.LatLng, altM float64, frames int) (AccuracyRow, error) {

	sm.Reset()
	var all []*detection.Frame
	var window [][]float64
	for i := 0; i < frames; i++ {
		f, err := det.Capture("u1", float64(i), center, detection.Conditions{AltitudeM: altM, Visibility: 1}, scene)
		if err != nil {
			return AccuracyRow{}, err
		}
		all = append(all, f)
		window = append(window, f.Features)
		_ = sm.Push(f.Features)
	}
	rep, err := sm.Evaluate()
	if err != nil {
		return AccuracyRow{}, err
	}
	dkU, err := dk.WindowUncertainty(window)
	if err != nil {
		return AccuracyRow{}, err
	}
	// Fusion: SafeML dominates (calibrated to the paper's reported
	// percentages); DeepKnowledge corroborates.
	fused := rep.Uncertainty
	if dkU > fused {
		fused = dkU
	}
	score := detection.ScoreFrames(all)
	return AccuracyRow{
		AltitudeM:         altM,
		SafeMLUncertainty: rep.Uncertainty,
		DKUncertainty:     dkU,
		FusedUncertainty:  fused,
		Accuracy:          score.Accuracy(),
	}, nil
}

// RunAccuracy executes the §V-B evaluation.
func RunAccuracy(seed int64) (*AccuracyResult, error) {
	rng := rand.New(rand.NewSource(seed))
	det, err := detection.NewDetector(rng)
	if err != nil {
		return nil, err
	}
	area := platform.ClassicArea(60) // compact cluster so every person stays in view
	scene, err := detection.NewRandomScene(area, 12, 0.25, rng)
	if err != nil {
		return nil, err
	}
	center, err := area.Centroid()
	if err != nil {
		return nil, err
	}
	net, train, shifted, err := trainDetectorSurrogate(det, rng)
	if err != nil {
		return nil, err
	}
	dk, err := deepknowledge.Analyze(net, train, shifted, 10, 5)
	if err != nil {
		return nil, err
	}
	smCfg := safeml.DefaultConfig()
	sm, err := safeml.NewMonitor(det.ReferenceFeatures(300), smCfg)
	if err != nil {
		return nil, err
	}
	assessor, err := sinadra.NewAssessor(sinadra.DefaultConfig())
	if err != nil {
		return nil, err
	}

	res := &AccuracyResult{Threshold: 0.9}
	const windowFrames = 40
	for _, alt := range []float64{25, 35, 45, 60} {
		row, err := measureAt(det, scene, sm, dk, center, alt, windowFrames)
		if err != nil {
			return nil, err
		}
		risk, err := assessor.Assess(sinadra.Situation{
			Uncertainty: row.FusedUncertainty,
			AltitudeM:   alt,
			Visibility:  1,
		})
		if err != nil {
			return nil, err
		}
		row.SINADRAAdvice = risk.Advice.String()
		res.Sweep = append(res.Sweep, row)
	}

	// Adaptive (with SESAME): start at 60 m; when fused uncertainty
	// exceeds the threshold, descend to 25 m and re-measure.
	high, err := measureAt(det, scene, sm, dk, center, 60, windowFrames)
	if err != nil {
		return nil, err
	}
	if high.FusedUncertainty >= res.Threshold {
		low, err := measureAt(det, scene, sm, dk, center, 25, windowFrames)
		if err != nil {
			return nil, err
		}
		res.AdaptiveFinalAltitude = 25
		res.AdaptiveFinalUncertainty = low.FusedUncertainty
		res.AdaptiveAccuracy = low.Accuracy
	} else {
		res.AdaptiveFinalAltitude = 60
		res.AdaptiveFinalUncertainty = high.FusedUncertainty
		res.AdaptiveAccuracy = high.Accuracy
	}
	// Baseline (no SESAME): stays at 60 m, with a fresh measurement.
	base, err := measureAt(det, scene, sm, dk, center, 60, windowFrames)
	if err != nil {
		return nil, err
	}
	res.BaselineAccuracy = base.Accuracy
	if len(res.Sweep) == 0 {
		return nil, errors.New("experiments: empty sweep")
	}
	return res, nil
}

// Print writes the §V-B table.
func (r *AccuracyResult) Print(w io.Writer) {
	printf(w, "== §V-B: SAR accuracy vs altitude (uncertainty threshold %.0f%%) ==\n\n", r.Threshold*100)
	printf(w, "%8s  %10s  %8s  %8s  %9s  %s\n", "alt(m)", "SafeML-U", "DK-U", "fused-U", "accuracy", "SINADRA")
	for _, row := range r.Sweep {
		printf(w, "%8.0f  %9.1f%%  %7.1f%%  %7.1f%%  %8.2f%%  %s\n",
			row.AltitudeM, row.SafeMLUncertainty*100, row.DKUncertainty*100,
			row.FusedUncertainty*100, row.Accuracy*100, row.SINADRAAdvice)
	}
	printf(w, "\nadaptive (with SESAME): descended to %.0f m, uncertainty %.1f%%, accuracy %.2f%% (paper: ~75%% uncertainty, 99.8%% accuracy)\n",
		r.AdaptiveFinalAltitude, r.AdaptiveFinalUncertainty*100, r.AdaptiveAccuracy*100)
	printf(w, "baseline (no SESAME):   stayed at 60 m, accuracy %.2f%%\n", r.BaselineAccuracy*100)
}
