package experiments

import (
	"errors"
	"io"
	"math/rand"

	"sesame/internal/detection"
	"sesame/internal/platform"
)

// NightRow is one (visibility, modality) operating point.
type NightRow struct {
	Visibility float64
	Modality   string
	Recall     float64
	Precision  float64
	Accuracy   float64
}

// NightResult is the EXT-b experiment: RGB vs thermal imaging across a
// visibility sweep (day → dusk → night/haze), the sensor-selection
// question the paper's intro raises ("high-resolution cameras, thermal
// imaging ... even in conditions with low visibility").
type NightResult struct {
	Rows []NightRow
	// CrossoverVisibility is the highest swept visibility at which
	// thermal beats RGB on accuracy (-1 when RGB always wins).
	CrossoverVisibility float64
}

// RunNight sweeps visibility for both modalities on identical scenes.
func RunNight(seed int64) (*NightResult, error) {
	rng := rand.New(rand.NewSource(seed))
	det, err := detection.NewDetector(rng)
	if err != nil {
		return nil, err
	}
	area := platform.ClassicArea(60)
	scene, err := detection.NewRandomScene(area, 12, 0.25, rng)
	if err != nil {
		return nil, err
	}
	centre, err := area.Centroid()
	if err != nil {
		return nil, err
	}
	res := &NightResult{CrossoverVisibility: -1}
	const frames = 400
	accuracy := make(map[[2]interface{}]float64)
	visibilities := []float64{1.0, 0.7, 0.4, 0.2}
	for _, vis := range visibilities {
		for _, thermal := range []bool{false, true} {
			var fr []*detection.Frame
			for i := 0; i < frames; i++ {
				f, err := det.Capture("u1", float64(i), centre, detection.Conditions{
					AltitudeM: 25, Visibility: vis, Thermal: thermal,
				}, scene)
				if err != nil {
					return nil, err
				}
				fr = append(fr, f)
			}
			score := detection.ScoreFrames(fr)
			name := "rgb"
			if thermal {
				name = "thermal"
			}
			row := NightRow{
				Visibility: vis,
				Modality:   name,
				Recall:     score.Recall(),
				Precision:  score.Precision(),
				Accuracy:   score.Accuracy(),
			}
			res.Rows = append(res.Rows, row)
			accuracy[[2]interface{}{vis, thermal}] = row.Accuracy
		}
	}
	for _, vis := range visibilities {
		if accuracy[[2]interface{}{vis, true}] > accuracy[[2]interface{}{vis, false}] {
			if vis > res.CrossoverVisibility {
				res.CrossoverVisibility = vis
			}
		}
	}
	if len(res.Rows) == 0 {
		return nil, errors.New("experiments: empty night sweep")
	}
	return res, nil
}

// Print writes the modality comparison table.
func (r *NightResult) Print(w io.Writer) {
	printf(w, "== EXT-b: RGB vs thermal imaging across visibility (25 m survey) ==\n\n")
	printf(w, "%10s %9s %8s %10s %9s\n", "visibility", "modality", "recall", "precision", "accuracy")
	for _, row := range r.Rows {
		printf(w, "%10.1f %9s %7.1f%% %9.1f%% %8.1f%%\n",
			row.Visibility, row.Modality, row.Recall*100, row.Precision*100, row.Accuracy*100)
	}
	if r.CrossoverVisibility >= 0 {
		printf(w, "\nthermal overtakes RGB at visibility <= %.1f\n", r.CrossoverVisibility)
	} else {
		printf(w, "\nRGB never overtaken in this sweep\n")
	}
}
