// Package detection is the person-detection substrate that substitutes
// for the tiny-YOLOv4 pipeline of the paper. It provides the three
// things the EDDI stack consumes from a detector:
//
//  1. detections with confidences whose quality depends on altitude,
//     visibility and camera health (driving the §V-B accuracy result),
//  2. per-frame feature vectors whose distribution shifts with the
//     capture conditions (the SafeML sliding-window input), and
//  3. ground truth, so experiments can score accuracy exactly.
//
// The calibration follows the paper's reported operating points: at low
// survey altitude the detector reaches 99.8% accuracy; at high altitude
// accuracy degrades and the feature distribution drifts away from the
// training reference.
package detection

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sesame/internal/geo"
)

// Person is one ground-truth person in the scene.
type Person struct {
	ID       int
	Position geo.LatLng
	// Critical marks persons at high risk (SINADRA weighs missed
	// criticals heavily).
	Critical bool
}

// Scene is the ground truth world the cameras observe.
type Scene struct {
	Area    geo.Polygon
	Persons []Person
}

// NewRandomScene scatters n persons uniformly over the area's bounding
// box (rejecting points outside the polygon), marking each critical
// with probability pCritical.
func NewRandomScene(area geo.Polygon, n int, pCritical float64, rng *rand.Rand) (*Scene, error) {
	if len(area) < 3 {
		return nil, errors.New("detection: scene area needs >= 3 vertices")
	}
	if n < 0 {
		return nil, errors.New("detection: negative person count")
	}
	if rng == nil {
		return nil, errors.New("detection: nil rng")
	}
	sw, ne := area.BoundingBox()
	sc := &Scene{Area: area}
	for id := 0; id < n; id++ {
		var p geo.LatLng
		for tries := 0; ; tries++ {
			if tries > 10000 {
				return nil, errors.New("detection: could not place person inside area")
			}
			p = geo.LatLng{
				Lat: sw.Lat + rng.Float64()*(ne.Lat-sw.Lat),
				Lng: sw.Lng + rng.Float64()*(ne.Lng-sw.Lng),
			}
			if area.Contains(p) {
				break
			}
		}
		sc.Persons = append(sc.Persons, Person{
			ID:       id,
			Position: p,
			Critical: rng.Float64() < pCritical,
		})
	}
	return sc, nil
}

// Conditions describe one camera capture's circumstances.
type Conditions struct {
	AltitudeM float64
	// Visibility in [0,1]; 1 is clear air.
	Visibility float64
	// CameraBlur >= 0 models a degraded sensor.
	CameraBlur float64
	// Thermal selects the thermal imager instead of the RGB camera:
	// recall becomes insensitive to optical visibility (body heat shows
	// through haze and darkness) at the cost of a lower peak recall and
	// more false positives from warm clutter.
	Thermal bool
}

// Detection is one detector output.
type Detection struct {
	PersonID   int // matching ground-truth person, or -1 for a false positive
	Position   geo.LatLng
	Confidence float64
}

// Frame is one processed capture.
type Frame struct {
	UAV        string
	Stamp      float64
	Conditions Conditions
	Detections []Detection
	// InView lists the ground-truth person ids inside the footprint.
	InView []int
	// Features is the frame's feature vector for SafeML (dimension
	// FeatureDim), distributed according to the capture conditions.
	Features []float64
}

// FeatureDim is the length of Frame.Features.
const FeatureDim = 6

// Detector is the calibrated detection model.
type Detector struct {
	// RefAltitudeM is the altitude the model was "trained" at; accuracy
	// and feature distributions are nominal there.
	RefAltitudeM float64
	// HalfAngleTan maps altitude to footprint radius:
	// radius = altitude * HalfAngleTan.
	HalfAngleTan float64
	// PeakRecall is the per-person detection probability under
	// reference conditions (0.998 reproduces the paper's 99.8%).
	PeakRecall float64
	// AltDecayPer10m is the recall lost per 10 m above reference.
	AltDecayPer10m float64
	// FalsePositiveRate is the expected count of spurious detections
	// per frame under reference conditions; it grows when conditions
	// degrade.
	FalsePositiveRate float64

	rng *rand.Rand
}

// NewDetector returns a detector calibrated to the paper's operating
// points, drawing stochastic outcomes from rng.
func NewDetector(rng *rand.Rand) (*Detector, error) {
	if rng == nil {
		return nil, errors.New("detection: nil rng")
	}
	return &Detector{
		RefAltitudeM:      25,
		HalfAngleTan:      0.9,
		PeakRecall:        0.998,
		AltDecayPer10m:    0.045,
		FalsePositiveRate: 0.02,
		rng:               rng,
	}, nil
}

// ThermalPeakPenalty scales the thermal imager's peak recall relative
// to RGB (lower resolution, washout on warm ground).
const ThermalPeakPenalty = 0.95

// ThermalFalsePositiveFactor multiplies the false-positive rate in
// thermal mode (warm rocks, animals).
const ThermalFalsePositiveFactor = 3.0

// Recall returns the per-person detection probability under cond.
func (d *Detector) Recall(cond Conditions) float64 {
	r := d.PeakRecall
	if cond.Thermal {
		r *= ThermalPeakPenalty
	}
	if dAlt := cond.AltitudeM - d.RefAltitudeM; dAlt > 0 {
		r -= d.AltDecayPer10m * dAlt / 10
	}
	if !cond.Thermal {
		vis := cond.Visibility
		if vis <= 0 {
			vis = 1
		}
		r *= math.Pow(vis, 0.5)
	}
	r /= 1 + cond.CameraBlur
	if r < 0 {
		return 0
	}
	return r
}

// FootprintRadiusM returns the camera ground footprint radius at the
// given altitude.
func (d *Detector) FootprintRadiusM(altM float64) float64 {
	return altM * d.HalfAngleTan
}

// Capture runs the detector over the scene from a camera at pos/cond
// and returns the frame, drawing from the detector's own stream.
func (d *Detector) Capture(uav string, stamp float64, pos geo.LatLng, cond Conditions, scene *Scene) (*Frame, error) {
	return d.CaptureWith(d.rng, uav, stamp, pos, cond, scene)
}

// CaptureWith is Capture drawing stochastic outcomes from the given
// stream instead of the detector's own. A sharded fleet scheduler gives
// every vehicle (or shard) its own stream so captures can run
// concurrently while each stream's draw sequence stays deterministic.
func (d *Detector) CaptureWith(rng *rand.Rand, uav string, stamp float64, pos geo.LatLng, cond Conditions, scene *Scene) (*Frame, error) {
	if rng == nil {
		return nil, errors.New("detection: nil rng")
	}
	if scene == nil {
		return nil, errors.New("detection: nil scene")
	}
	if cond.AltitudeM <= 0 {
		return nil, fmt.Errorf("detection: non-positive altitude %v", cond.AltitudeM)
	}
	radius := d.FootprintRadiusM(cond.AltitudeM)
	recall := d.Recall(cond)
	c := &capture{Frame: Frame{UAV: uav, Stamp: stamp, Conditions: cond}}
	f := &c.Frame
	for _, p := range scene.Persons {
		if geo.Haversine(pos, p.Position) > radius {
			continue
		}
		f.InView = append(f.InView, p.ID)
		if rng.Float64() < recall {
			// Localization error grows with altitude.
			sigma := 0.5 + cond.AltitudeM/50
			pr := geo.NewProjection(p.Position)
			measured := pr.ToLatLng(geo.ENU{
				East:  rng.NormFloat64() * sigma,
				North: rng.NormFloat64() * sigma,
			})
			f.Detections = append(f.Detections, Detection{
				PersonID:   p.ID,
				Position:   measured,
				Confidence: clamp01(recall + 0.15*rng.NormFloat64()),
			})
		}
	}
	// False positives scale with condition degradation; the thermal
	// imager adds warm-clutter confusions.
	fpRate := d.FalsePositiveRate * (1 + (1-recall/d.PeakRecall)*10)
	if cond.Thermal {
		fpRate *= ThermalFalsePositiveFactor
	}
	for fpRate > 0 && rng.Float64() < fpRate {
		fpRate--
		bearing := rng.Float64() * 360
		dist := rng.Float64() * radius
		f.Detections = append(f.Detections, Detection{
			PersonID:   -1,
			Position:   geo.Destination(pos, bearing, dist),
			Confidence: clamp01(0.3 + 0.2*rng.NormFloat64()),
		})
	}
	f.Features = c.features[:]
	d.fillFeatures(rng, cond, f.Features)
	return f, nil
}

// capture is a frame allocated together with its feature vector, so a
// capture costs one allocation for both.
type capture struct {
	Frame
	features [FeatureDim]float64
}

// features draws a feature vector from the detector's own stream.
func (d *Detector) features(cond Conditions) []float64 {
	out := make([]float64, FeatureDim)
	d.fillFeatures(d.rng, cond, out)
	return out
}

// fillFeatures draws a frame's feature vector (its FeatureDim entries
// of out) from the given stream. Under reference conditions each
// feature is N(mu_i, 1); altitude and blur shift the means and widen
// the spread, giving SafeML a real distribution shift to detect.
func (d *Detector) fillFeatures(rng *rand.Rand, cond Conditions, out []float64) {
	shift := 0.0
	if dAlt := cond.AltitudeM - d.RefAltitudeM; dAlt > 0 {
		shift = dAlt / 15
	}
	// Optical visibility shifts RGB features (contrast collapse at
	// night); thermal imagery is immune to it.
	if !cond.Thermal {
		vis := cond.Visibility
		if vis <= 0 {
			vis = 1
		}
		shift += (1 - vis) * 2
	}
	shift += cond.CameraBlur
	spread := 1 + shift/4
	for i := range out {
		mu := float64(i) + shift*(1+0.2*float64(i%3))
		out[i] = mu + spread*rng.NormFloat64()
	}
}

// ReferenceFeatures samples n frames' worth of feature vectors under
// reference conditions — the SafeML training reference set.
func (d *Detector) ReferenceFeatures(n int) [][]float64 {
	return d.ReferenceFeaturesFor(n, false)
}

// ReferenceFeaturesFor samples a reference set for the given modality;
// a thermal perception model must be referenced on thermal frames.
func (d *Detector) ReferenceFeaturesFor(n int, thermal bool) [][]float64 {
	cond := Conditions{AltitudeM: d.RefAltitudeM, Visibility: 1, Thermal: thermal}
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.features(cond)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Score compares frames against the scene's ground truth and returns
// aggregate detection metrics over all frames.
type Score struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision returns TP/(TP+FP), or 1 when no detections were made.
func (s Score) Precision() float64 {
	if s.TruePositives+s.FalsePositives == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(s.TruePositives+s.FalsePositives)
}

// Recall returns TP/(TP+FN), or 1 when nothing was in view.
func (s Score) Recall() float64 {
	if s.TruePositives+s.FalseNegatives == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(s.TruePositives+s.FalseNegatives)
}

// Accuracy returns TP/(TP+FP+FN), the detection accuracy measure used
// in the §V-B result.
func (s Score) Accuracy() float64 {
	total := s.TruePositives + s.FalsePositives + s.FalseNegatives
	if total == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(total)
}

// ScoreFrames accumulates metrics over frames: a person in view counts
// as TP when some detection references them, FN otherwise; detections
// with PersonID -1 are FPs.
func ScoreFrames(frames []*Frame) Score {
	var s Score
	for _, f := range frames {
		detected := make(map[int]bool)
		for _, det := range f.Detections {
			if det.PersonID < 0 {
				s.FalsePositives++
			} else {
				detected[det.PersonID] = true
			}
		}
		for _, id := range f.InView {
			if detected[id] {
				s.TruePositives++
			} else {
				s.FalseNegatives++
			}
		}
	}
	return s
}

// ScoreCritical scores only the scene's critical persons — the missed
// detections SINADRA weighs heaviest. False positives are excluded
// (they have no criticality).
func ScoreCritical(frames []*Frame, scene *Scene) (Score, error) {
	if scene == nil {
		return Score{}, errors.New("detection: nil scene")
	}
	critical := make(map[int]bool, len(scene.Persons))
	for _, p := range scene.Persons {
		if p.Critical {
			critical[p.ID] = true
		}
	}
	var s Score
	for _, f := range frames {
		detected := make(map[int]bool)
		for _, det := range f.Detections {
			if det.PersonID >= 0 {
				detected[det.PersonID] = true
			}
		}
		for _, id := range f.InView {
			if !critical[id] {
				continue
			}
			if detected[id] {
				s.TruePositives++
			} else {
				s.FalseNegatives++
			}
		}
	}
	return s, nil
}
