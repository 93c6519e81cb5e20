package experiments

import (
	"errors"
	"fmt"
	"io"

	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/platform"
	"sesame/internal/sar"
	"sesame/internal/uavsim"
)

// PatternRow compares one coverage pattern on the same search task.
type PatternRow struct {
	Pattern          string
	PathLengthM      float64
	Coverage         float64
	FirstDetectionS  float64 // -1 when nothing found
	TotalDetected    int
	MissionSeconds   float64
	DetectedFraction float64
}

// PatternResult is the coverage-pattern extension experiment (EXT-a in
// DESIGN.md): boustrophedon vs spiral on a centre-weighted person
// distribution, the trade SAR doctrine cares about — sweep guarantees
// uniform coverage, spiral reaches the likely target area sooner.
type PatternResult struct {
	Rows    []PatternRow
	Persons int
}

// RunPatterns flies both patterns over identical scenes and scores
// coverage, path length and detection timing.
func RunPatterns(seed int64) (*PatternResult, error) {
	area := platform.ClassicArea(300)
	centre, err := area.Centroid()
	if err != nil {
		return nil, err
	}
	const spacing = 40.0
	boPath, err := sar.BoustrophedonPath(area, spacing)
	if err != nil {
		return nil, err
	}
	spPath, err := sar.SpiralPath(area, spacing)
	if err != nil {
		return nil, err
	}
	esPath, err := sar.ExpandingSquarePath(area, spacing)
	if err != nil {
		return nil, err
	}
	res := &PatternResult{}
	for _, pat := range []struct {
		name string
		path []geo.LatLng
	}{
		{"boustrophedon", boPath},
		{"spiral-inward", spPath},
		{"expanding-square", esPath},
	} {
		w := uavsim.NewWorld(platform.ClassicHome, seed)
		u, err := w.AddUAV(uavsim.UAVConfig{ID: "u1", Home: platform.ClassicHome, CruiseSpeedMS: 10})
		if err != nil {
			return nil, err
		}
		det, err := detection.NewDetector(w.Clock.Stream("detector"))
		if err != nil {
			return nil, err
		}
		// Persons cluster near the centre (last-known-position prior):
		// scatter within the inner half of the area.
		inner := geo.Polygon{
			geo.Destination(centre, 225, 110),
			geo.Destination(centre, 315, 110),
			geo.Destination(centre, 45, 110),
			geo.Destination(centre, 135, 110),
		}
		scene, err := detection.NewRandomScene(inner, 10, 0.2, w.Clock.Stream("scene"))
		if err != nil {
			return nil, err
		}
		if err := u.TakeOff(25); err != nil {
			return nil, err
		}
		if err := w.Run(10, 1); err != nil {
			return nil, err
		}
		if err := u.FlyMission(pat.path, 25); err != nil {
			return nil, err
		}
		start := w.Clock.Now()
		seen := map[int]bool{}
		first := -1.0
		for w.Clock.Now() < start+1200 && u.Mode() == uavsim.ModeMission {
			if err := w.Step(1); err != nil {
				return nil, err
			}
			frame, err := det.Capture("u1", w.Clock.Now(), u.TruePosition(),
				detection.Conditions{AltitudeM: u.AltitudeM(), Visibility: 1}, scene)
			if err != nil {
				return nil, err
			}
			for _, d := range frame.Detections {
				if d.PersonID >= 0 && !seen[d.PersonID] {
					seen[d.PersonID] = true
					if first < 0 {
						first = w.Clock.Now() - start
					}
				}
			}
		}
		cov, err := sar.CoverageFraction(area, pat.path, spacing/2+5, 10)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PatternRow{
			Pattern:          pat.name,
			PathLengthM:      geo.PathLength(pat.path),
			Coverage:         cov,
			FirstDetectionS:  first,
			TotalDetected:    len(seen),
			MissionSeconds:   w.Clock.Now() - start,
			DetectedFraction: float64(len(seen)) / float64(len(scene.Persons)),
		})
		res.Persons = len(scene.Persons)
	}
	if len(res.Rows) != 3 {
		return nil, errors.New("experiments: pattern comparison incomplete")
	}
	return res, nil
}

// Print writes the pattern comparison table.
func (r *PatternResult) Print(w io.Writer) {
	printf(w, "== EXT-a: coverage pattern comparison (centre-clustered persons) ==\n\n")
	printf(w, "%-15s %10s %9s %12s %10s %10s\n",
		"pattern", "path (m)", "coverage", "first-find", "found", "mission")
	for _, row := range r.Rows {
		first := "never"
		if row.FirstDetectionS >= 0 {
			first = fmt.Sprintf("%.0fs", row.FirstDetectionS)
		}
		printf(w, "%-15s %10.0f %8.0f%% %12s %7d/%2d %9.0fs\n",
			row.Pattern, row.PathLengthM, row.Coverage*100, first,
			row.TotalDetected, r.Persons, row.MissionSeconds)
	}
}
