// SafeML drift detection: watch the perception monitor's uncertainty
// rise as a UAV's survey altitude pushes the camera-feature
// distribution away from the training reference — the §V-B trigger —
// and compare the six statistical distance measures on the same data.
package main

import (
	"fmt"
	"log"

	"sesame"
)

func main() {
	home := sesame.LatLng{Lat: 35.1856, Lng: 33.3823}
	world := sesame.NewWorld(home, 99)
	detector, err := sesame.NewDetector(world, "detector")
	if err != nil {
		log.Fatal(err)
	}

	// Training reference: features captured at the 25 m reference
	// altitude.
	reference := detector.ReferenceFeatures(300)

	scene := &sesame.Scene{} // empty scene: we only need the features
	scene.Area = sesame.Polygon{
		home,
		sesame.Destination(home, 90, 200),
		sesame.Destination(sesame.Destination(home, 90, 200), 0, 200),
		sesame.Destination(home, 0, 200),
	}

	fmt.Println("altitude sweep with the default (Kolmogorov-Smirnov) monitor:")
	for _, alt := range []float64{25, 35, 45, 60} {
		monitor, err := sesame.NewPerceptionMonitor(reference, sesame.DefaultPerceptionConfig())
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			frame, err := detector.Capture("u1", float64(i), home,
				sesame.DetectionConditions{AltitudeM: alt, Visibility: 1}, scene)
			if err != nil {
				log.Fatal(err)
			}
			if err := monitor.Push(frame.Features); err != nil {
				log.Fatal(err)
			}
		}
		report, err := monitor.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  alt=%2.0f m  distance=%.3f  uncertainty=%5.1f%%  action=%s\n",
			alt, report.Distance, report.Uncertainty*100, report.Action)
	}

	fmt.Println("\nsame drift, all six distance measures (alt 60 m window):")
	for _, m := range sesame.DistanceMeasures() {
		cfg := sesame.DefaultPerceptionConfig()
		cfg.Measure = m
		monitor, err := sesame.NewPerceptionMonitor(reference, cfg)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			frame, err := detector.Capture("u1", float64(i), home,
				sesame.DetectionConditions{AltitudeM: 60, Visibility: 1}, scene)
			if err != nil {
				log.Fatal(err)
			}
			_ = monitor.Push(frame.Features)
		}
		report, err := monitor.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s distance=%8.3f  action=%s\n", m.Name(), report.Distance, report.Action)
	}
}
