package sesame_test

// One benchmark per evaluation artefact of the paper, as required by
// the reproduction harness: Fig. 1 (ConSert network), Fig. 5 / §V-A
// (battery failure PoF + availability), §V-B (SAR accuracy), Fig. 6
// (spoofing trajectory + detection), Fig. 7 (collaborative landing),
// the Fig. 4 platform tick, and the DESIGN.md ablations.

import (
	"fmt"
	"testing"

	"sesame"
	"sesame/internal/experiments"
)

func BenchmarkFig1ConSertEvaluation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5BatteryFailure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if r.ThresholdCrossS < 0 {
			b.Fatal("threshold never crossed")
		}
	}
}

func BenchmarkSARAccuracy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if r.AdaptiveAccuracy <= 0 {
			b.Fatal("no adaptive accuracy")
		}
	}
}

func BenchmarkFig6Spoofing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if r.DetectionS < 0 {
			b.Fatal("attack undetected")
		}
	}
}

func BenchmarkFig7CollaborativeLanding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.LandedOK {
			b.Fatal("victim did not land")
		}
	}
}

func BenchmarkCoveragePatterns(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPatterns(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblations(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformMissionTick measures the steady-state cost of one
// integrated platform tick with three UAVs and the full EDDI stack —
// the Fig. 4 runtime loop.
func BenchmarkPlatformMissionTick(b *testing.B) {
	b.ReportAllocs()
	home := sesame.LatLng{Lat: 35.1856, Lng: 33.3823}
	world := sesame.NewWorld(home, 1)
	for _, id := range []string{"u1", "u2", "u3"} {
		if _, err := world.AddUAV(sesame.UAVConfig{ID: id, Home: home}); err != nil {
			b.Fatal(err)
		}
	}
	a := sesame.Destination(home, 45, 80)
	bb := sesame.Destination(a, 90, 3000)
	c := sesame.Destination(bb, 0, 3000)
	d := sesame.Destination(a, 0, 3000)
	area := sesame.Polygon{a, bb, c, d}
	scene, err := sesame.NewRandomScene(area, 20, 0.2, world, "scene")
	if err != nil {
		b.Fatal(err)
	}
	p, err := sesame.NewPlatform(world, scene, sesame.DefaultPlatformConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if err := p.StartMission(area); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformTickFleet measures the fleet scheduler across fleet
// sizes: serial (Workers=1), pooled (Workers=0, machine-sized, auto
// layout) and sharded (Workers=0 with at least two cells, so per-cell
// physics, prepare and observe run on the pool). Pooled rows exist for
// the one-cell fleets only, where they straddle the one-cell fan-out
// cutoff: at 3 UAVs a one-cell tick runs inline, from 8 it fans observe
// out per UAV. At 1k and 10k UAVs the auto layout is already sharded,
// with one cell per 64 vehicles. Outputs are bit-identical across
// workers and cell counts >= 2.
func BenchmarkPlatformTickFleet(b *testing.B) {
	b.ReportAllocs()
	home := sesame.LatLng{Lat: 35.1856, Lng: 33.3823}
	a := sesame.Destination(home, 45, 80)
	bb := sesame.Destination(a, 90, 3000)
	c := sesame.Destination(bb, 0, 3000)
	d := sesame.Destination(a, 0, 3000)
	area := sesame.Polygon{a, bb, c, d}
	for _, fleet := range []int{3, 12, 48, 1000, 10000} {
		modes := []string{"serial", "pooled", "sharded"}
		if sesame.AutoCells(fleet) > 1 {
			modes = []string{"serial", "sharded"}
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%d/%s", fleet, mode), func(b *testing.B) {
				b.ReportAllocs()
				world := sesame.NewWorld(home, 1)
				for i := 0; i < fleet; i++ {
					uc := sesame.UAVConfig{ID: fmt.Sprintf("u%05d", i), Home: home}
					if _, err := world.AddUAV(uc); err != nil {
						b.Fatal(err)
					}
				}
				scene, err := sesame.NewRandomScene(area, 20, 0.2, world, "scene")
				if err != nil {
					b.Fatal(err)
				}
				cfg := sesame.DefaultPlatformConfig()
				switch mode {
				case "serial":
					cfg.Workers = 1
				case "sharded":
					cfg.Cells = max(sesame.AutoCells(fleet), 2)
				}
				p, err := sesame.NewPlatform(world, scene, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				if err := p.StartMission(area); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Tick(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
