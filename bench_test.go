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
// sizes, serial (Workers=1) vs pooled (Workers=0, machine-sized) vs
// sharded (split capture streams: per-cell physics and fused
// prepare+observe on the pool, not just the monitor evaluation). The
// sharded variant forces at least two cells so the small-fleet rows
// measure the split layout rather than one cell; at 1k and 10k UAVs
// it uses the production auto layout (one cell per 64 vehicles).
// Outputs are bit-identical across workers and cell counts.
func BenchmarkPlatformTickFleet(b *testing.B) {
	b.ReportAllocs()
	home := sesame.LatLng{Lat: 35.1856, Lng: 33.3823}
	a := sesame.Destination(home, 45, 80)
	bb := sesame.Destination(a, 90, 3000)
	c := sesame.Destination(bb, 0, 3000)
	d := sesame.Destination(a, 0, 3000)
	area := sesame.Polygon{a, bb, c, d}
	type mode struct {
		name      string
		workers   int
		cells     int // 0 = auto layout (one cell below 65 UAVs), -1 = sharded (auto, min 2)
		obsv      bool
		snapEvery int // 0 = recorder off
	}
	fullModes := []mode{
		{"serial", 1, 0, false, 0},
		{"pooled", 0, 0, false, 0},
		{"sharded", 0, -1, false, 0},
		// The -obsv variants run with a metrics registry attached;
		// EXPERIMENTS.md "Historic measurements" records the
		// instrumentation overhead (budget: <5% ns/op enabled, zero
		// extra allocs disabled).
		{"serial-obsv", 1, 0, true, 0},
		{"pooled-obsv", 0, 0, true, 0},
		// The -rec variants additionally fly with the black-box
		// flight recorder appending tick/bus/event records every
		// tick, checkpoints effectively disabled; EXPERIMENTS.md
		// "Historic measurements" records the steady-state
		// append-path overhead (budget: <5% ns/op over the -obsv
		// baseline).
		{"serial-rec", 1, 0, true, 1 << 30},
		{"pooled-rec", 0, 0, true, 1 << 30},
		// The -ckpt variants run the full black box with a
		// checkpoint every 50 ticks. Checkpoint cost is O(EDDI
		// history), so this amortized number grows with mission
		// length, so it is reported separately.
		{"serial-ckpt", 1, 0, true, 50},
		{"pooled-ckpt", 0, 0, true, 50},
	}
	for _, fleet := range []int{3, 12, 48, 1000, 10000} {
		modes := fullModes
		if fleet >= 1000 {
			// At fleet scale only the three scheduler regimes matter;
			// the instrumentation variants are covered at 3/12/48.
			modes = fullModes[:3]
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%d/%s", fleet, mode.name), func(b *testing.B) {
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
				cfg.Workers = mode.workers
				if mode.cells == -1 {
					cfg.Cells = sesame.AutoCells(fleet)
					if cfg.Cells < 2 {
						cfg.Cells = 2
					}
				}
				if mode.obsv {
					cfg.Observability = sesame.NewObsvRegistry()
				}
				p, err := sesame.NewPlatform(world, scene, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				if err := p.StartMission(area); err != nil {
					b.Fatal(err)
				}
				if mode.snapEvery > 0 {
					rec, err := sesame.NewFlightRecorder(b.TempDir(), 1, p.ConfigDigest(), mode.snapEvery,
						sesame.FlightRecorderOptions{})
					if err != nil {
						b.Fatal(err)
					}
					defer rec.Close()
					p.SetRecorder(rec)
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
