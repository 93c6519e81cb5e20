package platform

import (
	"runtime"
	"strings"
	"testing"
)

// TestTickAllocCeilings pins the heap allocations of one steady-state
// tick as ceilings, per fleet layout. The counts are dominated by the
// telemetry publish, the detector and the monitors; the scheduler
// itself must add nothing per tick beyond its worker goroutines, so a
// closure or a scratch buffer slipped into the tick shows up here
// first. A one-cell layout runs inline for any pool size: every
// one-cell row measures the same fleet with Workers=1 as well and
// requires the two counts to be equal, so a goroutine started for such
// a fleet fails it. Pool sizes are explicit (not machine-sized) so the
// ceilings hold on any host. They were measured with go1.24: the
// race detector allocates differently, and so may other Go releases.
// The counts also depend on the seed's random draws, not only on the
// code: the detector allocates per person in view and per detection,
// so a scene that puts more people under the footprints allocates
// more. 3/serial reads 54 / 49 / 51 / 53 / 51 at seeds 7..11.
func TestTickAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if v := runtime.Version(); !strings.HasPrefix(v, "go1.24") {
		t.Skipf("ceilings measured with go1.24, running %s", v)
	}
	for _, tc := range []struct {
		name                 string
		uavs, cells, workers int
		side                 float64
		ceiling              float64
	}{
		{"3/serial", 3, 1, 1, 350, 54},
		{"3/pooled", 3, 1, 4, 350, 54},
		{"7/pooled", 7, 1, 4, 350, 127},
		{"48/pooled", 48, 1, 4, 3000, 799},
		{"1000/cells16", 1000, 16, 4, 3000, 16649},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.uavs >= 1000 && testing.Short() {
				t.Skip("1000-UAV fleet skipped in -short mode")
			}
			got := tickAllocs(t, tc.uavs, tc.cells, tc.workers, tc.side)
			t.Logf("%s: %.0f allocs/tick (%.1f per UAV-tick)", tc.name, got, got/float64(tc.uavs))
			if got > tc.ceiling {
				t.Errorf("%s: %.0f allocs per tick, ceiling %.0f", tc.name, got, tc.ceiling)
			}
			if tc.cells == 1 && tc.workers > 1 {
				if serial := tickAllocs(t, tc.uavs, tc.cells, 1, tc.side); got != serial {
					t.Errorf("%s: %.0f allocs per tick, Workers=1 allocates %.0f", tc.name, got, serial)
				}
			}
		})
	}
}

// tickAllocs flies a fleet for 30 ticks and returns the average heap
// allocations of the ticks after.
func tickAllocs(t *testing.T, uavs, cells, workers int, side float64) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cells = cells
	cfg.Workers = workers
	p := buildFleet(t, cfg, 7, uavs, 12)
	if err := p.StartMission(classicArea(side)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	got := testing.AllocsPerRun(20, func() {
		if e := p.Tick(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}
