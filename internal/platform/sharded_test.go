package platform

import (
	"fmt"
	"math/rand"
	"testing"

	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/uavsim"
)

// buildFleet spins up an n-UAV world with an optional scene — the
// variable-size sibling of buildPlatform for sharded-scheduler tests.
func buildFleet(t *testing.T, cfg Config, seed int64, n, persons int) *Platform {
	t.Helper()
	w := uavsim.NewWorld(origin, seed)
	for i := 1; i <= n; i++ {
		home := geo.Destination(origin, 200, 20)
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: fmt.Sprintf("u%02d", i), Home: home, CruiseSpeedMS: 12}); err != nil {
			t.Fatal(err)
		}
	}
	var scene *detection.Scene
	if persons > 0 {
		var err error
		scene, err = detection.NewRandomScene(ClassicArea(400), persons, 0.2, w.Clock.Stream("scene"))
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(w, scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestAutoCells pins the Cells=0 sizing policy.
func TestAutoCells(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {3, 1}, {64, 1}, {65, 2}, {128, 2}, {1000, 16}, {10000, 157},
	} {
		if got := AutoCells(tc.n); got != tc.want {
			t.Errorf("AutoCells(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestShardedSchedulerDeterminism extends TestSchedulerDeterminism to
// the cell-sharded pipeline: across every experiment regime, sharded
// runs must be bit-identical for any cell count >= 2 and any pool size,
// and — in scenarios without a detection scene, where no split RNG
// streams enter the picture — bit-identical to the one-cell layout
// too. Run with -race this exercises the per-cell physics and
// fused prepare+observe phases for data races.
func TestShardedSchedulerDeterminism(t *testing.T) {
	for _, sc := range schedulerScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(cells, workers int) string {
				cfg := sc.cfg()
				cfg.Cells = cells
				cfg.Workers = workers
				p := buildPlatform(t, cfg, sc.seed, sc.persons)
				if err := p.StartMission(ClassicArea(350)); err != nil {
					t.Fatal(err)
				}
				if sc.faults != nil {
					sc.faults(p)
				}
				if err := p.RunMission(sc.horizon); err != nil {
					t.Fatal(err)
				}
				return digestPlatform(t, p)
			}
			want := run(2, 1)
			for _, v := range []struct{ cells, workers int }{
				{2, 8}, {3, 1}, {3, 8},
			} {
				if got := run(v.cells, v.workers); got != want {
					t.Errorf("sharded run (cells=%d workers=%d) diverges: %s != %s",
						v.cells, v.workers, got, want)
				}
			}
			if sc.persons == 0 {
				if oneCell := run(1, 8); oneCell != want {
					t.Errorf("no-scene sharded run diverges from the one-cell layout: %s != %s",
						want, oneCell)
				}
			}
		})
	}
}

// TestShardedDeterminismProperty is the randomized acceptance check:
// for arbitrary fleet sizes, cell counts and pool sizes, a sharded run
// must digest identically to the reference sharded run of the same
// scenario — and, without a scene, to the serial unsharded run.
func TestShardedDeterminismProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const ticks = 120
	for iter := 0; iter < 6; iter++ {
		n := 4 + r.Intn(12)
		persons := 0
		if r.Intn(2) == 1 {
			persons = 8
		}
		seed := int64(100 + iter)
		cellA := 2 + r.Intn(n-1)
		cellB := 2 + r.Intn(n-1)
		workers := 1 + r.Intn(8)
		name := fmt.Sprintf("n=%d persons=%d cells=%d/%d workers=%d", n, persons, cellA, cellB, workers)

		run := func(cells, workers int) string {
			cfg := DefaultConfig()
			cfg.Cells = cells
			cfg.Workers = workers
			p := buildFleet(t, cfg, seed, n, persons)
			if err := p.StartMission(ClassicArea(350)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ticks; i++ {
				if err := p.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			return digestPlatform(t, p)
		}
		want := run(cellA, 1)
		if got := run(cellB, workers); got != want {
			t.Errorf("%s: sharded digests diverge across layouts: %s != %s", name, got, want)
		}
		// Cell counts beyond the fleet size clamp to one UAV per cell
		// and must not change the trajectory either.
		if got := run(n+7, workers); got != want {
			t.Errorf("%s: over-provisioned cell count diverges: %s != %s", name, got, want)
		}
		if persons == 0 {
			if got := run(1, 1); got != want {
				t.Errorf("%s: no-scene sharded run diverges from serial: %s != %s", name, got, want)
			}
		}
	}
}

// TestShardedDropCountersMerged proves the per-shard failure counters
// aggregate into Status.Drops deterministically: a sharded platform
// writing to a forbidden database origin must surface exactly the same
// drop totals as the one-cell layout, on every run.
func TestShardedDropCountersMerged(t *testing.T) {
	run := func(cells int) DropCounters {
		cfg := DefaultConfig()
		cfg.Origin = "203.0.113.5" // public address: Database rejects it
		cfg.Cells = cells
		cfg.Workers = 4
		p := buildFleet(t, cfg, 6, 6, 0)
		if err := p.StartMission(ClassicArea(300)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := p.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return p.Status().Drops
	}
	oneCell := run(1)
	// 6 UAVs x 2 writes x 10 ticks.
	if oneCell.Database != 120 {
		t.Fatalf("one-cell Drops.Database = %d, want 120", oneCell.Database)
	}
	for _, cells := range []int{2, 3, 6} {
		if got := run(cells); got != oneCell {
			t.Errorf("cells=%d Drops = %+v, want %+v", cells, got, oneCell)
		}
		// Merge order is pinned (ascending cells), so repeat runs must
		// reproduce the totals exactly.
		if again := run(cells); again != oneCell {
			t.Errorf("cells=%d Drops not reproducible: %+v != %+v", cells, again, oneCell)
		}
	}
}

// TestShardedCheckpointCountersDrained pins the barrier contract the
// checkpoint path relies on: between ticks every shard-local counter
// has been drained into the platform totals, so a checkpoint taken from
// a sharded run captures complete drop counts and a restored run
// continues from them.
func TestShardedCheckpointCountersDrained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Origin = "203.0.113.5"
	cfg.Cells = 3
	p := buildFleet(t, cfg, 6, 6, 0)
	if err := p.StartMission(ClassicArea(300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for ci := range p.cells {
		if got := p.cells[ci].drops.snapshot(); got.Total() != 0 {
			t.Errorf("cell %d holds undrained drops between ticks: %+v", ci, got)
		}
	}
	snap, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Drops.Database != 60 {
		t.Errorf("checkpoint Drops.Database = %d, want 60", snap.Drops.Database)
	}
}
