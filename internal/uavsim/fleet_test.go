package uavsim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sesame/internal/geo"
)

// buildFleetWorld creates a gusty world with n airborne vehicles flying
// short missions — the regime where every struct-of-arrays slot is
// exercised each step.
func buildFleetWorld(t *testing.T, n int) *World {
	t.Helper()
	w := NewWorld(testOrigin, 7)
	w.Wind = geo.ENU{East: 1.5, North: -0.5}
	w.GustSigmaMS = 0.8
	for i := 1; i <= n; i++ {
		u, err := w.AddUAV(UAVConfig{
			ID: fmt.Sprintf("u%02d", i), Home: testOrigin, CruiseSpeedMS: 10, ClimbRateMS: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.TakeOff(40); err != nil {
			t.Fatal(err)
		}
		wp := geo.Destination(testOrigin, float64(i*37%360), 150+float64(i)*20)
		if err := u.FlyMission([]geo.LatLng{wp, testOrigin}, 40); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ScheduleFault(BatteryCollapseFault(10, "u01", 70, 30)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSplitStepMatchesStep proves the BeginStep / StepRange /
// FinishStep decomposition is exactly the monolithic Step: a world
// advanced in arbitrary disjoint index ranges must snapshot
// bit-identically to one advanced with Step, faults and gusts included.
func TestSplitStepMatchesStep(t *testing.T) {
	const n, steps = 9, 60
	whole := buildFleetWorld(t, n)
	split := buildFleetWorld(t, n)
	// Uneven chunks that shift every step, covering empty and full-width
	// ranges.
	for s := 0; s < steps; s++ {
		if err := whole.Step(1); err != nil {
			t.Fatal(err)
		}
		now, err := split.BeginStep(1)
		if err != nil {
			t.Fatal(err)
		}
		cut1 := s % (n + 1)
		cut2 := cut1 + (s*3)%(n+1-cut1)
		split.StepRange(0, cut1, 1)
		split.StepRange(cut1, cut2, 1)
		split.StepRange(cut2, n, 1)
		split.FinishStep(now)
	}
	a, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := split.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("split-step world diverges from Step world:\n whole: %+v\n split: %+v", a, b)
	}
	if whole.Drops() != split.Drops() {
		t.Errorf("telemetry drops diverge: %+v != %+v", whole.Drops(), split.Drops())
	}
}

// TestAirborneCountTracksModes pins the incrementally maintained
// airborne counter against every transition path: takeoff, landing,
// crash, and snapshot restore.
func TestAirborneCountTracksModes(t *testing.T) {
	w := newTestWorld(t)
	u1 := addUAV(t, w, "u1")
	u2 := addUAV(t, w, "u2")
	addUAV(t, w, "u3")
	if got := w.AirborneCount(); got != 0 {
		t.Fatalf("AirborneCount = %d before takeoff, want 0", got)
	}
	if err := u1.TakeOff(30); err != nil {
		t.Fatal(err)
	}
	if err := u2.TakeOff(30); err != nil {
		t.Fatal(err)
	}
	if got := w.AirborneCount(); got != 2 {
		t.Fatalf("AirborneCount = %d after two takeoffs, want 2", got)
	}
	u1.Land()
	for i := 0; i < 60 && u1.Mode() != ModeLanded; i++ {
		if err := w.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if u1.Mode() != ModeLanded {
		t.Fatal("u1 never landed")
	}
	if got := w.AirborneCount(); got != 1 {
		t.Fatalf("AirborneCount = %d after landing, want 1", got)
	}
	// A quad with a failed rotor crashes: airborne -> crashed.
	if err := u2.FailRotor(0); err != nil {
		t.Fatal(err)
	}
	if got := w.AirborneCount(); got != 0 {
		t.Fatalf("AirborneCount = %d after crash, want 0", got)
	}
	// Restore flows through the mode setter too.
	snap := u1.Snapshot()
	snap.Mode = ModeHold
	if err := u1.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := w.AirborneCount(); got != 1 {
		t.Fatalf("AirborneCount = %d after restoring an airborne mode, want 1", got)
	}
}

// TestBatteryPointerRepinned grows the fleet far past the battery
// store's initial capacity and checks every vehicle's Battery pointer
// still addresses its own contiguous slot — the invariant AddUAV's
// re-pinning maintains across reallocations.
func TestBatteryPointerRepinned(t *testing.T) {
	w := newTestWorld(t)
	var uavs []*UAV
	for i := 0; i < 40; i++ {
		uavs = append(uavs, addUAV(t, w, fmt.Sprintf("u%02d", i)))
	}
	for _, u := range uavs {
		if u.Battery != &w.fleet.batt[u.idx] {
			t.Fatalf("%s Battery pointer not pinned to fleet slot %d", u.ID(), u.idx)
		}
	}
	// Mutations through the public pointer must hit the shared store.
	uavs[0].Battery.ChargePct = 55
	if w.fleet.batt[uavs[0].idx].ChargePct != 55 {
		t.Error("Battery mutation did not reach the fleet store")
	}
}

// TestFleetSize pins the trivial accessor.
func TestFleetSize(t *testing.T) {
	w := newTestWorld(t)
	if w.FleetSize() != 0 {
		t.Fatal("empty world must have fleet size 0")
	}
	addUAV(t, w, "b")
	addUAV(t, w, "a") // out-of-order add exercises the resort path
	if w.FleetSize() != 2 {
		t.Fatalf("FleetSize = %d, want 2", w.FleetSize())
	}
	ids := []string{w.UAVs()[0].ID(), w.UAVs()[1].ID()}
	if ids[0] != "a" || ids[1] != "b" {
		t.Errorf("fleet order = %v, want [a b]", ids)
	}
}

// TestRestoreDropsExactlyFiredFaults: a fault already due but not yet
// injected when a checkpoint is taken must still fire after restore.
// The snapshot carries the injected-fault count, and the restore drops
// exactly that prefix of the schedule.
func TestRestoreDropsExactlyFiredFaults(t *testing.T) {
	build := func() *World {
		w := buildFleetWorld(t, 2)
		for i := 0; i < 20; i++ {
			if err := w.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		// Due at t=5, scheduled at t=20: the next BeginStep injects it.
		if err := w.ScheduleFault(CommsFailureFault(5, "u02")); err != nil {
			t.Fatal(err)
		}
		return w
	}
	donor := build()
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.FaultsFired != 1 {
		t.Fatalf("FaultsFired = %d, want 1 (the battery fault at t=10)", snap.FaultsFired)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back WorldSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	w := build()
	if err := w.RestoreSnapshot(back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := w.Step(1); err != nil {
		t.Fatal(err)
	}
	if w.uavs["u02"].Comms.OK {
		t.Error("restored: due fault did not fire on the next step")
	}
	if w.faultsFired != 2 {
		t.Errorf("restored: faultsFired = %d, want 2", w.faultsFired)
	}
	if err := donor.Step(1); err != nil {
		t.Fatal(err)
	}
	if donor.uavs["u02"].Comms.OK {
		t.Error("donor: due fault did not fire on the next step")
	}

	// A rebuilt world that already fired more faults than the snapshot
	// recorded cannot be the recorded run.
	stale := back
	stale.FaultsFired = 0
	if err := build().RestoreSnapshot(stale); err == nil {
		t.Error("restore with fewer fired faults than the rebuild succeeded")
	}

	// A checkpoint from before PCG streams records draw counts, not
	// generator states: it is refused, never restored wrongly.
	legacy := back
	legacy.Streams = nil
	if err := json.Unmarshal([]byte(`[{"name":"gps/u01","draws":12}]`), &legacy.Streams); err != nil {
		t.Fatal(err)
	}
	if err := build().RestoreSnapshot(legacy); err == nil || !strings.Contains(err.Error(), "no generator state") {
		t.Errorf("restore of a draw-count checkpoint: err = %v, want a refusal", err)
	}
}
