package sar

import (
	"math"
	"testing"

	"sesame/internal/geo"
)

var origin = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

func squareArea(side float64) geo.Polygon {
	a := origin
	b := geo.Destination(a, 90, side)
	c := geo.Destination(b, 0, side)
	d := geo.Destination(a, 0, side)
	return geo.Polygon{a, b, c, d}
}

func TestBoustrophedonValidation(t *testing.T) {
	if _, err := BoustrophedonPath(nil, 10); err == nil {
		t.Error("nil area must fail")
	}
	if _, err := BoustrophedonPath(squareArea(100), 0); err == nil {
		t.Error("zero spacing must fail")
	}
	if _, err := BoustrophedonPath(squareArea(1), 1000); err == nil {
		t.Error("spacing larger than area must fail")
	}
}

func TestBoustrophedonCoversSquare(t *testing.T) {
	area := squareArea(200)
	path, err := BoustrophedonPath(area, 20)
	if err != nil {
		t.Fatal(err)
	}
	// 200 m tall with 20 m spacing -> 10 sweep lines, 2 points each.
	if len(path) != 20 {
		t.Fatalf("path has %d points, want 20", len(path))
	}
	frac, err := CoverageFraction(area, path, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.98 {
		t.Fatalf("coverage = %v, want ~1 at radius >= spacing/2", frac)
	}
	// All waypoints stay within (or on the edge of) the area bbox.
	sw, ne := area.BoundingBox()
	for _, p := range path {
		if p.Lat < sw.Lat-1e-6 || p.Lat > ne.Lat+1e-6 || p.Lng < sw.Lng-1e-6 || p.Lng > ne.Lng+1e-6 {
			t.Fatalf("waypoint %v escapes area", p)
		}
	}
}

func TestBoustrophedonSerpentine(t *testing.T) {
	path, err := BoustrophedonPath(squareArea(100), 25)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive rows must alternate direction: row i ends where row
	// i+1 starts on the same side (short transition), i.e. the
	// transition distance must be about the spacing, not the full
	// width.
	for i := 1; i+1 < len(path); i += 2 {
		trans := geo.Haversine(path[i], path[i+1])
		if trans > 40 {
			t.Fatalf("transition %d is %.0f m; serpentine broken", i, trans)
		}
	}
}

func TestCoverageFractionSparse(t *testing.T) {
	area := squareArea(200)
	path, _ := BoustrophedonPath(area, 80)
	frac, err := CoverageFraction(area, path, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0.6 {
		t.Fatalf("sparse sweep coverage = %v, should be partial", frac)
	}
	empty, err := CoverageFraction(area, nil, 10, 5)
	if err != nil || empty != 0 {
		t.Fatalf("empty path coverage = %v, %v", empty, err)
	}
	if _, err := CoverageFraction(area, path, 0, 5); err == nil {
		t.Fatal("zero radius must fail")
	}
}

func TestPartitionStrips(t *testing.T) {
	area := squareArea(300)
	strips, err := PartitionStrips(area, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(strips) != 3 {
		t.Fatalf("strips = %d", len(strips))
	}
	var total float64
	for _, s := range strips {
		total += s.AreaSquareMeters()
	}
	// Strips tile the bounding box; for a square area they tile the
	// area itself.
	if math.Abs(total-area.AreaSquareMeters())/area.AreaSquareMeters() > 0.02 {
		t.Fatalf("strip areas sum to %v, area is %v", total, area.AreaSquareMeters())
	}
	if _, err := PartitionStrips(area, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := PartitionStrips(nil, 2); err == nil {
		t.Fatal("nil area must fail")
	}
}

func TestPlanMission(t *testing.T) {
	area := squareArea(300)
	m, err := PlanMission(area, []string{"u3", "u1", "u2"}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(m.Assignments))
	}
	uavs := m.UAVs()
	if uavs[0] != "u1" || uavs[2] != "u3" {
		t.Fatalf("UAVs = %v", uavs)
	}
	// Strips assigned deterministically west to east by sorted id.
	if m.Assignments["u1"].Path[0].Lng >= m.Assignments["u3"].Path[0].Lng {
		t.Fatal("strip order not deterministic")
	}
	if m.TotalPathLength() <= 0 {
		t.Fatal("zero total path length")
	}
	// Union of the three strip sweeps covers the whole area.
	var all []geo.LatLng
	for _, u := range uavs {
		all = append(all, m.Assignments[u].Path...)
	}
	frac, err := CoverageFraction(area, all, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.9 {
		t.Fatalf("fleet coverage = %v", frac)
	}
}

func TestPlanMissionValidation(t *testing.T) {
	area := squareArea(100)
	if _, err := PlanMission(area, nil, 10); err == nil {
		t.Error("no UAVs must fail")
	}
	if _, err := PlanMission(area, []string{""}, 10); err == nil {
		t.Error("empty id must fail")
	}
	if _, err := PlanMission(area, []string{"a", "a"}, 10); err == nil {
		t.Error("duplicate ids must fail")
	}
}

func TestRedistribute(t *testing.T) {
	area := squareArea(300)
	m, _ := PlanMission(area, []string{"u1", "u2", "u3"}, 25)
	remaining := m.Assignments["u2"].Path[4:]
	beforeU1 := len(m.Assignments["u1"].Path)
	beforeU3 := len(m.Assignments["u3"].Path)
	if err := m.Redistribute("u2", remaining); err != nil {
		t.Fatal(err)
	}
	if _, still := m.Assignments["u2"]; still {
		t.Fatal("failed UAV must be removed")
	}
	gained := (len(m.Assignments["u1"].Path) - beforeU1) + (len(m.Assignments["u3"].Path) - beforeU3)
	if gained != len(remaining) {
		t.Fatalf("redistributed %d waypoints, want %d", gained, len(remaining))
	}
	if err := m.Redistribute("ghost", nil); err == nil {
		t.Fatal("unknown UAV must fail")
	}
}

func TestRedistributeLastUAV(t *testing.T) {
	m, _ := PlanMission(squareArea(100), []string{"solo"}, 20)
	if err := m.Redistribute("solo", m.Assignments["solo"].Path); err == nil {
		t.Fatal("redistributing from the only UAV must fail")
	}
}

func TestRedistributeCascadeToLastSurvivor(t *testing.T) {
	m, _ := PlanMission(squareArea(300), []string{"u1", "u2"}, 25)
	before := len(m.Assignments["u2"].Path)
	handoff := m.Assignments["u1"].Path[2:]
	if err := m.Redistribute("u1", handoff); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Assignments["u2"].Path); got != before+len(handoff) {
		t.Fatalf("sole survivor has %d waypoints, want %d", got, before+len(handoff))
	}
	if len(m.Assignments) != 1 {
		t.Fatalf("expected a single assignment, have %d", len(m.Assignments))
	}
	// The survivor fails too: nobody is left to take over, the mission
	// plan empties and the caller must see the error.
	if err := m.Redistribute("u2", m.Assignments["u2"].Path); err == nil {
		t.Fatal("redistributing from the last survivor must fail")
	}
	if len(m.Assignments) != 0 {
		t.Fatal("failed survivor must still be removed from the plan")
	}
}

func TestRedistributeNothingRemaining(t *testing.T) {
	m, _ := PlanMission(squareArea(300), []string{"u1", "u2"}, 25)
	before := len(m.Assignments["u1"].Path)
	if err := m.Redistribute("u2", nil); err != nil {
		t.Fatal(err)
	}
	if len(m.Assignments["u1"].Path) != before {
		t.Fatal("no waypoints should be added")
	}
}

func TestAvailabilityTracker(t *testing.T) {
	tr, err := NewAvailabilityTracker(0, []string{"u1", "u2"})
	if err != nil {
		t.Fatal(err)
	}
	// u1 down from 250 to 310 (60 s of a 510 s mission) -> ~88%.
	if err := tr.MarkDown("u1", 250); err != nil {
		t.Fatal(err)
	}
	if err := tr.MarkUp("u1", 310); err != nil {
		t.Fatal(err)
	}
	a, err := tr.Availability("u1", 510)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 60.0/510
	if math.Abs(a-want) > 1e-9 {
		t.Fatalf("availability = %v, want %v", a, want)
	}
	// u2 never down.
	a2, _ := tr.Availability("u2", 510)
	if a2 != 1 {
		t.Fatalf("u2 availability = %v", a2)
	}
	fleet, err := tr.FleetAvailability(510)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fleet-(a+1)/2) > 1e-9 {
		t.Fatalf("fleet = %v", fleet)
	}
}

// TestFleetAvailabilityIsDeterministic: the fleet mean must not depend
// on map iteration order. Float addition is not associative, so summing
// these seven availabilities in a varying order yields different last
// bits.
func TestFleetAvailabilityIsDeterministic(t *testing.T) {
	fleet := []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7"}
	tr, err := NewAvailabilityTracker(0, fleet)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range fleet {
		if err := tr.MarkDown(u, 10*float64(i+1)/3); err != nil {
			t.Fatal(err)
		}
		if err := tr.MarkUp(u, 100+float64(i*i)/7); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tr.FleetAvailability(997)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if got, _ := tr.FleetAvailability(997); got != first {
			t.Fatalf("call %d: fleet availability %v, first call %v", i, got, first)
		}
	}
}

func TestAvailabilityOpenEndedDown(t *testing.T) {
	tr, _ := NewAvailabilityTracker(0, []string{"u1"})
	_ = tr.MarkDown("u1", 400)
	// Still down at mission end 500: 100 s down.
	a, _ := tr.Availability("u1", 500)
	if math.Abs(a-0.8) > 1e-9 {
		t.Fatalf("availability = %v, want 0.8", a)
	}
	// Double MarkDown is idempotent.
	_ = tr.MarkDown("u1", 450)
	a2, _ := tr.Availability("u1", 500)
	if math.Abs(a2-0.8) > 1e-9 {
		t.Fatalf("availability = %v after double down", a2)
	}
}

func TestAvailabilityValidation(t *testing.T) {
	if _, err := NewAvailabilityTracker(0, nil); err == nil {
		t.Error("no UAVs must fail")
	}
	tr, _ := NewAvailabilityTracker(0, []string{"u1"})
	if err := tr.MarkDown("ghost", 1); err == nil {
		t.Error("unknown UAV must fail")
	}
	if err := tr.MarkUp("ghost", 1); err == nil {
		t.Error("unknown UAV must fail")
	}
	if _, err := tr.Availability("ghost", 10); err == nil {
		t.Error("unknown UAV must fail")
	}
	if _, err := tr.Availability("u1", 0); err == nil {
		t.Error("zero duration must fail")
	}
}

func BenchmarkPlanMissionThreeUAVs(b *testing.B) {
	area := squareArea(500)
	uavs := []string{"u1", "u2", "u3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanMission(area, uavs, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoverageFraction(b *testing.B) {
	area := squareArea(300)
	path, _ := BoustrophedonPath(area, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoverageFraction(area, path, 15, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlanMissionWithPlanner(t *testing.T) {
	area := squareArea(300)
	m, err := PlanMissionWith(area, []string{"u1", "u2"}, 40, ExpandingSquarePath)
	if err != nil {
		t.Fatal(err)
	}
	// Each task starts near its strip centre (expanding square).
	for u, task := range m.Assignments {
		centre, _ := task.Area.Centroid()
		first := geo.Haversine(task.Path[0], centre)
		last := geo.Haversine(task.Path[len(task.Path)-1], centre)
		if first > last {
			t.Fatalf("%s: expanding square must start at the centre (%.0f vs %.0f)", u, first, last)
		}
	}
	if _, err := PlanMissionWith(area, []string{"u1"}, 40, nil); err == nil {
		t.Fatal("nil planner must fail")
	}
}
