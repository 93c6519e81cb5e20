package scenario

import (
	"fmt"

	"sesame/internal/geo"
)

// Home is the launch point of the paper's field trials (Nicosia,
// Cyprus): the classic mission's origin and the anchor generated
// scenarios jitter around.
var Home = Point{Lat: 35.1856, Lng: 33.3823}

// ClassicSquare returns the side x side survey square whose south-west
// corner lies 80 m north-east of Home.
func ClassicSquare(side float64) geo.Polygon {
	a := geo.Destination(Home.LatLng(), 45, 80)
	b := geo.Destination(a, 90, side)
	c := geo.Destination(b, 0, side)
	d := geo.Destination(a, 0, side)
	return geo.Polygon{a, b, c, d}
}

// Classic describes the paper's §V mission: vehicles u1..uN launching
// from Home at 12 m/s, sweeping the ClassicSquare of side sideM over
// persons survivors, 20 % of them critical (none when persons <= 0).
// Callers set HorizonS and add their own Timeline, Links and Chaos
// before launching it.
func Classic(seed int64, uavs, persons int, sideM float64) *Scenario {
	sc := &Scenario{Name: "classic", Seed: seed, Origin: Home}
	site := Site{}
	for _, p := range ClassicSquare(sideM) {
		site.Area = append(site.Area, Point{Lat: p.Lat, Lng: p.Lng})
	}
	sc.Sites = []Site{site}
	sc.Fleet = make([]Vehicle, uavs)
	for i := range sc.Fleet {
		sc.Fleet[i] = Vehicle{ID: fmt.Sprintf("u%d", i+1), CruiseSpeedMS: 12}
	}
	if persons > 0 {
		sc.Persons, sc.CriticalProb = persons, 0.2
	}
	return sc
}

// BatteryCollapse is the §V-A fault: uav's pack overheats to 70 °C and
// its charge collapses to 40 %, atS seconds after launch.
func BatteryCollapse(atS float64, uav string) Event {
	return Event{AtS: atS, UAV: uav, Kind: EventBatteryCollapse, TempC: 70, ChargePct: 40}
}

// GPSSpoof is the §V-C attack: uav's GPS fix drifts away on bearing
// 135° at 3 m/s from atS seconds after launch.
func GPSSpoof(atS float64, uav string) Event {
	return Event{AtS: atS, UAV: uav, Kind: EventGPSSpoof, BearingDeg: 135, DriftMS: 3}
}
