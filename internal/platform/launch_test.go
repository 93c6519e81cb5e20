package platform

import (
	"testing"

	"sesame/internal/scenario"
)

// TestLaunchScenarioLinksHoldFromLaunch pins the anchor of a
// scenario's link rules: outage windows count from launch, like the
// fault timeline, so an outage that opens and closes during the ~22 s
// climb-out silences the vehicle's frames while it is open.
func TestLaunchScenarioLinksHoldFromLaunch(t *testing.T) {
	sc := scenario.Classic(3, 3, 0, 400)
	sc.HorizonS = 120
	sc.Links = []scenario.Link{{UAV: "u2", OutageFromS: 5, OutageToS: 15}}
	run, err := LaunchScenario(sc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Platform.Close()
	climb := run.World.Clock.Now() - run.Start
	if climb <= 15 {
		t.Fatalf("climb-out lasted %.0f s; the test needs it to outlast the outage", climb)
	}
	stats := run.Links.Stats()
	u2 := stats["u2"]
	if u2.OutageDropped == 0 {
		t.Fatalf("u2's outage from t=+5 s dropped no climb-out frame: %+v", u2)
	}
	// u2 publishes at a steady rate through the climb-out, and the
	// outage silences exactly ten of its seconds.
	perSecond := float64(u2.Offered) / climb
	if want := uint64(perSecond * 10); u2.OutageDropped != want || u2.Delivered != u2.Offered-want {
		t.Errorf("u2 over a %.0f s climb-out: %+v, want %d of %d frames outage-dropped", climb, u2, want, u2.Offered)
	}
	if _, linked := stats["u1"]; linked {
		t.Error("u1 has no link rule but got a link")
	}
}
