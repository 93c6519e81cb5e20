package experiments

import (
	"io"

	"sesame/internal/campaign"
	"sesame/internal/colloc"
	"sesame/internal/geo"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// Fig7Point is one sample of the assisted-landing tracks.
type Fig7Point struct {
	Time                    float64
	VictimEast, VictimNorth float64
	Assist1E, Assist1N      float64
	Assist2E, Assist2N      float64
	EstimateErrM            float64 // fused estimate vs truth
}

// Fig7Result reproduces Fig. 7: the spoofed UAV collaborating with
// assisting UAVs to land safely at a precise location without GPS.
type Fig7Result struct {
	Track         []Fig7Point
	LandingTarget geo.LatLng
	LandedAt      geo.LatLng
	LandingErrorM float64
	LandedOK      bool
	DurationS     float64
	Observers     int
}

// RunFig7 stages the spoofed UAV (GPS cut after detection) and two
// assisting UAVs, runs the collaborative landing, and records tracks.
func RunFig7(seed int64) (*Fig7Result, error) {
	w := uavsim.NewWorld(platform.ClassicHome, seed)
	victim, err := w.AddUAV(uavsim.UAVConfig{ID: "victim", Home: platform.ClassicHome, CruiseSpeedMS: 8})
	if err != nil {
		return nil, err
	}
	if err := victim.TakeOff(25); err != nil {
		return nil, err
	}
	assistants := make([]*uavsim.UAV, 2)
	var observers []*colloc.Observer
	for i := range assistants {
		home := geo.Destination(platform.ClassicHome, float64(i)*180+60, 160)
		a, err := w.AddUAV(uavsim.UAVConfig{ID: "assist" + string(rune('1'+i)), Home: home})
		if err != nil {
			return nil, err
		}
		if err := a.TakeOff(32); err != nil {
			return nil, err
		}
		assistants[i] = a
		o, err := colloc.NewObserver(a, w.Clock.Stream("fig7/obs"+string(rune('1'+i))))
		if err != nil {
			return nil, err
		}
		observers = append(observers, o)
	}
	if err := w.Run(14, 0.5); err != nil {
		return nil, err
	}

	// Post-detection state: the victim's GPS is untrusted and cut.
	victim.GPS.Mode = uavsim.GPSModeDropout
	target := geo.Destination(platform.ClassicHome, 135, 130)
	ctrl, err := colloc.NewController(victim, target, observers, w)
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{LandingTarget: target, Observers: len(observers)}
	proj := geo.NewProjection(platform.ClassicHome)
	start := w.Clock.Now()
	for step := 0; step < 1200 && victim.Mode() != uavsim.ModeLanded; step++ {
		ctrl.Step()
		if err := w.Step(0.5); err != nil {
			return nil, err
		}
		if step%4 == 0 {
			vp := proj.ToENU(victim.TruePosition())
			a1 := proj.ToENU(assistants[0].TruePosition())
			a2 := proj.ToENU(assistants[1].TruePosition())
			pt := Fig7Point{
				Time:       w.Clock.Now(),
				VictimEast: vp.East, VictimNorth: vp.North,
				Assist1E: a1.East, Assist1N: a1.North,
				Assist2E: a2.East, Assist2N: a2.North,
			}
			if est, ok := ctrl.Localizer.Estimate(); ok {
				pt.EstimateErrM = geo.Haversine(est, victim.TruePosition())
			}
			res.Track = append(res.Track, pt)
		}
	}
	res.LandedOK = victim.Mode() == uavsim.ModeLanded
	res.LandedAt = victim.TruePosition()
	res.LandingErrorM = ctrl.LandingError()
	res.DurationS = w.Clock.Now() - start
	return res, nil
}

// Fig7Stats aggregates the landing error over many seeds, giving the
// Fig. 7 result statistical weight a single trace cannot.
type Fig7Stats struct {
	Seeds     int
	Landed    int
	MeanErrM  float64
	P95ErrM   float64
	WorstErrM float64
	MeanDurS  float64
}

// RunFig7Stats repeats the assisted landing across seeds 1..n.
func RunFig7Stats(n int) (*Fig7Stats, error) {
	if n < 1 {
		n = 1
	}
	stats := &Fig7Stats{Seeds: n}
	var errs []float64
	for seed := 1; seed <= n; seed++ {
		r, err := RunFig7(int64(seed))
		if err != nil {
			return nil, err
		}
		if !r.LandedOK {
			continue
		}
		stats.Landed++
		errs = append(errs, r.LandingErrorM)
		stats.MeanErrM += r.LandingErrorM
		stats.MeanDurS += r.DurationS
		if r.LandingErrorM > stats.WorstErrM {
			stats.WorstErrM = r.LandingErrorM
		}
	}
	if stats.Landed > 0 {
		stats.MeanErrM /= float64(stats.Landed)
		stats.MeanDurS /= float64(stats.Landed)
		stats.P95ErrM = campaign.Percentile(errs, 0.95)
	}
	return stats, nil
}

// Print writes the landing statistics.
func (s *Fig7Stats) Print(w io.Writer) {
	printf(w, "\nFig. 7 statistics over %d seeds: %d/%d landed, landing error mean %.2f m, p95 %.2f m, worst %.2f m, mean duration %.0f s\n",
		s.Seeds, s.Landed, s.Seeds, s.MeanErrM, s.P95ErrM, s.WorstErrM, s.MeanDurS)
}

// Print writes the Fig. 7 tracks and landing summary.
func (r *Fig7Result) Print(w io.Writer) {
	printf(w, "== Fig. 7: Collaborative Localization assisted landing (GPS-denied) ==\n")
	printf(w, "%d assisting UAVs, victim has no GPS signal\n\n", r.Observers)
	printf(w, "%6s  %18s  %18s  %18s  %10s\n", "t(s)", "victim (E,N) m", "assistant-1", "assistant-2", "est err m")
	for i, pt := range r.Track {
		if i%5 != 0 {
			continue
		}
		printf(w, "%6.1f  (%7.1f,%7.1f)  (%7.1f,%7.1f)  (%7.1f,%7.1f)  %10.2f\n",
			pt.Time, pt.VictimEast, pt.VictimNorth, pt.Assist1E, pt.Assist1N, pt.Assist2E, pt.Assist2N, pt.EstimateErrM)
	}
	printf(w, "\nlanded: %v in %.0f s\n", r.LandedOK, r.DurationS)
	printf(w, "landing error: %.2f m from designated safe point (paper: \"high precision location\")\n", r.LandingErrorM)
}
