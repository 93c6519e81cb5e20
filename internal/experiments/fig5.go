package experiments

import (
	"io"

	"sesame/internal/platform"
	"sesame/internal/safedrones"
	"sesame/internal/scenario"
)

// Fig5Point is one sample of the probability-of-failure curve.
type Fig5Point struct {
	Time        float64
	PoFEDDI     float64 // with SESAME (blue line in Fig. 5)
	PoFReactive float64 // without SESAME (red line)
}

// Fig5Result reproduces Fig. 5 and the §V-A availability comparison.
type Fig5Result struct {
	// Curve is the PoF time series under both policies, for the
	// paper's exact scenario: battery 80%->40% at t=250 s, mission end
	// 510 s, threshold 0.9.
	Curve []Fig5Point
	// ThresholdCrossS is when the EDDI PoF crosses 0.9 (paper: ~510 s).
	ThresholdCrossS float64
	// ReactiveAbortS is when the baseline aborts (paper: 250 s).
	ReactiveAbortS float64
	// MissionEndS is the planned mission end (510 s).
	MissionEndS float64
	// EDDICompletesMission reports whether the threshold fired at or
	// after the mission end (the paper's headline behaviour).
	EDDICompletesMission bool

	// Platform-level availability comparison (paper: ~91% vs ~80%).
	AvailabilityEDDI     float64
	AvailabilityReactive float64
	ImprovementPct       float64
	// Mission completion times: the baseline's abort/swap/redeploy
	// cycle stretches the mission (paper: ~11% improvement with
	// SESAME).
	CompletionEDDIS     float64
	CompletionReactiveS float64
	TimeImprovementPct  float64
}

// fig5Telemetry produces the scenario telemetry at time ts.
func fig5Telemetry(ts float64) safedrones.Telemetry {
	tel := safedrones.Telemetry{Time: ts, CommsOK: true, Airborne: true}
	if ts < 250 {
		tel.ChargePct = 80
		tel.TempC = 35
	} else {
		tel.ChargePct = 40
		tel.TempC = 70
		tel.Overheating = true
	}
	return tel
}

// RunFig5 executes both parts of the §V-A evaluation.
func RunFig5(seed int64) (*Fig5Result, error) {
	res := &Fig5Result{MissionEndS: 510, ThresholdCrossS: -1, ReactiveAbortS: -1}

	// Part 1: the monitor-level PoF curves of Fig. 5.
	eddiCfg := safedrones.DefaultConfig()
	eddiCfg.Policy = safedrones.PolicyEDDI
	reactCfg := safedrones.DefaultConfig()
	reactCfg.Policy = safedrones.PolicyReactive
	eddiMon, err := safedrones.NewMonitor("u1", eddiCfg)
	if err != nil {
		return nil, err
	}
	reactMon, err := safedrones.NewMonitor("u1", reactCfg)
	if err != nil {
		return nil, err
	}
	reactiveAirborne := true
	for ts := 0.0; ts <= 600; ts++ {
		tel := fig5Telemetry(ts)
		ea, err := eddiMon.Observe(tel)
		if err != nil {
			return nil, err
		}
		// The baseline returns to base on the first anomaly; it lands
		// 60 s later and stops accumulating flight hazard.
		rtel := tel
		rtel.Airborne = reactiveAirborne
		ra, err := reactMon.Observe(rtel)
		if err != nil {
			return nil, err
		}
		if res.ReactiveAbortS < 0 && ra.Advice == safedrones.AdviceReturnToBase {
			res.ReactiveAbortS = ts
		}
		// The baseline lands (and swaps the battery) 60 s after the
		// abort; from then on it accrues no flight hazard.
		if res.ReactiveAbortS >= 0 && ts >= res.ReactiveAbortS+60 {
			reactiveAirborne = false
		}
		res.Curve = append(res.Curve, Fig5Point{Time: ts, PoFEDDI: ea.PoF, PoFReactive: ra.PoF})
		if res.ThresholdCrossS < 0 && ea.PoF >= eddiCfg.EmergencyPoF {
			res.ThresholdCrossS = ts
		}
	}
	res.EDDICompletesMission = res.ThresholdCrossS < 0 || res.ThresholdCrossS >= res.MissionEndS-60

	// Part 2: the platform-level availability comparison.
	runPlatform := func(sesame bool) (avail, completion float64, err error) {
		sc := scenario.Classic(seed, 3, 0, 350)
		sc.HorizonS = 1500
		sc.Timeline = []scenario.Event{scenario.BatteryCollapse(60, "u1")}
		cfg := platform.DefaultConfig()
		cfg.SESAME = sesame
		run, err := platform.LaunchScenario(sc, cfg)
		if err != nil {
			return 0, 0, err
		}
		p := run.Platform
		defer p.Close()
		if err := p.RunMission(sc.HorizonS); err != nil {
			return 0, 0, err
		}
		avail, err = p.Availability()
		return avail, run.World.Clock.Now() - run.Start, err
	}
	if res.AvailabilityEDDI, res.CompletionEDDIS, err = runPlatform(true); err != nil {
		return nil, err
	}
	if res.AvailabilityReactive, res.CompletionReactiveS, err = runPlatform(false); err != nil {
		return nil, err
	}
	res.ImprovementPct = (res.AvailabilityEDDI - res.AvailabilityReactive) * 100
	if res.CompletionReactiveS > 0 {
		res.TimeImprovementPct = (res.CompletionReactiveS - res.CompletionEDDIS) / res.CompletionReactiveS * 100
	}
	return res, nil
}

// Print writes the Fig. 5 series and the availability table.
func (r *Fig5Result) Print(w io.Writer) {
	printf(w, "== Fig. 5: Probability of Failure of a UAV with Battery Failure ==\n")
	printf(w, "scenario: battery 80%%->40%% at t=250 s (thermal fault), mission end %v s, threshold 0.9\n\n", r.MissionEndS)
	printf(w, "%8s  %12s  %12s\n", "t(s)", "PoF(SESAME)", "PoF(baseline)")
	for _, pt := range r.Curve {
		if int(pt.Time)%25 == 0 {
			printf(w, "%8.0f  %12.4f  %12.4f\n", pt.Time, pt.PoFEDDI, pt.PoFReactive)
		}
	}
	printf(w, "\nEDDI threshold (0.9) crossed at: t=%.0f s (paper: ~510 s)\n", r.ThresholdCrossS)
	printf(w, "baseline aborts at:              t=%.0f s (paper: 250 s)\n", r.ReactiveAbortS)
	printf(w, "EDDI completes the mission:      %v\n\n", r.EDDICompletesMission)
	printf(w, "== §V-A availability & completion time (integrated platform) ==\n")
	printf(w, "%-26s %10s %10s\n", "", "measured", "paper")
	printf(w, "%-26s %9.1f%% %10s\n", "availability with SESAME", r.AvailabilityEDDI*100, "~91%")
	printf(w, "%-26s %9.1f%% %10s\n", "availability without", r.AvailabilityReactive*100, "~80%")
	printf(w, "%-26s %9.0fs %10s\n", "completion with SESAME", r.CompletionEDDIS, "510 s")
	printf(w, "%-26s %9.0fs %10s\n", "completion without", r.CompletionReactiveS, "~570 s")
	printf(w, "%-26s %9.1f%% %10s\n", "completion improvement", r.TimeImprovementPct, "~11%")
}
