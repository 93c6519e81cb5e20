package experiments

import (
	"io"
	"math/rand"

	"sesame/internal/campaign"
	"sesame/internal/colloc"
	"sesame/internal/geo"
	"sesame/internal/safedrones"
	"sesame/internal/statdist"
	"sesame/internal/uavsim"
)

// MeasurePower is one statistical-distance measure's detection power
// on altitude-induced feature drift (ablation ABL-a).
type MeasurePower struct {
	Measure string
	// DetectionRate is the fraction of drifted windows whose distance
	// exceeds the null 95th percentile.
	DetectionRate float64
	// FalseAlarmRate on in-distribution windows.
	FalseAlarmRate float64
}

// ObserverPoint is one observer-count operating point (ABL-b).
type ObserverPoint struct {
	Observers    int
	MeanEstErrM  float64
	WorstEstErrM float64
}

// CBEPoint compares fault-tree PoF with Markov complex basic events
// vs flattened static events (ABL-c).
type CBEPoint struct {
	Time        float64
	DynamicPoF  float64
	StaticPoF   float64
	OverClaimPc float64 // how much the static model over-claims
}

// ReconfigPoint compares propulsion PoF with and without
// reconfiguration (ABL-d).
type ReconfigPoint struct {
	Time     float64
	QuadPoF  float64
	HexPoF   float64
	RatioQ2H float64
}

// AblationResult aggregates all four design-choice ablations.
type AblationResult struct {
	Measures  []MeasurePower
	Observers []ObserverPoint
	CBE       []CBEPoint
	Reconfig  []ReconfigPoint
}

// RunAblations executes the four ablations of DESIGN.md.
func RunAblations(seed int64) (*AblationResult, error) {
	res := &AblationResult{}

	// ABL-a: distance measure power on a 1.2-sigma mean shift
	// (approximately the 45 m altitude drift).
	rng := rand.New(rand.NewSource(seed))
	const refN, winN, trials = 300, 40, 60
	ref := make([]float64, refN)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	window := func(shift float64) []float64 {
		out := make([]float64, winN)
		for i := range out {
			out[i] = rng.NormFloat64() + shift
		}
		return out
	}
	for _, m := range statdist.All() {
		// Null distribution of the statistic.
		var null []float64
		for i := 0; i < trials*2; i++ {
			d, err := statdist.Distance(m, ref, window(0))
			if err != nil {
				return nil, err
			}
			null = append(null, d)
		}
		// 95th percentile threshold.
		thr := campaign.Percentile(null, 0.95)
		var hits, falses int
		for i := 0; i < trials; i++ {
			d, err := statdist.Distance(m, ref, window(1.2))
			if err != nil {
				return nil, err
			}
			if d > thr {
				hits++
			}
			d0, err := statdist.Distance(m, ref, window(0))
			if err != nil {
				return nil, err
			}
			if d0 > thr {
				falses++
			}
		}
		res.Measures = append(res.Measures, MeasurePower{
			Measure:        m.Name(),
			DetectionRate:  float64(hits) / trials,
			FalseAlarmRate: float64(falses) / trials,
		})
	}

	// ABL-b: observer count vs collaborative estimation error.
	for _, n := range []int{1, 2, 3} {
		var sum, worst float64
		count := 0
		for s := int64(1); s <= 4; s++ {
			w := uavsim.NewWorld(classicHome, seed+s)
			affected, err := w.AddUAV(uavsim.UAVConfig{ID: "affected", Home: classicHome})
			if err != nil {
				return nil, err
			}
			_ = affected.TakeOff(25)
			var observers []*colloc.Observer
			for i := 0; i < n; i++ {
				home := geo.Destination(classicHome, float64(i)*120+30, 150)
				a, err := w.AddUAV(uavsim.UAVConfig{ID: "as" + string(rune('0'+i)), Home: home})
				if err != nil {
					return nil, err
				}
				_ = a.TakeOff(30)
				o, err := colloc.NewObserver(a, w.Clock.Stream("abl/obs"+string(rune('0'+i))))
				if err != nil {
					return nil, err
				}
				observers = append(observers, o)
			}
			_ = w.Run(12, 0.5)
			loc, err := colloc.NewLocalizer(0.4)
			if err != nil {
				return nil, err
			}
			for i := 0; i < 80; i++ {
				var obs []geo.BearingObservation
				for _, o := range observers {
					if m, ok := o.Observe(affected); ok {
						obs = append(obs, m)
					}
				}
				if _, err := loc.Update(obs); err != nil {
					continue
				}
				if i >= 20 {
					est, _ := loc.Estimate()
					e := geo.Haversine(est, affected.TruePosition())
					sum += e
					count++
					if e > worst {
						worst = e
					}
				}
			}
		}
		res.Observers = append(res.Observers, ObserverPoint{
			Observers:    n,
			MeanEstErrM:  sum / float64(count),
			WorstEstErrM: worst,
		})
	}

	// ABL-c: Markov complex basic events vs static exponential events.
	cfg := safedrones.DefaultConfig()
	stress := safedrones.BatteryStress{ChargePct: 70, TempC: 45}
	dyn, err := safedrones.DesignTimeTree(cfg, stress)
	if err != nil {
		return nil, err
	}
	stat, err := safedrones.StaticTree(cfg, stress)
	if err != nil {
		return nil, err
	}
	for _, ts := range []float64{60, 150, 300, 510, 900, 1800} {
		pd, err := dyn.Probability(ts)
		if err != nil {
			return nil, err
		}
		ps, err := stat.Probability(ts)
		if err != nil {
			return nil, err
		}
		over := 0.0
		if pd > 0 {
			over = (ps - pd) / pd * 100
		}
		res.CBE = append(res.CBE, CBEPoint{Time: ts, DynamicPoF: pd, StaticPoF: ps, OverClaimPc: over})
	}

	// ABL-d: propulsion reconfiguration on/off.
	quad, err := safedrones.PropulsionChain(4, 4, 1e-4)
	if err != nil {
		return nil, err
	}
	hex, err := safedrones.PropulsionChain(6, 4, 1e-4)
	if err != nil {
		return nil, err
	}
	for _, ts := range []float64{300, 900, 1800, 3600} {
		pq, err := quad.FailureProbability("m0", ts, "failure")
		if err != nil {
			return nil, err
		}
		ph, err := hex.FailureProbability("m0", ts, "failure")
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if ph > 0 {
			ratio = pq / ph
		}
		res.Reconfig = append(res.Reconfig, ReconfigPoint{Time: ts, QuadPoF: pq, HexPoF: ph, RatioQ2H: ratio})
	}
	return res, nil
}

// Print writes all four ablation tables.
func (r *AblationResult) Print(w io.Writer) {
	printf(w, "== ABL-a: statistical distance measure choice (SafeML) ==\n")
	printf(w, "%-20s %12s %12s\n", "measure", "detect-rate", "false-alarm")
	for _, m := range r.Measures {
		printf(w, "%-20s %11.0f%% %11.0f%%\n", m.Measure, m.DetectionRate*100, m.FalseAlarmRate*100)
	}
	printf(w, "\n== ABL-b: collaborating observer count (CL) ==\n")
	printf(w, "%10s %14s %14s\n", "observers", "mean est err", "worst est err")
	for _, o := range r.Observers {
		printf(w, "%10d %12.2f m %12.2f m\n", o.Observers, o.MeanEstErrM, o.WorstEstErrM)
	}
	printf(w, "\n== ABL-c: Markov complex basic events vs static exponential (SafeDrones FTA) ==\n")
	printf(w, "%8s %12s %12s %12s\n", "t(s)", "dynamic PoF", "static PoF", "over-claim")
	for _, c := range r.CBE {
		printf(w, "%8.0f %12.5f %12.5f %11.1f%%\n", c.Time, c.DynamicPoF, c.StaticPoF, c.OverClaimPc)
	}
	printf(w, "\n== ABL-d: propulsion reconfiguration (quad vs hex, same motor rate) ==\n")
	printf(w, "%8s %12s %12s %10s\n", "t(s)", "quad PoF", "hex PoF", "quad/hex")
	for _, p := range r.Reconfig {
		printf(w, "%8.0f %12.6f %12.6f %9.0fx\n", p.Time, p.QuadPoF, p.HexPoF, p.RatioQ2H)
	}
}
