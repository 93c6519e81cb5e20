package experiments

import (
	"errors"
	"io"

	"sesame/internal/attacktree"
	"sesame/internal/geo"
	"sesame/internal/ids"
	"sesame/internal/mqttlite"
	"sesame/internal/platform"
	"sesame/internal/sar"
	"sesame/internal/security"
	"sesame/internal/uavsim"
)

// Fig6Point is one trajectory sample.
type Fig6Point struct {
	Time                    float64
	CleanEast, CleanNorth   float64
	SpoofEast, SpoofNorth   float64
	BelievedEast, BelievedN float64 // what the attacked UAV thinks
}

// Fig6Result reproduces Fig. 6: the area-mapping trajectory with and
// without the ROS spoofing attack, plus the Security EDDI detection
// timeline.
type Fig6Result struct {
	Track          []Fig6Point
	SpoofStartS    float64
	DetectionS     float64 // IDS alert -> attack-tree root reached
	MaxDeviationM  float64
	MeanDeviationM float64
	AttackPath     []string
}

// RunFig6 flies the same boustrophedon mapping mission twice — clean
// and under a spoofing attack starting mid-mission — and records the
// true-track deviation and the detection chain.
func RunFig6(seed int64) (*Fig6Result, error) {
	area := platform.ClassicArea(300)
	path, err := sar.BoustrophedonPath(area, 40)
	if err != nil {
		return nil, err
	}

	mkWorld := func() (*uavsim.World, *uavsim.UAV, error) {
		w := uavsim.NewWorld(platform.ClassicHome, seed)
		u, err := w.AddUAV(uavsim.UAVConfig{ID: "u1", Home: platform.ClassicHome, CruiseSpeedMS: 10})
		if err != nil {
			return nil, nil, err
		}
		if err := u.TakeOff(30); err != nil {
			return nil, nil, err
		}
		if err := w.Run(12, 1); err != nil {
			return nil, nil, err
		}
		if err := u.FlyMission(path, 30); err != nil {
			return nil, nil, err
		}
		return w, u, nil
	}

	clean, cu, err := mkWorld()
	if err != nil {
		return nil, err
	}
	attacked, au, err := mkWorld()
	if err != nil {
		return nil, err
	}

	// Attack + detection chain on the attacked world.
	broker := mqttlite.NewBroker()
	det, err := ids.New(attacked.Bus, broker, ids.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer det.Close()
	sec, err := security.New(broker)
	if err != nil {
		return nil, err
	}
	defer sec.Close()
	tree, err := attacktree.SpoofingTree("u1")
	if err != nil {
		return nil, err
	}
	if err := sec.Monitor("u1", tree); err != nil {
		return nil, err
	}
	res := &Fig6Result{SpoofStartS: 60, DetectionS: -1}
	if err := sec.OnEvent(func(ev security.Event) {
		if ev.RootReached && res.DetectionS < 0 {
			res.DetectionS = ev.Alert.Stamp
			res.AttackPath = ev.Path
		}
	}); err != nil {
		return nil, err
	}
	if err := attacked.ScheduleFault(uavsim.GPSSpoofFault(res.SpoofStartS, "u1", 225, 2.5)); err != nil {
		return nil, err
	}

	proj := geo.NewProjection(platform.ClassicHome)
	var sumDev float64
	n := 0
	for ts := attacked.Clock.Now(); ts < 400; ts++ {
		if err := clean.Step(1); err != nil {
			return nil, err
		}
		if err := attacked.Step(1); err != nil {
			return nil, err
		}
		cp := proj.ToENU(cu.TruePosition())
		ap := proj.ToENU(au.TruePosition())
		// Believed position = truth + spoof offset, computed without
		// touching the victim's GPS noise stream (which would desync
		// the paired clean run).
		bp := ap.Add(au.GPS.SpoofOffset())
		res.Track = append(res.Track, Fig6Point{
			Time:      ts,
			CleanEast: cp.East, CleanNorth: cp.North,
			SpoofEast: ap.East, SpoofNorth: ap.North,
			BelievedEast: bp.East, BelievedN: bp.North,
		})
		dev := geo.Haversine(cu.TruePosition(), au.TruePosition())
		if dev > res.MaxDeviationM {
			res.MaxDeviationM = dev
		}
		if ts >= res.SpoofStartS {
			sumDev += dev
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("experiments: no post-attack samples")
	}
	res.MeanDeviationM = sumDev / float64(n)
	return res, nil
}

// Print writes the Fig. 6 trajectory table and detection summary.
func (r *Fig6Result) Print(w io.Writer) {
	printf(w, "== Fig. 6: UAV area mapping with and without spoofing attack ==\n")
	printf(w, "spoof starts t=%.0f s, drift 2.5 m/s\n\n", r.SpoofStartS)
	printf(w, "%6s  %18s  %18s  %18s\n", "t(s)", "clean (E,N) m", "attacked true (E,N)", "attacked believed")
	for i, pt := range r.Track {
		if i%20 != 0 {
			continue
		}
		printf(w, "%6.0f  (%7.1f,%7.1f)  (%7.1f,%7.1f)  (%7.1f,%7.1f)\n",
			pt.Time, pt.CleanEast, pt.CleanNorth, pt.SpoofEast, pt.SpoofNorth, pt.BelievedEast, pt.BelievedN)
	}
	printf(w, "\nmax trajectory deviation:  %.1f m\n", r.MaxDeviationM)
	printf(w, "mean deviation (post-attack): %.1f m\n", r.MeanDeviationM)
	if r.DetectionS >= 0 {
		printf(w, "Security EDDI detection:   t=%.0f s (%.0f s after attack start; paper: \"detected immediately\")\n",
			r.DetectionS, r.DetectionS-r.SpoofStartS)
		printf(w, "attack path: %v\n", r.AttackPath)
	} else {
		printf(w, "Security EDDI detection:   NOT DETECTED\n")
	}
}
