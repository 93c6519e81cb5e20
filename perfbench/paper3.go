package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/missionhost"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// paper3 flies the paper's §V mission to completion, over and over:
// three UAVs over the 400 m survey square with ten persons, u1's
// battery collapsing 120 s in (§V-A) and u2 GPS-spoofed 100 s in
// (§V-C), default platform configuration (SESAME on, Workers=0). The
// unit is one mission. It exercises the EDDI monitor chain and the
// small-fleet single-cell tick path, and nothing of missionhost, the
// cell scheduler or flightrec.
type paper3 struct {
	queue  []*mission3 // built in set-up, not yet flown
	flown  int
	sample map[int]bool // mission indexes re-flown serially in check
	pooled []flownMission
}

// flownMission is a sampled mission's seed and its pooled-run digest.
type flownMission struct {
	index  int
	seed   int64
	digest string
}

const (
	paper3HorizonS = 900 // a cap; missions complete after ~330 sim-s
	// Set-up builds the first paper3Batch missions paper3SetupReps
	// times and reports the median batch time; the last batch is
	// flown.
	paper3Batch     = 32
	paper3SetupReps = 21
	paper3Sampled   = 2 // missions whose digest is re-flown serially
	// paper3HeapAtS is how far into mission heapUnit heap_mb is read:
	// after both faults have fired, before the mission completes.
	paper3HeapAtS = 200
)

// mission3 is one built paper3 mission.
type mission3 struct {
	seed  int64
	world *uavsim.World
	p     *platform.Platform
	end   float64
}

// classicHome anchors the classic missions, as cmd/sesame-mission does.
var classicHome = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

func paper3Workers() map[string]int {
	return map[string]int{"platform_workers": runtime.GOMAXPROCS(0)}
}

// classic describes a classic mission: n UAVs with IDs from idFormat
// sweeping a square of side metres north-east of home, with persons
// in the scene.
type classic struct {
	n        int
	idFormat string
	side     float64
	persons  int
}

// build constructs the mission, started and ready to tick, inside a
// build span.
func (c classic) build(tr *tracer, seed int64, workers, cells int, reg *obsv.Registry) (*uavsim.World, *platform.Platform, error) {
	sp := tr.begin(spanBuild)
	defer tr.end(sp)
	w := uavsim.NewWorld(classicHome, seed)
	for i := 1; i <= c.n; i++ {
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: fmt.Sprintf(c.idFormat, i), Home: classicHome, CruiseSpeedMS: 12}); err != nil {
			return nil, nil, err
		}
	}
	a := geo.Destination(classicHome, 45, 80)
	b := geo.Destination(a, 90, c.side)
	area := geo.Polygon{a, b, geo.Destination(b, 0, c.side), geo.Destination(a, 0, c.side)}
	scene, err := detection.NewRandomScene(area, c.persons, 0.2, w.Clock.Stream("scene"))
	if err != nil {
		return nil, nil, err
	}
	cfg := platform.DefaultConfig()
	cfg.Workers = workers
	cfg.Cells = cells
	cfg.Observability = reg
	p, err := platform.New(w, scene, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := p.StartMission(area); err != nil {
		p.Close()
		return nil, nil, err
	}
	return w, p, nil
}

// missionSeed derives mission i's world seed from the workload seed
// (splitmix64), so every mission differs and every run repeats.
func missionSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// paper3Mission is the §V mission: the classic 400 m square flown by
// u1..u3 over ten persons.
var paper3Mission = classic{n: 3, idFormat: "u%d", side: 400, persons: 10}

func buildPaper3(tr *tracer, seed int64, workers int, reg *obsv.Registry) (*mission3, error) {
	w, p, err := paper3Mission.build(tr, seed, workers, 0, reg)
	if err != nil {
		return nil, err
	}
	now := w.Clock.Now()
	for _, f := range []uavsim.Fault{
		uavsim.BatteryCollapseFault(now+120, "u1", 70, 40),
		uavsim.GPSSpoofFault(now+100, "u2", 135, 3),
	} {
		if err := w.ScheduleFault(f); err != nil {
			p.Close()
			return nil, err
		}
	}
	return &mission3{seed: seed, world: w, p: p, end: now + paper3HorizonS}, nil
}

func (w *paper3) setup(ps *pass) error {
	ps.fleetSize = float64(paper3Mission.n)
	reps := make([]float64, 0, paper3SetupReps)
	for rep := 0; rep < paper3SetupReps; rep++ {
		w.closeQueue()
		runtime.GC() // every build starts from a collected heap, as a fresh process would
		t0 := time.Now()
		for i := 0; i < paper3Batch; i++ {
			m, err := buildPaper3(ps.tr, missionSeed(ps.opts.seed, i), 0, ps.reg)
			if err != nil {
				return err
			}
			w.queue = append(w.queue, m)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	ps.setupS = quantile(reps, 0.5)
	// The sampled missions come from the first minUnits (or maxUnits),
	// which every window flies.
	limit := minUnits
	if ps.opts.maxUnits > 0 && ps.opts.maxUnits < limit {
		limit = ps.opts.maxUnits
	}
	w.sample = map[int]bool{}
	for len(w.sample) < paper3Sampled && len(w.sample) < limit {
		w.sample[ps.rng.Intn(limit)] = true
	}
	return nil
}

func (w *paper3) warmup(*pass) error { return nil }

func (w *paper3) unit(ps *pass) (float64, error) {
	i := w.flown
	w.flown++
	var m *mission3
	if len(w.queue) > 0 {
		m, w.queue = w.queue[0], w.queue[1:]
	} else {
		var err error
		if m, err = buildPaper3(ps.tr, missionSeed(ps.opts.seed, i), 0, ps.reg); err != nil {
			return 0, err
		}
	}
	defer m.p.Close()
	start := m.world.Clock.Now()
	heapAt := -1.0
	if i == heapUnit {
		heapAt = start + paper3HeapAtS
	}
	ticks, err := flyPaper3(m, ps, true, heapAt)
	if err != nil {
		return 0, err
	}
	ps.uavTicks += float64(ticks * paper3Mission.n)
	if err := paper3Facts(m.p.Status()); err != nil {
		ps.fail(fmt.Errorf("mission %d (seed %d): %w", i, m.seed, err))
	}
	if w.sample[i] && !ps.traced {
		w.pooled = append(w.pooled, flownMission{i, m.seed, missionhost.MissionDigest(m.p)})
	}
	return m.world.Clock.Now() - start, nil
}

// flyPaper3 ticks m to completion or its horizon; when timed, as one
// stopwatch segment. With heapAt >= 0 it pauses the stopwatch once the
// sim clock reaches heapAt and reads the heap, m in flight.
func flyPaper3(m *mission3, ps *pass, timed bool, heapAt float64) (int, error) {
	if timed {
		ps.sw.start()
		defer ps.sw.stop()
	}
	ticks := 0
	for m.world.Clock.Now() < m.end {
		if heapAt >= 0 && m.world.Clock.Now() >= heapAt {
			ps.sw.stop()
			ps.readHeap()
			ps.sw.start()
			heapAt = -1
		}
		sp := ps.tr.begin(spanTick)
		err := m.p.Tick()
		ps.tr.end(sp)
		if err != nil {
			return ticks, err
		}
		ticks++
		if m.p.MissionComplete() {
			break
		}
	}
	return ticks, nil
}

// paper3Facts are the §V outcomes every seed of the mission must reach.
func paper3Facts(s platform.Status) error {
	var errs []error
	byID := map[string]platform.UAVStatus{}
	for _, u := range s.UAVs {
		byID[u.ID] = u
	}
	if u := byID["u1"]; u.Mode != "landed" || u.Reliability != "low" {
		errs = append(errs, fmt.Errorf("u1 %s at %s reliability, want landed at low", u.Mode, u.Reliability))
	}
	if u := byID["u2"]; !u.Compromised || !u.CollocLand || u.Mode != "landed" {
		errs = append(errs, fmt.Errorf("u2 compromised=%v collaborative-landing=%v mode=%s, want compromised and landed by collaborative landing",
			u.Compromised, u.CollocLand, u.Mode))
	}
	if s.Decision != "task-redistribution-needed" {
		errs = append(errs, fmt.Errorf("decision %q, want task-redistribution-needed", s.Decision))
	}
	if s.Drops != (platform.DropCounters{}) {
		errs = append(errs, fmt.Errorf("data_path_drops %+v, want all zero", s.Drops))
	}
	return errors.Join(errs...)
}

// check re-flies each sampled mission with Workers=1 and requires the
// pooled run's digest (serial == pooled). The traced pass samples
// nothing: its missions carry the shared registry's counters in their
// Status, so their digests are not comparable.
func (w *paper3) check(ps *pass) []error {
	if !ps.traced && len(w.pooled) != len(w.sample) {
		return []error{fmt.Errorf("%d of %d sampled missions flown", len(w.pooled), len(w.sample))}
	}
	var errs []error
	for _, f := range w.pooled {
		ps.digests = append(ps.digests, f.digest)
		m, err := buildPaper3(nil, f.seed, 1, nil)
		if err == nil {
			_, err = flyPaper3(m, ps, false, -1)
			if serial := missionhost.MissionDigest(m.p); err == nil && serial != f.digest {
				err = fmt.Errorf("serial digest %s != pooled %s", serial, f.digest)
			}
			m.p.Close()
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("mission %d (seed %d) re-flown serially: %w", f.index, f.seed, err))
		}
	}
	return errs
}

func (w *paper3) layers(*pass, map[string]float64) {}

func (w *paper3) closeQueue() {
	for _, m := range w.queue {
		m.p.Close()
	}
	w.queue = w.queue[:0]
}

func (w *paper3) close() { w.closeQueue() }
