package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sesame/internal/missionhost"
	"sesame/internal/platform"
	"sesame/internal/scenario"
)

// hosted runs a missionhost.Host holding more missions than MaxLive:
// classic missions and generated archetype missions, finished ones
// replaced by Delete+Create so the population keeps its size. The unit
// is one round of a fixed call mix — a Round, batches of watcher
// Status reads spread across missions at the rate the repo measured
// beside ticking, a Park of one live mission and a Resume of one parked
// mission — in an order the seed sets. It is
// the only workload that runs missionhost, flightrec checkpoints,
// linksim, scenario builds and park/rehydrate, and it puts the read
// path beside the write path.
type hosted struct {
	h        *missionhost.Host
	root     string // park directory of h
	parkBase string // holds every park directory of the run
	specRNG  *rand.Rand
	ids      []string
	initial  []missionhost.Spec
	specs    map[string]missionhost.Spec
	// parkedAs records the park modes each current mission went
	// through; a finished mission joins the digest sample by them.
	parkedAs map[string]map[string]bool
	samples  []hostedSample
	// Window measurements (the warm-up's are discarded).
	inWindow      bool
	stats0        missionhost.Stats
	rounds        int
	roundS        []float64
	readS         []float64 // per watcher read, its batch's mean
	parkS         map[string][]float64
	resumeS       map[string][]float64
	resumeAll     []float64
	replayTicks   uint64
	ckptBytes     []float64
	sampleClasses map[string]int
}

const (
	hostedMissions   = 24
	hostedMaxLive    = 8
	hostedTickBudget = 5
	hostedSetupReps  = 11
	// hostedWarmupRounds lets every mission tick, park and resume
	// before timing starts.
	hostedWarmupRounds = 60
	// hostedReadsPerMissionTick is the watcher traffic the repo measured
	// beside a ticking host: the full missionhost load phase of
	// sesame-experiments served 11,328,449 Status reads over 10,944
	// mission ticks. A round reads that many times per mission tick it
	// can run (MaxLive missions, TickBudget ticks each).
	hostedReadsPerMissionTick = 1035
	hostedReadBatch           = 128 // reads timed together, so the clock is not what is measured
	hostedReadBatches         = (hostedReadsPerMissionTick*hostedMaxLive*hostedTickBudget + hostedReadBatch - 1) / hostedReadBatch
	// hostedSamplePerClass finished missions per park history
	// (checkpoint, replay, never parked) join the digest check.
	hostedSamplePerClass = 2
	hostedFinishRounds   = 2000
	// hostedMinParkTicks is how far a mission has flown before the
	// benchmark parks it: one round's budget. A generated-scenario mission
	// checkpointed before it has flown resumes into a different flight
	// than its standalone run (a known missionhost/platform defect;
	// TestParkBeforeFirstTick in this package reproduces it), so no
	// workload operation parks one that early.
	hostedMinParkTicks = hostedTickBudget
)

// hostedKinds are the population's mission kinds, classic ("") and
// generated archetypes, by slot; a replacement keeps its slot's kind,
// so the mix is the same on every seed and throughout the run.
var hostedKinds = []string{"", scenario.UrbanCanyon, scenario.MaritimeSAR, "", scenario.UrbanCanyon, scenario.MultiSite}

// hostedSample is a finished mission whose hosted digest must equal
// its spec flown standalone.
type hostedSample struct {
	spec   missionhost.Spec
	digest string
	class  string
}

func hostedWorkers() map[string]int {
	return map[string]int{"host_workers": hostWorkers(), "platform_workers": 1, "max_live": hostedMaxLive}
}

// hostWorkers caps the host's tick pool at nproc.
func hostWorkers() int {
	if n := runtime.NumCPU(); n < 8 {
		return n
	}
	return 8
}

// newSpec draws a fresh seed for the mission in slot id with the
// given kind.
func (w *hosted) newSpec(id, kind string) missionhost.Spec {
	return missionhost.Spec{ID: id, Seed: 1 + w.specRNG.Int63n(1<<31), Archetype: kind}
}

func (w *hosted) setup(ps *pass) error {
	if err := os.MkdirAll(ps.opts.out, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(ps.opts.out, "park-")
	if err != nil {
		return err
	}
	w.parkBase = base
	w.specRNG = rand.New(rand.NewSource(ps.opts.seed ^ 0x5eed))
	for i := 0; i < hostedMissions; i++ {
		id := fmt.Sprintf("m%02d", i)
		w.ids = append(w.ids, id)
		w.initial = append(w.initial, w.newSpec(id, hostedKinds[i%len(hostedKinds)]))
	}
	reps := make([]float64, 0, hostedSetupReps)
	for rep := 0; rep < hostedSetupReps; rep++ {
		w.closeHost()
		root, err := os.MkdirTemp(w.parkBase, "host-")
		if err != nil {
			return err
		}
		runtime.GC() // every build starts from a collected heap, as a fresh process would
		t0 := time.Now()
		h, err := missionhost.New(missionhost.Config{
			Workers: hostWorkers(), MaxLive: hostedMaxLive, TickBudget: hostedTickBudget,
			ParkDir: root, Observability: ps.reg,
		})
		if err != nil {
			return err
		}
		w.h, w.root = h, root
		w.parkedAs = map[string]map[string]bool{}
		for _, spec := range w.initial {
			w.parkedAs[spec.ID] = map[string]bool{}
			if err := w.makeRoom(ps); err != nil {
				return err
			}
			if err := w.create(ps, spec); err != nil {
				return err
			}
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	ps.setupS = quantile(reps, 0.5)
	w.specs = map[string]missionhost.Spec{}
	for _, spec := range w.initial {
		w.specs[spec.ID] = spec
	}
	w.parkS = map[string][]float64{}
	w.resumeS = map[string][]float64{}
	w.sampleClasses = map[string]int{}
	return nil
}

// call times one host call as a stopwatch segment inside a span and
// returns its duration in seconds.
func call(ps *pass, name string, fn func() error) (float64, error) {
	ps.sw.start()
	sp := ps.tr.begin(name)
	err := fn()
	ps.tr.end(sp)
	d := ps.sw.stop()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d.Seconds(), nil
}

func (w *hosted) create(ps *pass, spec missionhost.Spec) error {
	_, err := call(ps, "missionhost.Create", func() error {
		_, err := w.h.Create(spec)
		return err
	})
	return err
}

func (w *hosted) warmup(ps *pass) error {
	for i := 0; i < hostedWarmupRounds; i++ {
		if err := w.round(ps); err != nil {
			return err
		}
	}
	ps.sw.takeLap()
	w.inWindow = true
	w.stats0 = w.h.Stats()
	return nil
}

func (w *hosted) unit(ps *pass) (float64, error) {
	ticks0 := w.h.Stats().Ticks
	if err := w.round(ps); err != nil {
		return 0, err
	}
	w.rounds++
	return float64(w.h.Stats().Ticks - ticks0), nil
}

// round is one unit of the call mix.
func (w *hosted) round(ps *pass) error {
	var infos []missionhost.Info
	if _, err := call(ps, "missionhost.List", func() error {
		infos = w.h.List()
		return nil
	}); err != nil {
		return err
	}
	for _, in := range infos {
		if in.Done {
			if err := w.replace(ps, in); err != nil {
				return err
			}
		}
	}
	steps := []func() error{
		func() error {
			d, err := call(ps, "missionhost.Round", func() error { w.h.Round(); return nil })
			if w.inWindow {
				w.roundS = append(w.roundS, d)
			}
			return err
		},
		func() error { return w.reads(ps) },
		func() error { return w.churn(ps) },
	}
	ps.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// reads issues hostedReadBatches batches of watcher Status reads on
// seeded missions; each read's latency is its batch's mean.
func (w *hosted) reads(ps *pass) error {
	batch := make([]string, hostedReadBatch)
	for b := 0; b < hostedReadBatches; b++ {
		for i := range batch {
			batch[i] = w.ids[ps.rng.Intn(len(w.ids))]
		}
		d, err := call(ps, "missionhost.Status", func() error {
			for _, id := range batch {
				if _, err := w.h.Status(id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if w.inWindow {
			w.readS = append(w.readS, d/hostedReadBatch)
		}
	}
	return nil
}

// churn parks one parkable live mission and resumes one that was
// parked before it, both chosen by the seed from the missions' states
// at this point of the round (read untimed): a mission that makeRoom
// parked or this round's Round finished is not parked again.
func (w *hosted) churn(ps *pass) error {
	infos := w.h.List()
	var parked []string
	for _, in := range infos {
		if in.State == "parked" {
			parked = append(parked, in.ID)
		}
	}
	var resumeID string
	if len(parked) > 0 {
		resumeID = parked[ps.rng.Intn(len(parked))]
	}
	if live := parkable(infos); len(live) > 0 {
		if err := w.park(ps, live[ps.rng.Intn(len(live))]); err != nil {
			return err
		}
	}
	if resumeID == "" {
		return nil
	}
	if err := w.makeRoom(ps); err != nil {
		return err
	}
	meta, err := w.meta(resumeID)
	if err != nil {
		return err
	}
	w.parkedAs[resumeID][meta.Mode] = true
	d, err := call(ps, "missionhost.Resume", func() error { return w.h.Resume(resumeID) })
	if err != nil {
		return err
	}
	if w.inWindow {
		w.resumeS[meta.Mode] = append(w.resumeS[meta.Mode], d)
		w.resumeAll = append(w.resumeAll, d)
		w.replayTicks += meta.ReplayTicks
	}
	return nil
}

// park parks one mission and records how it was parked.
func (w *hosted) park(ps *pass, id string) error {
	d, err := call(ps, "missionhost.Park", func() error { return w.h.Park(id) })
	if err != nil {
		return err
	}
	meta, err := w.meta(id)
	if err != nil {
		return err
	}
	w.parkedAs[id][meta.Mode] = true
	if !w.inWindow {
		return nil
	}
	w.parkS[meta.Mode] = append(w.parkS[meta.Mode], d)
	if meta.Mode == "checkpoint" {
		n, err := dirBytes(filepath.Join(w.root, id, "box"))
		if err != nil {
			return err
		}
		w.ckptBytes = append(w.ckptBytes, float64(n))
	}
	return nil
}

// makeRoom parks a seeded parkable mission when the host is at
// MaxLive, so that the next Create or Resume does not evict one itself:
// the host breaks ties between equally recent missions in map order,
// which would make two runs at one seed differ, and it may evict a
// mission that has not flown yet. When every running mission is too
// young to park, one Round makes them old enough. When none is running
// (every live mission has finished), the host evicts a finished one.
func (w *hosted) makeRoom(ps *pass) error {
	if w.h.Stats().Live < hostedMaxLive {
		return nil
	}
	for rounds := 0; ; rounds++ {
		infos := w.h.List()
		if live := parkable(infos); len(live) > 0 {
			return w.park(ps, live[ps.rng.Intn(len(live))])
		}
		running := 0
		for _, in := range infos {
			if in.State == "running" {
				running++
			}
		}
		if running == 0 {
			return nil
		}
		if rounds == 2 {
			return fmt.Errorf("%d running missions, none at tick %d after %d rounds", running, hostedMinParkTicks, rounds)
		}
		if _, err := call(ps, "missionhost.Round", func() error { w.h.Round(); return nil }); err != nil {
			return err
		}
	}
}

// parkable lists the running missions that have flown at least
// hostedMinParkTicks ticks, in List's id order.
func parkable(infos []missionhost.Info) []string {
	var ids []string
	for _, in := range infos {
		if in.State == "running" && in.Tick >= hostedMinParkTicks {
			ids = append(ids, in.ID)
		}
	}
	return ids
}

// parkMeta is the part of a park directory's meta.json the benchmark
// reads: how the mission was parked.
type parkMeta struct {
	Mode        string `json:"mode"`
	ReplayTicks uint64 `json:"replay_ticks"`
}

func (w *hosted) meta(id string) (parkMeta, error) {
	var m parkMeta
	data, err := os.ReadFile(filepath.Join(w.root, id, "meta.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s meta.json: %w", id, err)
	}
	return m, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// replace swaps a finished mission for a fresh spec under the same id,
// first recording its digest if it fills a gap in the check sample.
func (w *hosted) replace(ps *pass, in missionhost.Info) error {
	if in.Error != "" {
		ps.fail(fmt.Errorf("mission %s (seed %d) failed: %s", in.ID, in.Seed, in.Error))
	} else if err := w.sample(in.ID); err != nil {
		return err
	}
	if _, err := call(ps, "missionhost.Delete", func() error { return w.h.Delete(in.ID) }); err != nil {
		return err
	}
	spec := w.newSpec(in.ID, w.specs[in.ID].Archetype)
	w.specs[in.ID] = spec
	w.parkedAs[in.ID] = map[string]bool{}
	if err := w.makeRoom(ps); err != nil {
		return err
	}
	return w.create(ps, spec)
}

// sampleClass names a mission's park history for the digest sample.
func (w *hosted) sampleClass(id string) string {
	switch modes := w.parkedAs[id]; {
	case modes["replay"]:
		return "replay"
	case modes["checkpoint"]:
		return "checkpoint"
	case len(modes) == 0:
		return "never"
	}
	return ""
}

// sample records a finished mission's hosted digest when its class
// still needs samples. It runs outside the stopwatch.
func (w *hosted) sample(id string) error {
	class := w.sampleClass(id)
	if class == "" || w.sampleClasses[class] >= hostedSamplePerClass {
		return nil
	}
	digest, err := w.h.Digest(id)
	if err != nil {
		return fmt.Errorf("digest %s: %w", id, err)
	}
	w.sampleClasses[class]++
	w.samples = append(w.samples, hostedSample{spec: w.specs[id], digest: digest, class: class})
	return nil
}

// check completes the digest sample — finishing, untimed, one mission
// per missing class — and requires every sampled hosted digest to
// equal missionhost.FlyStandalone of its spec.
func (w *hosted) check(ps *pass) []error {
	var errs []error
	for _, class := range []string{"checkpoint", "replay", "never"} {
		if w.sampleClasses[class] > 0 {
			continue
		}
		if err := w.finishOne(ps, class); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range w.samples {
		ps.digests = append(ps.digests, s.digest)
		want, err := missionhost.FlyStandalone(s.spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("standalone %s (seed %d): %w", s.spec.ID, s.spec.Seed, err))
		} else if want != s.digest {
			errs = append(errs, fmt.Errorf("mission %s (%s, seed %d, parked as %s): hosted digest %s != standalone %s",
				s.spec.ID, s.spec.Kind(), s.spec.Seed, s.class, s.digest, want))
		}
	}
	return errs
}

// finishOne drives a mission of the given park class to completion
// with plain Rounds and samples it.
func (w *hosted) finishOne(ps *pass, class string) error {
	for _, id := range w.ids {
		if w.sampleClass(id) != class {
			continue
		}
		if in, err := w.h.Info(id); err != nil {
			return err
		} else if in.State == "parked" {
			if err := w.makeRoom(ps); err != nil {
				return err
			}
			if err := w.h.Resume(id); err != nil {
				return err
			}
		}
		for i := 0; i < hostedFinishRounds; i++ {
			if in, err := w.h.Info(id); err != nil || in.Done {
				if err == nil {
					err = w.sample(id)
				}
				return err
			}
			w.h.Round()
		}
		return fmt.Errorf("mission %s did not finish in %d rounds", id, hostedFinishRounds)
	}
	return fmt.Errorf("no mission with park history %q to sample", class)
}

// layers reports the host's per-layer metrics over the window, plus
// the link layer's delivery ratio and the scenario build time, both
// measured by launching the initial population's archetype specs
// through platform.LaunchScenario and flying them to their horizon.
func (w *hosted) layers(ps *pass, out map[string]float64) {
	p50 := func(xs []float64) float64 { return 1e3 * quantile(xs, 0.5) }
	out["missionhost.round_ms_p50"] = p50(w.roundS)
	st := w.h.Stats()
	if w.rounds > 0 {
		out["missionhost.ticks_per_round"] = float64(st.Ticks-w.stats0.Ticks) / float64(w.rounds)
	}
	out["missionhost.read_us_p50"] = 1e6 * quantile(w.readS, 0.5)
	out["missionhost.read_us_p99"] = 1e6 * quantile(w.readS, 0.99)
	out["missionhost.park_ms_p50.checkpoint"] = p50(w.parkS["checkpoint"])
	out["missionhost.park_ms_p50.replay"] = p50(w.parkS["replay"])
	out["missionhost.resume_ms_p50"] = p50(w.resumeAll)
	out["missionhost.resume_ms_p90"] = 1e3 * quantile(w.resumeAll, 0.9)
	out["missionhost.resume_ms_p50.checkpoint"] = p50(w.resumeS["checkpoint"])
	out["missionhost.resume_ms_p50.replay"] = p50(w.resumeS["replay"])
	if replay := len(w.parkS["replay"]); replay+len(w.parkS["checkpoint"]) > 0 {
		out["missionhost.replay_park_ratio"] = float64(replay) / float64(replay+len(w.parkS["checkpoint"]))
	}
	if n := len(w.resumeAll); n > 0 {
		out["missionhost.replay_ticks_per_resume"] = float64(w.replayTicks) / float64(n)
	}
	hits, misses := st.CacheHits-w.stats0.CacheHits, st.CacheMisses-w.stats0.CacheMisses
	if hits+misses > 0 {
		out["missionhost.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["missionhost.create_ms_p50"] = p50(ps.tr.durations("missionhost.Create", false))
	out["flightrec.checkpoint_bytes_p50"] = quantile(w.ckptBytes, 0.5)

	var offered, delivered uint64
	for _, spec := range w.initial {
		if spec.Archetype == "" {
			continue
		}
		o, d, err := flyScenario(ps, spec)
		if err != nil {
			ps.fail(fmt.Errorf("link probe %s (seed %d): %w", spec.Archetype, spec.Seed, err))
			continue
		}
		offered += o
		delivered += d
	}
	if offered > 0 {
		out["linksim.delivered_ratio"] = float64(delivered) / float64(offered)
	}
	out["platform.build_ms_per_mission"] = p50(ps.tr.durations(spanBuild, false))
}

// flyScenario launches an archetype spec as the host builds it and
// flies it to its horizon, returning its link layer's frame totals.
func flyScenario(ps *pass, spec missionhost.Spec) (offered, delivered uint64, err error) {
	sc, err := scenario.Generate(spec.Seed, spec.Archetype)
	if err != nil {
		return 0, 0, err
	}
	cfg := platform.DefaultConfig()
	cfg.Workers = 1
	sp := ps.tr.begin(spanBuild)
	run, err := platform.LaunchScenario(sc, cfg)
	ps.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	defer run.Platform.Close()
	end := run.World.Clock.Now() + sc.HorizonS
	for run.World.Clock.Now() < end && !run.Platform.MissionComplete() {
		if err := run.Platform.Tick(); err != nil {
			return 0, 0, err
		}
	}
	if run.Links == nil {
		return 0, 0, nil
	}
	for _, s := range run.Links.Stats() {
		offered += s.Offered
		delivered += s.Delivered
	}
	return offered, delivered, nil
}

func (w *hosted) closeHost() {
	if w.h != nil {
		w.h.Close()
		w.h = nil
		_ = os.RemoveAll(w.root) // the next host gets a fresh directory
	}
}

func (w *hosted) close() {
	w.closeHost()
	if w.parkBase != "" {
		_ = os.RemoveAll(w.parkBase)
	}
}
