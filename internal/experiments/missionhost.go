package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sesame/internal/campaign"
	"sesame/internal/missionhost"
)

// MissionHostResult is the multi-tenant mission host demonstration:
// the determinism gate (a hosted mission — including one evicted to
// disk and rehydrated mid-flight — reproduces the standalone digest
// bit-identically) plus a load phase (a fleet of registered missions,
// most parked, hammered by concurrent watchers reading copy-on-write
// snapshots that never touch a tick lock).
type MissionHostResult struct {
	Seed int64

	// Determinism gate.
	DigestStandalone string
	DigestHosted     string
	DigestRehydrated string
	Match            bool

	// Load phase.
	FullScale    bool // SESAME_MISSIONHOST_FULL=1: the BENCH_PR10 shape
	Missions     int
	MaxLive      int
	LiveAtEnd    int
	ParkedAtEnd  int
	Watchers     int
	WindowS      float64
	Reads        uint64
	ReadsPerSec  float64
	ReadP50US    float64
	ReadP99US    float64
	Rounds       uint64
	Ticks        uint64
	Parks        uint64
	Rehydrations uint64
	CacheHitRate float64
}

// RunMissionHost runs both phases. The load phase defaults to a smoke
// shape (64 missions, a 1 s read window) so CI stays fast; set
// SESAME_MISSIONHOST_FULL=1 for the 1000-mission benchmark shape.
func RunMissionHost(seed int64) (*MissionHostResult, error) {
	res := &MissionHostResult{Seed: seed}
	if err := res.runDeterminism(seed); err != nil {
		return nil, err
	}
	if err := res.runLoad(seed); err != nil {
		return nil, err
	}
	return res, nil
}

// runDeterminism flies one Spec three ways — standalone, hosted
// uninterrupted, and hosted with a park/restart/rehydrate cycle — and
// compares digests.
func (r *MissionHostResult) runDeterminism(seed int64) error {
	spec := missionhost.Spec{ID: "gate", Seed: seed, UAVs: 3, Persons: 6, HorizonS: 200, TickBudget: 4}

	var err error
	if r.DigestStandalone, err = missionhost.FlyStandalone(spec); err != nil {
		return err
	}

	// Hosted, uninterrupted.
	h, err := missionhost.New(missionhost.Config{TickBudget: 1})
	if err != nil {
		return err
	}
	if err := flyHosted(h, spec); err != nil {
		h.Close()
		return err
	}
	if r.DigestHosted, err = h.Digest(spec.ID); err != nil {
		h.Close()
		return err
	}
	h.Close()

	// Hosted with a mid-flight park that spans a full host restart.
	dir, err := os.MkdirTemp("", "sesame-missionhost-exp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err = missionhost.New(missionhost.Config{TickBudget: 1, ParkDir: dir})
	if err != nil {
		return err
	}
	if _, err := h.Create(spec); err != nil {
		h.Close()
		return err
	}
	for i := 0; i < 3; i++ {
		h.Round()
	}
	if err := h.Shutdown(); err != nil {
		h.Close()
		return err
	}
	h, err = missionhost.New(missionhost.Config{TickBudget: 1, ParkDir: dir})
	if err != nil {
		return err
	}
	defer h.Close()
	if err := h.Resume(spec.ID); err != nil {
		return err
	}
	if err := driveToDone(h, spec.ID); err != nil {
		return err
	}
	if r.DigestRehydrated, err = h.Digest(spec.ID); err != nil {
		return err
	}
	r.Match = r.DigestHosted == r.DigestStandalone && r.DigestRehydrated == r.DigestStandalone
	return nil
}

func flyHosted(h *missionhost.Host, spec missionhost.Spec) error {
	if _, err := h.Create(spec); err != nil {
		return err
	}
	return driveToDone(h, spec.ID)
}

func driveToDone(h *missionhost.Host, id string) error {
	for i := 0; i < 5000; i++ {
		info, err := h.Info(id)
		if err != nil {
			return err
		}
		if info.Done {
			return nil
		}
		h.Round()
	}
	return fmt.Errorf("mission %s never finished", id)
}

// runLoad registers a fleet of missions against a much smaller live
// budget (so the majority is parked to disk), then drives rounds and
// concurrent watchers for a fixed window, timing every snapshot read.
func (r *MissionHostResult) runLoad(seed int64) error {
	r.Missions, r.MaxLive, r.Watchers, r.WindowS = 64, 16, 8, 1.0
	if os.Getenv("SESAME_MISSIONHOST_FULL") == "1" {
		r.FullScale = true
		r.Missions, r.MaxLive, r.Watchers, r.WindowS = 1000, 64, 64, 5.0
	}

	h, err := missionhost.New(missionhost.Config{
		MaxLive:     r.MaxLive,
		MaxMissions: r.Missions + 8,
		TickBudget:  1,
	})
	if err != nil {
		return err
	}
	defer h.Close()

	ids := make([]string, r.Missions)
	for i := range ids {
		ids[i] = fmt.Sprintf("load-%04d", i)
		spec := missionhost.Spec{ID: ids[i], Seed: seed + int64(i), UAVs: 2, Persons: 2, HorizonS: 600}
		if _, err := h.Create(spec); err != nil {
			return err
		}
	}

	// Rounds and watchers run concurrently: ticking must never block a
	// snapshot read.
	stop := make(chan struct{})
	var roundWG sync.WaitGroup
	roundWG.Add(1)
	go func() {
		defer roundWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Round()
			}
		}
	}()

	var reads atomic.Uint64
	lat := make([][]float64, r.Watchers)
	var watchWG sync.WaitGroup
	deadline := time.Now().Add(time.Duration(r.WindowS * float64(time.Second)))
	for wi := 0; wi < r.Watchers; wi++ {
		watchWG.Add(1)
		go func(wi int) {
			defer watchWG.Done()
			var n int
			for time.Now().Before(deadline) {
				id := ids[(wi+n)%len(ids)]
				t0 := time.Now()
				if _, err := h.Status(id); err != nil {
					return
				}
				// Sample every 16th read so the latency slices stay small
				// at full scale.
				if n%16 == 0 {
					lat[wi] = append(lat[wi], float64(time.Since(t0).Nanoseconds())/1000)
				}
				reads.Add(1)
				n++
				runtime.Gosched() // lock-free reads would starve Round on 2 CPUs
			}
		}(wi)
	}
	watchWG.Wait()
	close(stop)
	roundWG.Wait()

	r.Reads = reads.Load()
	r.ReadsPerSec = float64(r.Reads) / r.WindowS
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	r.ReadP50US = campaign.Percentile(all, 0.50)
	r.ReadP99US = campaign.Percentile(all, 0.99)

	stats := h.Stats()
	r.LiveAtEnd, r.ParkedAtEnd = stats.Live, stats.Parked
	r.Rounds, r.Ticks = stats.Rounds, stats.Ticks
	r.Parks, r.Rehydrations = stats.Parks, stats.Rehydrations
	if total := stats.CacheHits + stats.CacheMisses; total > 0 {
		r.CacheHitRate = float64(stats.CacheHits) / float64(total)
	}
	return nil
}

// Print writes the mission-host report.
func (r *MissionHostResult) Print(w io.Writer) {
	printf(w, "== Multi-tenant mission host (-exp missionhost) ==\n")
	printf(w, "Determinism gate (seed %d, classic 3-UAV spec, horizon 200 s):\n", r.Seed)
	printf(w, "  standalone digest:       %s\n", r.DigestStandalone[:16])
	printf(w, "  hosted digest:           %s\n", r.DigestHosted[:16])
	printf(w, "  park/restart/rehydrate:  %s\n", r.DigestRehydrated[:16])
	if r.Match {
		printf(w, "  Result: bit-identical hosting — PASS\n")
	} else {
		printf(w, "  Result: DIVERGED — FAIL\n")
	}
	shape := "smoke"
	if r.FullScale {
		shape = "full"
	}
	printf(w, "Load (%s shape): %d missions, %d live budget -> %d live / %d parked at end\n",
		shape, r.Missions, r.MaxLive, r.LiveAtEnd, r.ParkedAtEnd)
	printf(w, "  %d rounds drove %d ticks; %d parks, %d rehydrations\n",
		r.Rounds, r.Ticks, r.Parks, r.Rehydrations)
	printf(w, "  %d watchers, %.1f s window: %d snapshot reads (%.0f reads/s)\n",
		r.Watchers, r.WindowS, r.Reads, r.ReadsPerSec)
	printf(w, "  read latency p50 %.1f us, p99 %.1f us; stored-render hit rate %.1f%%\n",
		r.ReadP50US, r.ReadP99US, 100*r.CacheHitRate)
}
