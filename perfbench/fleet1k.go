package main

import (
	"fmt"
	"runtime"
	"time"

	"sesame/internal/missionhost"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// fleet1k ticks one 1000-UAV classic mission on the sharded pipeline
// (automatic cells, Workers = nproc). The unit is one tick. Per-UAV
// costs dominate here — physics, bus and IDS in step, SafeDrones in
// observe, apply — together with allocation and GC pressure.
type fleet1k struct {
	p *platform.Platform
	// warmDigest is the mission digest after fleetCheckTicks warm-up
	// ticks, which check reproduces under another cell/worker layout.
	warmDigest string
}

// fleetMission is 1000 UAVs on a 20 km square: large enough that the
// fleet is still sweeping, not holding, when the window closes.
var fleetMission = classic{n: 1000, idFormat: "u%04d", side: 20000, persons: 100}

const (
	fleetSetupReps = 7
	// fleetWarmupTicks covers the climb-out, after which the per-tick
	// cost is steady.
	fleetWarmupTicks = 100
	fleetCheckTicks  = 30
	// fleetCheckCells is the layout check re-flies the warm-up with
	// (any count >= 2 must give the same digest), on one worker.
	fleetCheckCells = 7
)

func fleet1kWorkers() map[string]int {
	return map[string]int{"platform_workers": runtime.NumCPU(), "cells": platform.AutoCells(fleetMission.n)}
}

func (f *fleet1k) setup(ps *pass) error {
	ps.fleetSize = float64(fleetMission.n)
	reps := make([]float64, 0, fleetSetupReps)
	for rep := 0; rep < fleetSetupReps; rep++ {
		f.close()
		runtime.GC() // every build starts from a collected heap, as a fresh process would
		t0 := time.Now()
		_, p, err := fleetMission.build(ps.tr, ps.opts.seed, runtime.NumCPU(), 0, ps.reg)
		if err != nil {
			return err
		}
		reps = append(reps, time.Since(t0).Seconds())
		f.p = p
	}
	ps.setupS = quantile(reps, 0.5)
	return nil
}

func (f *fleet1k) warmup(ps *pass) error {
	for i := 0; i < fleetWarmupTicks; i++ {
		sp := ps.tr.begin(spanTick)
		err := f.p.Tick()
		ps.tr.end(sp)
		if err != nil {
			return err
		}
		if i+1 == fleetCheckTicks && !ps.traced {
			f.warmDigest = missionhost.MissionDigest(f.p)
		}
	}
	return nil
}

func (f *fleet1k) unit(ps *pass) (float64, error) {
	ps.sw.start()
	sp := ps.tr.begin(spanTick)
	err := f.p.Tick()
	ps.tr.end(sp)
	ps.sw.stop()
	if err != nil {
		return 0, err
	}
	ps.uavTicks += float64(fleetMission.n)
	return 1, nil
}

// check requires a healthy fleet — nothing crashed or lost, no drops,
// no IDS alerts — and, on the untraced pass, that the first
// fleetCheckTicks ticks re-flown under another cell/worker layout
// reproduce their digest (the sharded contract).
func (f *fleet1k) check(ps *pass) []error {
	var errs []error
	s := f.p.Status()
	for _, u := range s.UAVs {
		if u.Mode == "crashed" || u.LinkLost {
			errs = append(errs, fmt.Errorf("%s: mode %s, link lost %v", u.ID, u.Mode, u.LinkLost))
		}
	}
	if s.Drops != (platform.DropCounters{}) || s.WorldDrops != (uavsim.DropCounters{}) {
		errs = append(errs, fmt.Errorf("drops %+v, world drops %+v, want zero", s.Drops, s.WorldDrops))
	}
	if n := len(f.p.IDS.Alerts()); n > 0 {
		errs = append(errs, fmt.Errorf("%d IDS alerts on a clean fleet", n))
	}
	if ps.traced {
		return errs
	}
	ps.digests = append(ps.digests, f.warmDigest)
	_, p, err := fleetMission.build(nil, ps.opts.seed, 1, fleetCheckCells, nil)
	if err != nil {
		return append(errs, fmt.Errorf("re-flight build: %w", err))
	}
	defer p.Close()
	for i := 0; i < fleetCheckTicks && err == nil; i++ {
		err = p.Tick()
	}
	if err != nil {
		return append(errs, fmt.Errorf("re-flight: %w", err))
	}
	if got := missionhost.MissionDigest(p); got != f.warmDigest {
		errs = append(errs, fmt.Errorf("first %d ticks re-flown with %d cells on 1 worker: digest %s != %s", fleetCheckTicks, fleetCheckCells, got, f.warmDigest))
	}
	return errs
}

func (f *fleet1k) layers(*pass, map[string]float64) {}

func (f *fleet1k) close() {
	if f.p != nil {
		f.p.Close()
		f.p = nil
	}
}
