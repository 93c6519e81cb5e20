package platform

// The fleet scheduler runs every tick through one pipeline over the
// cell layout (Config.Cells): contiguous shards of the sorted fleet
// order. Failures from every phase count into the platform's atomic
// drop and retry counters; the adds commute, so the totals never
// depend on goroutine scheduling.
//
//  1. step: the world's serial BeginStep (clock events, due faults, the
//     gust draw), physics per cell on the worker pool, then the serial
//     FinishStep telemetry publish in fleet order.
//  2. watchdog: the lost-link watchdog runs serially over the whole
//     fleet, since a contingency mutates shared mission state
//     (availability marks, task redistribution, the event log).
//  3. prepare+observe (per cell on the worker pool): each cell walks
//     its vehicles in fleet order, freezing one telemetry Snapshot
//     against the post-step world, staging the camera frame, then
//     running the vehicle's monitor chain over the snapshot. Chains only
//     touch their own UAV's state and read-only shared models (the
//     SINADRA network, the config), so any interleaving of cells yields
//     the same per-UAV results.
//  4. apply (serial, fleet order): emit the collected events, run
//     mission management (crash redistribution, collaborative-landing
//     steps, battery swaps) and execute flight actions, then the
//     mission-level decision. Everything that reads fleet-wide state
//     (ConSert neighbour evidence) or mutates shared state (mission
//     assignments, the event log) happens here, in stable p.order.
//
// The layout only schedules the work: a one-cell fleet runs every phase
// inline, without a goroutine, and more cells spread over the pool.
// Every vehicle captures from its own detector stream, so no vehicle's
// prepare or observe reads what another's wrote, and outputs are
// bit-identical for any cell count and any pool size.

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"sesame/internal/conserts"
	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/safedrones"
	"sesame/internal/uavsim"
)

// observation is one UAV's observe-phase output.
type observation struct {
	result eddi.ChainResult
	// failed marks a contained monitor-chain failure (panic or error);
	// the apply phase converts it into a fail-safe Hold and feeds the
	// per-UAV circuit breaker.
	failed bool
	// panicked distinguishes a panic from a plain error (attribution in
	// the incident event and the panic metric).
	panicked bool
	failMsg  string
	// quarantined marks a chain that was skipped because its breaker is
	// open (no failure this tick — the chain never ran).
	quarantined bool
}

// Tick advances the platform by one second through the step → prepare
// → observe → apply pipeline, then the mission-level decision. Phase
// timings enter histograms only (never Status), so digested outputs are
// the same with observability on or off. With a flight recorder
// configured, the completed tick is appended to the black box and a
// full checkpoint is written on cadence.
func (p *Platform) Tick() error {
	obs := p.obs
	var t time.Time
	if obs != nil {
		obs.tick.Add(1)
		obs.ticks.Inc()
		t = time.Now()
	}
	now, err := p.World.BeginStep(1)
	if err != nil {
		return err
	}
	p.now = now
	p.parallel(len(p.cells), (*Platform).stepCell)
	p.World.FinishStep(now)
	if obs != nil {
		obs.phaseStep.Observe(time.Since(t).Seconds())
		t = time.Now()
	}
	for _, id := range p.order {
		p.tickLinkWatchdog(p.states[id], now)
	}
	if obs != nil {
		obs.phasePrepare.Observe(time.Since(t).Seconds())
		t = time.Now()
	}
	p.parallel(len(p.cells), (*Platform).prepareObserveCell)
	if obs != nil {
		obs.phaseObserve.Observe(time.Since(t).Seconds())
		t = time.Now()
	}
	for i, id := range p.order {
		if err := p.apply(id, p.obsBuf[i], now); err != nil {
			return err
		}
	}
	p.updateDecision()
	if obs != nil {
		obs.phaseApply.Observe(time.Since(t).Seconds())
	}
	p.ticks++
	if p.cfg.Recorder != nil {
		return p.recordTick()
	}
	return nil
}

// stepCell advances one cell's vehicles through the open world step.
func (p *Platform) stepCell(ci int) {
	c := &p.cells[ci]
	p.World.StepRange(c.lo, c.hi, 1)
}

// prepareObserveCell prepares and observes one cell's vehicles in
// fleet order.
func (p *Platform) prepareObserveCell(ci int) {
	c := &p.cells[ci]
	for i := c.lo; i < c.hi; i++ {
		p.obsBuf[i] = p.observeUAV(p.prepare(i))
	}
}

// parallel runs fn(p, i) for every i in [0, n) on the worker pool and
// waits for all of them. Workers steal the next index one at a time.
// fn is a method expression, not a closure, and the pool's cursor and
// wait group live on the platform, so a call allocates nothing beyond
// its worker goroutines.
func (p *Platform) parallel(n int, fn func(*Platform, int)) {
	workers := min(p.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(p, i)
		}
		return
	}
	p.next.Store(-1)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work(n, fn)
	}
	p.wg.Wait()
}

// work is one pool worker of parallel.
func (p *Platform) work(n int, fn func(*Platform, int)) {
	defer p.wg.Done()
	for i := int(p.next.Add(1)); i < n; i = int(p.next.Add(1)) {
		fn(p, i)
	}
}

// RunMission ticks until every UAV has finished (landed/holding with
// empty path) or horizon seconds elapse.
func (p *Platform) RunMission(horizon float64) error {
	end := p.World.Clock.Now() + horizon
	for p.World.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return err
		}
		if p.missionComplete() {
			return nil
		}
	}
	return nil
}

// prepare freezes the telemetry snapshot of the UAV at fleet index i
// and stages its perception frame. Every field read is the vehicle's
// own state, the capture draws from the vehicle's detector stream
// (st.detRNG) and failures count into the platform's atomic counters,
// so cells may prepare concurrently.
func (p *Platform) prepare(i int) eddi.Snapshot {
	st := p.states[p.order[i]]
	u := st.uav
	now := p.now
	s := eddi.Snapshot{
		UAV:             u.ID(),
		Time:            now,
		Airborne:        u.Mode().Airborne(),
		InMissionFlight: u.Mode() == uavsim.ModeMission,
		AltitudeM:       u.AltitudeM(),
		ChargePct:       u.Battery.ChargePct,
		BatteryTempC:    u.Battery.TempC,
		Overheating:     u.Battery.Overheating(),
		FailedRotors:    u.FailedRotors(),
		CommsOK:         u.Comms.OK,
		Visibility:      p.cfg.Visibility,
		Derived:         &eddi.Derived{},
	}
	if p.cfg.SESAME && p.scene != nil && st.collocCtrl == nil && u.Mode() == uavsim.ModeMission {
		cond := detection.Conditions{
			AltitudeM:  u.AltitudeM(),
			Visibility: p.cfg.Visibility,
			CameraBlur: u.Camera.BlurSigma,
			Thermal:    p.thermal,
		}
		frame, err := p.detector.CaptureWith(st.detRNG, u.ID(), now, u.TruePosition(), cond, p.scene)
		if countIn(&p.drops.perception, err) {
			st.perceptionMon.stage(frame)
		}
	}
	return s
}

// observeUAV runs one UAV's telemetry reporting and monitor chain.
// Safe to call concurrently for different UAVs. A failing monitor —
// panic or error — is contained here: it becomes a counted drop plus a
// fail-safe observation instead of killing the worker goroutine (and
// with it the process) or aborting the tick. While the UAV's breaker
// is open the chain is skipped entirely (telemetry keeps flowing), so
// a persistently crashing monitor costs one skipped call per tick
// instead of one contained panic per tick.
func (p *Platform) observeUAV(s eddi.Snapshot) (ob observation) {
	st := p.states[s.UAV]
	defer func() {
		// Backstop for panics outside the chain itself (the chain's own
		// panics are converted to *eddi.MonitorPanicError upstream).
		if r := recover(); r != nil {
			p.drops.monitors.Add(1)
			if st.recorder != nil {
				st.recorder.recordPanic()
			}
			ob = observation{failed: true, panicked: true, failMsg: fmt.Sprint(r)}
		}
	}()
	p.reportTelemetry(st, s.Time)
	if st.quarantined && s.Time < st.probeAt {
		return observation{quarantined: true}
	}
	// The typed-nil guard matters: a nil *chainRecorder in a non-nil
	// interface would turn the observer path on for uninstrumented runs.
	var result eddi.ChainResult
	var err error
	if st.recorder != nil {
		result, err = eddi.RunChainObserved(st.chain, s, st.recorder)
	} else {
		result, err = eddi.RunChain(st.chain, s)
	}
	if err != nil {
		p.drops.monitors.Add(1)
		ob = observation{failed: true, failMsg: err.Error()}
		var pe *eddi.MonitorPanicError
		if errors.As(err, &pe) {
			ob.panicked = true
			ob.failMsg = pe.Monitor + ": " + fmt.Sprint(pe.Value)
			if st.recorder != nil {
				st.recorder.recordPanic()
			}
		}
		return ob
	}
	return observation{result: result}
}

// reportTelemetry is the §IV-A database path: every tick each UAV
// stores its location and battery record. Transient failures
// (ErrUnavailable) enter a bounded retry-with-backoff queue drained
// here on later ticks; permanent rejections are counted as drops.
// Retries drain first so a recovered old datum cannot overwrite this
// tick's fresher write.
func (p *Platform) reportTelemetry(st *uavState, now float64) {
	p.drainDBRetries(st, now)
	u := st.uav
	id := u.ID()
	if err := p.DB.PutLocation(p.cfg.Origin, id, u.TruePosition(), now); err != nil {
		p.deferOrDrop(st, now, err, dbRetry{
			Kind: dbRetryLocation, Pos: u.TruePosition(), Time: now,
		})
	}
	rec := Record{
		Key:   "battery",
		Value: strconv.FormatFloat(u.Battery.ChargePct, 'f', 1, 64),
		Time:  now,
	}
	if err := p.DB.PutRecord(p.cfg.Origin, id, rec); err != nil {
		p.deferOrDrop(st, now, err, dbRetry{Kind: dbRetryRecord, Rec: rec})
	}
}

// deferOrDrop queues a transiently failed database write for retry, or
// counts it as a drop when retrying is disabled or the failure is
// permanent (validation, forbidden origin).
func (p *Platform) deferOrDrop(st *uavState, now float64, err error, r dbRetry) {
	if p.cfg.DBRetryAttempts > 1 && errors.Is(err, ErrUnavailable) {
		r.Attempts = 1
		r.NextAt = now + p.cfg.DBRetryBackoffS
		st.dbRetries = append(st.dbRetries, r)
		p.retries.scheduled.Add(1)
		return
	}
	p.drops.database.Add(1)
}

// drainDBRetries re-offers due queued writes. Each failure doubles the
// backoff until the attempt budget is spent, at which point the write
// is abandoned and finally counted as a database drop. The queue is
// per-UAV state owned by the observing worker, so this is race-free
// and deterministic.
func (p *Platform) drainDBRetries(st *uavState, now float64) {
	if len(st.dbRetries) == 0 {
		return
	}
	kept := st.dbRetries[:0]
	for _, r := range st.dbRetries {
		if now < r.NextAt {
			kept = append(kept, r)
			continue
		}
		err := p.execRetry(st, r)
		if err == nil {
			p.retries.succeeded.Add(1)
			continue
		}
		r.Attempts++
		if !errors.Is(err, ErrUnavailable) || r.Attempts >= p.cfg.DBRetryAttempts {
			p.retries.abandoned.Add(1)
			p.drops.database.Add(1)
			continue
		}
		r.NextAt = now + p.cfg.DBRetryBackoffS*float64(uint64(1)<<uint(r.Attempts-1))
		kept = append(kept, r)
	}
	st.dbRetries = kept
}

// apply executes one UAV's collected findings in fleet order: event
// emission, mission management and flight actions.
func (p *Platform) apply(id string, ob observation, now float64) error {
	st := p.states[id]
	u := st.uav

	// A contained monitor-chain failure fails the UAV safe: emit the
	// incident once, hold position, skip the (unavailable) chain
	// findings — and feed the circuit breaker. After BreakerFailures
	// consecutive failures the chain is quarantined: skipped entirely
	// until a re-probe after BreakerCooldownS, instead of re-failing
	// every tick.
	if ob.failed {
		st.breakerFails++
		if !st.monitorPanicked {
			st.monitorPanicked = true
			word := "error"
			if ob.panicked {
				word = "panic"
			}
			ev := eddi.Event{
				Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 1,
				Summary: "monitor chain " + word + ": " + ob.failMsg + "; holding position fail-safe",
			}
			countIn(&p.drops.events, p.Coordinator.Emit(ev))
			p.recordEvent(ev)
		}
		if st.quarantined {
			// Failed re-probe: re-arm the cooldown without a new event —
			// one quarantine incident per continuous quarantine period.
			st.probeAt = now + p.cfg.BreakerCooldownS
		} else if k := p.cfg.BreakerFailures; k > 0 && st.breakerFails >= k {
			st.quarantined = true
			st.probeAt = now + p.cfg.BreakerCooldownS
			if p.obs != nil {
				p.obs.quarantines().Inc()
			}
			ev := eddi.Event{
				Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 1,
				Summary: fmt.Sprintf("monitor chain quarantined after %d consecutive failures; re-probe in %.0fs",
					st.breakerFails, p.cfg.BreakerCooldownS),
			}
			countIn(&p.drops.events, p.Coordinator.Emit(ev))
			p.recordEvent(ev)
			p.recordFault(now, id, "monitor-quarantine", ob.failMsg)
		}
		if u.Mode() == uavsim.ModeMission {
			u.Hold()
		}
		return nil
	}

	// Breaker open: the chain was skipped this tick; keep holding until
	// the next probe.
	if ob.quarantined {
		if u.Mode() == uavsim.ModeMission {
			u.Hold()
		}
		return nil
	}

	// A clean chain run closes an open breaker (successful probe) and
	// resets the consecutive-failure streak.
	if st.quarantined {
		st.quarantined = false
		st.breakerFails = 0
		st.monitorPanicked = false
		st.probeAt = 0
		ev := eddi.Event{
			Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 0.3,
			Summary: "monitor chain recovered after quarantine; resuming normal monitoring",
		}
		countIn(&p.drops.events, p.Coordinator.Emit(ev))
		p.recordEvent(ev)
	} else if st.breakerFails != 0 {
		st.breakerFails = 0
		st.monitorPanicked = false
	}

	// Collaborative landing halted the chain: step the controller and
	// skip normal mission control.
	if ob.result.HasAdvice(eddi.AdviceCollabLand) {
		st.collocCtrl.Step()
		if u.Mode() == uavsim.ModeLanded {
			// Back on the ground, recoverable.
			countIn(&p.drops.availability, p.avail.MarkUp(id, now))
		}
		return nil
	}

	// A crash (rotor loss on a quad, battery depletion) or the flight
	// controller's critical-charge landing takes the vehicle out of the
	// mission instantly; the Task Manager redistributes its unfinished
	// work. Every emergency landing the platform commands leaves the
	// mission first, so one seen in mission is the vehicle's own.
	if m := u.Mode(); (m == uavsim.ModeCrashed || m == uavsim.ModeEmergencyLanding) && st.inMission {
		st.inMission = false
		st.swapPending = false
		countIn(&p.drops.availability, p.avail.MarkDown(id, now))
		if p.mission != nil {
			if _, assigned := p.mission.Assignments[id]; assigned && len(p.mission.Assignments) > 1 {
				countIn(&p.drops.mission, p.mission.Redistribute(id, u.RemainingPath()))
				p.redispatch()
			}
		}
	}

	// Emit the chain's findings in deterministic fleet order.
	for _, ev := range ob.result.Events {
		countIn(&p.drops.events, p.Coordinator.Emit(ev))
		p.recordEvent(ev)
	}

	if !p.cfg.SESAME {
		p.applyBaseline(st, ob.result.Advices, now)
		return nil
	}

	// SINADRA adaptation: descend (optionally re-scanning) and restart
	// the perception window at the new altitude.
	for _, advice := range ob.result.Advices {
		switch advice.Kind {
		case eddi.AdviceRescan:
			st.rescans++
			p.descend(st)
		case eddi.AdviceDescend:
			p.descend(st)
		}
	}

	// ConSert evidence mapping and evaluation over the fleet state as
	// left by the UAVs earlier in p.order — the same view the serial
	// loop had.
	action, err := p.fuse(st, u, id)
	if err != nil {
		return err
	}
	// Monitor overrides (the SafeDrones emergency threshold) bypass the
	// boolean evidence network.
	for _, advice := range ob.result.Advices {
		if advice.Override && advice.Kind == eddi.AdviceEmergencyLand {
			action = conserts.ActionEmergencyLand
		}
	}
	p.applyAction(st, action, now)
	return nil
}

// descend executes SINADRA's altitude adaptation and resets the
// perception window for the new operating point.
func (p *Platform) descend(st *uavState) {
	countIn(&p.drops.commands, st.uav.SetAltitude(p.cfg.DescendAltitudeM))
	st.descended = true
	st.perception.Reset()
	st.hasUncert = false
}

// fuse maps the UAV's state onto the ConSert evidence vector and reads
// the Fig. 1 network's action for it.
func (p *Platform) fuse(st *uavState, u *uavsim.UAV, id string) (conserts.UAVAction, error) {
	commsOK := u.Comms.OK && !p.Security.CompromisedKey(st.c2HijackKey)
	// GCS-observed staleness demotes the comms guarantee: evidence must
	// reflect what the ground station can actually see, not vehicle
	// ground truth, once a lossy link sits between them.
	if w := p.cfg.LostLinkWindowS; w > 0 && (st.lostLink || st.telemetryAge(p.World.Clock.Now()) > w) {
		commsOK = false
	}
	var ev conserts.UAVEvidence
	ev = ev.Set(conserts.UAVGPSQualityOK, u.GPS.Mode == uavsim.GPSModeNominal || u.GPS.Mode == uavsim.GPSModeSpoofed)
	ev = ev.Set(conserts.UAVNoSpoofing, !p.Security.CompromisedKey(st.mapManipKey))
	ev = ev.Set(conserts.UAVCameraHealthy, u.Camera.OK)
	ev = ev.Set(conserts.UAVPerceptionConfident, !st.hasUncert || st.uncertainty < 0.9)
	ev = ev.Set(conserts.UAVNearbyDroneDetection, u.Camera.OK)
	ev = ev.Set(conserts.UAVCommsOK, commsOK)
	ev = ev.Set(conserts.UAVNeighborsAvailable, p.airborneNeighbors(id) > 0)
	ev = ev.Set(conserts.UAVReliabilityHigh, st.lastAssessment.Level == safedrones.LevelHigh)
	ev = ev.Set(conserts.UAVReliabilityMedium, st.lastAssessment.Level == safedrones.LevelMedium)
	return conserts.UAVActionOf(ev)
}
