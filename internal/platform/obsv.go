package platform

// Observability wiring for the fleet scheduler. The design splits hot
// and cold paths: every metric handle is resolved once at New (no map
// lookups per tick), all handles are nil-safe no-ops when Config has no
// registry, and only the deterministic counter subset is merged into
// Status so golden digests stay bit-identical with observability on.

import (
	"sync/atomic"
	"time"

	"sesame/internal/eddi"
	"sesame/internal/obsv"
)

// platformMetrics holds the scheduler's resolved metric handles. A nil
// *platformMetrics disables all instrumentation (checked once per call
// site); individual nil handles inside degrade to no-ops on their own.
type platformMetrics struct {
	reg *obsv.Registry

	ticks *obsv.Counter
	// phase latency histograms, resolved from one labeled family.
	// "prepare" times the serial lost-link watchdog, plus the serial
	// snapshot pass of a one-cell fleet that fans observe out. Otherwise
	// snapshots and captures are timed under "observe", where each cell
	// prepares its vehicles.
	phaseStep    *obsv.Histogram
	phasePrepare *obsv.Histogram
	phaseObserve *obsv.Histogram
	phaseApply   *obsv.Histogram

	monitorLatency *obsv.HistogramVec
	monitorEvals   *obsv.CounterVec
	monitorAdvice  *obsv.CounterVec
	monitorErrors  *obsv.Counter
	monitorPanics  *obsv.Counter

	// Degradation counters are registered lazily, on the first
	// quarantine or recorder failure: runs that never degrade expose
	// exactly the same metric families (and therefore the same
	// Status.Observability maps and golden digests) as before this
	// machinery existed. All accesses happen in the serial apply phase,
	// so the lazy init needs no locking.
	monitorQuarantines *obsv.Counter
	recDegradedTotal   *obsv.Counter
	recSkippedTotal    *obsv.Counter

	// tick is written serially at the top of Tick and read by the
	// concurrent observe-phase recorders for trace stamping.
	tick atomic.Uint64
}

// newPlatformMetrics registers the scheduler families in reg.
func newPlatformMetrics(reg *obsv.Registry) *platformMetrics {
	phases := reg.HistogramVec("sesame_platform_phase_seconds",
		"Scheduler phase wall-clock latency, by phase.", "phase", obsv.DefLatencyBuckets)
	return &platformMetrics{
		reg:          reg,
		ticks:        reg.Counter("sesame_platform_ticks_total", "Platform ticks executed."),
		phaseStep:    phases.With("step"),
		phasePrepare: phases.With("prepare"),
		phaseObserve: phases.With("observe"),
		phaseApply:   phases.With("apply"),
		monitorLatency: reg.HistogramVec("sesame_monitor_observe_seconds",
			"Per-monitor Observe latency, by monitor.", "monitor", obsv.DefLatencyBuckets),
		monitorEvals: reg.CounterVec("sesame_monitor_evaluations_total",
			"Monitor chain evaluations, by monitor.", "monitor"),
		monitorAdvice: reg.CounterVec("sesame_monitor_advice_total",
			"Non-empty adaptation advices returned by monitors, by kind.", "kind"),
		monitorErrors: reg.Counter("sesame_monitor_errors_total",
			"Monitor Observe calls that returned an error."),
		monitorPanics: reg.Counter("sesame_monitor_panics_total",
			"Monitor chain panics contained by the scheduler."),
	}
}

// quarantines resolves the breaker-quarantine counter on first use.
func (m *platformMetrics) quarantines() *obsv.Counter {
	if m.monitorQuarantines == nil {
		m.monitorQuarantines = m.reg.Counter("sesame_monitor_quarantines_total",
			"Monitor chains quarantined by the scheduler's circuit breaker.")
	}
	return m.monitorQuarantines
}

// recorderDegraded resolves the recorder-degradation counter on first use.
func (m *platformMetrics) recorderDegraded() *obsv.Counter {
	if m.recDegradedTotal == nil {
		m.recDegradedTotal = m.reg.Counter("sesame_recorder_degraded_total",
			"Flight-recorder demotions to counting no-op after a persistent write failure.")
	}
	return m.recDegradedTotal
}

// recorderSkipped resolves the skipped-writes counter on first use.
func (m *platformMetrics) recorderSkipped() *obsv.Counter {
	if m.recSkippedTotal == nil {
		m.recSkippedTotal = m.reg.Counter("sesame_recorder_skipped_writes_total",
			"Recording operations suppressed while the flight recorder is degraded.")
	}
	return m.recSkippedTotal
}

// chainRecorder is one UAV's eddi.ChainObserver: handles for every
// monitor in the chain are resolved at construction, so MonitorDone
// does no lookups and no allocations on the observe-phase hot path.
type chainRecorder struct {
	obs     *platformMetrics
	uav     string
	latency []*obsv.Histogram
	evals   []*obsv.Counter
	names   []string
}

// newChainRecorder resolves per-monitor handles for st's chain.
func newChainRecorder(obs *platformMetrics, uav string, chain []eddi.Runtime) *chainRecorder {
	r := &chainRecorder{
		obs:     obs,
		uav:     uav,
		latency: make([]*obsv.Histogram, len(chain)),
		evals:   make([]*obsv.Counter, len(chain)),
		names:   make([]string, len(chain)),
	}
	for i, m := range chain {
		r.latency[i] = obs.monitorLatency.With(m.Name())
		r.evals[i] = obs.monitorEvals.With(m.Name())
		r.names[i] = m.Name()
	}
	return r
}

// MonitorDone implements eddi.ChainObserver.
func (r *chainRecorder) MonitorDone(index int, m eddi.Runtime, elapsed time.Duration, events int, advice eddi.Advice, err error) {
	r.latency[index].Observe(elapsed.Seconds())
	r.evals[index].Inc()
	if advice.Kind != eddi.AdviceNone {
		r.obs.monitorAdvice.With(advice.Kind.String()).Inc()
	}
	outcome := obsv.OutcomeOK
	switch {
	case err != nil:
		r.obs.monitorErrors.Inc()
		outcome = obsv.OutcomeError
	case advice.Halt:
		outcome = obsv.OutcomeHalt
	}
	if ring := r.obs.reg.Trace(); ring != nil {
		ring.Record(obsv.TraceEvent{
			Tick:     r.obs.tick.Load(),
			UAV:      r.uav,
			Monitor:  r.names[index],
			Phase:    "observe",
			Duration: elapsed,
			Outcome:  outcome,
		})
	}
}

// recordPanic mirrors a contained monitor-chain panic into the metrics
// and, when tracing, the trace ring.
func (r *chainRecorder) recordPanic() {
	r.obs.monitorPanics.Inc()
	if ring := r.obs.reg.Trace(); ring != nil {
		ring.Record(obsv.TraceEvent{
			Tick:    r.obs.tick.Load(),
			UAV:     r.uav,
			Phase:   "observe",
			Outcome: obsv.OutcomePanic,
		})
	}
}

// Observability returns the platform's metrics registry (nil when the
// platform was built without one).
func (p *Platform) Observability() *obsv.Registry {
	if p.obs == nil {
		return nil
	}
	return p.obs.reg
}
