package missionhost

import "sesame/internal/obsv"

// metrics mirrors the host's atomic counters into an obsv.Registry.
// A nil registry keeps every method a no-op so unobserved hosts pay
// nothing on the tick path.
type metrics struct {
	reg      *obsv.Registry
	live     *obsv.Gauge
	parked   *obsv.Gauge
	watchers *obsv.Gauge

	// Counters are nil-safe: a nil handle counts nothing.
	rounds            *obsv.Counter
	ticks             *obsv.Counter
	parksTotal        *obsv.Counter
	rehydrationsTotal *obsv.Counter
	sseDropsTotal     *obsv.Counter
	cacheHitsTotal    *obsv.Counter
	cacheMissesTotal  *obsv.Counter
}

func newMetrics(reg *obsv.Registry) *metrics {
	m := &metrics{reg: reg}
	if reg == nil {
		return m
	}
	m.live = reg.Gauge("sesame_missionhost_missions_live", "missions resident in memory")
	m.parked = reg.Gauge("sesame_missionhost_missions_parked", "missions checkpointed to disk")
	m.watchers = reg.Gauge("sesame_missionhost_watchers", "open SSE subscriptions")
	m.rounds = reg.Counter("sesame_missionhost_rounds_total", "host scheduling rounds run")
	m.ticks = reg.Counter("sesame_missionhost_ticks_total", "mission simulation ticks run")
	m.parksTotal = reg.Counter("sesame_missionhost_parks_total", "missions parked (checkpoint + evict)")
	m.rehydrationsTotal = reg.Counter("sesame_missionhost_rehydrations_total", "parked missions rebuilt from checkpoint")
	m.sseDropsTotal = reg.Counter("sesame_missionhost_sse_dropped_total", "snapshots dropped on full subscriber queues")
	m.cacheHitsTotal = reg.Counter("sesame_missionhost_cache_hits_total", "rendered-status cache hits")
	m.cacheMissesTotal = reg.Counter("sesame_missionhost_cache_misses_total", "rendered-status cache misses")
	return m
}
