package missionhost

import "sesame/internal/obsv"

// metrics holds the host's only copy of its counters and gauges.
// Counters are registered in the obsv registry when one is configured
// and standalone otherwise, so Stats counts either way; gauges are nil
// (no-ops) without a registry.
type metrics struct {
	reg      *obsv.Registry
	live     *obsv.Gauge
	parked   *obsv.Gauge
	watchers *obsv.Gauge

	// rounds is also the eviction clock (Mission.lastAccess).
	rounds       *obsv.Counter
	ticks        *obsv.Counter
	parks        *obsv.Counter
	rehydrations *obsv.Counter
	sseDrops     *obsv.Counter
	cacheHits    *obsv.Counter
	cacheMisses  *obsv.Counter
}

func newMetrics(reg *obsv.Registry) *metrics {
	counter := func(name, help string) *obsv.Counter {
		if c := reg.Counter(name, help); c != nil {
			return c
		}
		return new(obsv.Counter)
	}
	m := &metrics{
		reg:          reg,
		rounds:       counter("sesame_missionhost_rounds_total", "host scheduling rounds run"),
		ticks:        counter("sesame_missionhost_ticks_total", "mission simulation ticks run"),
		parks:        counter("sesame_missionhost_parks_total", "missions parked (checkpoint + evict)"),
		rehydrations: counter("sesame_missionhost_rehydrations_total", "parked missions rebuilt from checkpoint"),
		sseDrops:     counter("sesame_missionhost_sse_dropped_total", "snapshots dropped on full subscriber queues"),
		cacheHits:    counter("sesame_missionhost_cache_hits_total", "status reads served from the stored render"),
		cacheMisses:  counter("sesame_missionhost_cache_misses_total", "status reads that rendered"),
	}
	if reg != nil {
		m.live = reg.Gauge("sesame_missionhost_missions_live", "missions resident in memory")
		m.parked = reg.Gauge("sesame_missionhost_missions_parked", "missions checkpointed to disk")
		m.watchers = reg.Gauge("sesame_missionhost_watchers", "open SSE subscriptions")
	}
	return m
}
