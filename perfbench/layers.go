package main

import (
	"sesame/internal/obsv"
)

// endToEnd are the metrics a user of the stack sees, reported on every
// workload by the untraced pass. BENCHMARK.json lists the same names.
// Metrics that exist on one workload only — hosted's watcher reads and
// resumes — are per-layer rows, since every workload must report every
// end-to-end metric.
var endToEnd = []struct {
	name, unit string
	value      func(*pass) float64
}{
	{"setup_s", "s", func(p *pass) float64 { return p.setupS }},
	{"rtf", "sim_s/s", func(p *pass) float64 { return blockRTF(p.simS, p.hostS) }},
	{"latency_ms_p50", "ms", func(p *pass) float64 { return 1e3 * quantile(p.hostS, 0.5) }},
	{"latency_ms_p90", "ms", func(p *pass) float64 { return 1e3 * quantile(p.hostS, 0.9) }},
	{"heap_mb", "MB", func(p *pass) float64 { return p.heapMB }},
}

// layerMetric is one per-layer metric. Which end-to-end metric each
// should move, and on which workload, is the table in NOTES.md.
type layerMetric struct{ Name, Unit string }

// perLayer are the traced run's metrics. A metric that does not apply
// to the workload being run reads 0 (NOTES.md, "Per-layer metrics").
var perLayer = []layerMetric{
	{"platform.step_us_per_uav_tick", "us"},
	{"platform.prepare_us_per_uav_tick", "us"},
	{"platform.observe_us_per_uav_tick", "us"},
	{"platform.apply_us_per_uav_tick", "us"},
	{"platform.tick_ms_p50", "ms"},
	{"platform.allocs_per_uav_tick", "count"},
	{"platform.bytes_per_uav_tick", "B"},
	{"platform.gc_cycles_per_1k_uav_ticks", "count"},
	{"platform.build_ms_per_mission", "ms"},
	{"safeml.observe_us_per_eval", "us"},
	{"safedrones.observe_us_per_eval", "us"},
	{"sinadra.observe_us_per_eval", "us"},
	{"colloc.observe_us_per_eval", "us"},
	{"eddi.evals_per_uav_tick", "count"},
	{"rosbus.delivered_per_uav_tick", "count"},
	{"ids.rule_evals_per_uav_tick", "count"},
	{"ids.alerts_per_1k_rule_evals", "count"},
	{"linksim.delivered_ratio", "ratio"},
	{"missionhost.round_ms_p50", "ms"},
	{"missionhost.ticks_per_round", "count"},
	{"missionhost.park_ms_p50.checkpoint", "ms"},
	{"missionhost.park_ms_p50.replay", "ms"},
	{"missionhost.resume_ms_p50", "ms"},
	{"missionhost.resume_ms_p90", "ms"},
	{"missionhost.resume_ms_p50.checkpoint", "ms"},
	{"missionhost.resume_ms_p50.replay", "ms"},
	{"missionhost.replay_park_ratio", "ratio"},
	{"missionhost.replay_ticks_per_resume", "count"},
	{"missionhost.read_us_p50", "us"},
	{"missionhost.read_us_p99", "us"},
	{"missionhost.cache_hit_ratio", "ratio"},
	{"missionhost.create_ms_p50", "ms"},
	{"flightrec.checkpoint_bytes_p50", "B"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// Span names shared by the workloads and perLayerValues.
const (
	spanBuild = "platform.New+StartMission"
	spanTick  = "platform.Tick"
)

// perLayerValues derives every per-layer metric. Allocation counts come
// from the untraced pass's timed segments; everything else from the
// traced pass: its obsv registry, its spans, and what the workload
// measured itself (traced.layers).
func perLayerValues(plain, traced *pass) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	if plain.uavTicks > 0 {
		a := plain.sw.allocs
		out["platform.allocs_per_uav_tick"] = float64(a.objects) / plain.uavTicks
		out["platform.bytes_per_uav_tick"] = float64(a.bytes) / plain.uavTicks
		out["platform.gc_cycles_per_1k_uav_ticks"] = 1000 * float64(a.gcs) / plain.uavTicks
	}
	reg := snapshotView(traced.reg.Snapshot())
	if uavTicks := float64(reg.counter("sesame_platform_ticks_total")) * traced.fleetSize; uavTicks > 0 {
		for _, phase := range []string{"step", "prepare", "observe", "apply"} {
			_, sum := reg.hist("sesame_platform_phase_seconds", phase)
			out["platform."+phase+"_us_per_uav_tick"] = 1e6 * sum / uavTicks
		}
		for _, mon := range []string{"safeml", "safedrones", "sinadra", "colloc"} {
			if n, sum := reg.hist("sesame_monitor_observe_seconds", mon); n > 0 {
				out[mon+".observe_us_per_eval"] = 1e6 * sum / float64(n)
			}
		}
		out["eddi.evals_per_uav_tick"] = float64(reg.counter("sesame_monitor_evaluations_total")) / uavTicks
		out["rosbus.delivered_per_uav_tick"] = float64(reg.counter("sesame_rosbus_delivered_total")) / uavTicks
		evals := float64(reg.counter("sesame_ids_rule_evaluations_total"))
		out["ids.rule_evals_per_uav_tick"] = evals / uavTicks
		if evals > 0 {
			out["ids.alerts_per_1k_rule_evals"] = 1000 * float64(reg.counter("sesame_ids_alerts_total")) / evals
		}
	}
	if ticks := traced.tr.durations(spanTick, true); len(ticks) > 0 {
		out["platform.tick_ms_p50"] = 1e3 * quantile(ticks, 0.5)
	}
	if builds := traced.tr.durations(spanBuild, false); len(builds) > 0 {
		out["platform.build_ms_per_mission"] = 1e3 * quantile(builds, 0.5)
	}
	for k, v := range traced.layers {
		out[k] = v
	}
	if base := quantile(plain.hostS, 0.5); base > 0 {
		out["bench.trace_overhead_ratio"] = quantile(traced.hostS, 0.5) / base
	}
	return out
}

// snapshotView reads totals out of an obsv registry snapshot.
type snapshotView obsv.Snapshot

// counter sums every series of the named counter family.
func (v snapshotView) counter(name string) uint64 {
	var n uint64
	for _, c := range v.Counters {
		if c.Name == name {
			n += c.Count
		}
	}
	return n
}

// hist returns the observation count and sum of one labelled series.
func (v snapshotView) hist(name, label string) (uint64, float64) {
	for _, h := range v.Histograms {
		if h.Name == name && h.Value == label {
			return h.Count, h.Sum
		}
	}
	return 0, 0
}
