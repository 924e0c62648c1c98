package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off, the same set on every workload.
// BENCHMARK.json repeats this table; TestBenchmarkJSONMatchesCode keeps the
// two in step. The timing bounds are as wide as BENCHMARK.json allows because
// the reference box itself drifts by a tenth between its quiet and its busy
// hours (see ../NOISE.md); rmse gets the same because the K-means draws of
// step_joint_d4 and ingest_serve land in different optima from fleet to
// fleet. The counts repeat to well under a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"rmse", "util", "lower", 0.25},
	{"tx_freq", "ratio", "lower", 0.02},
}

// perLayer comes from the traced run. A layer that is not on a workload's
// path reports 0 there.
var perLayer = []metricDef{
	{"core.step_ms", "ms", "lower", 0},
	{"core.phase_ingest_ms", "ms", "lower", 0},
	{"core.phase_cluster_ms", "ms", "lower", 0},
	{"core.phase_refit_ms", "ms", "lower", 0},
	{"core.phase_forecast_ms", "ms", "lower", 0},
	{"core.phase_publish_ms", "ms", "lower", 0},
	{"core.warm_ratio", "ratio", "higher", 0},
	{"core.refit_full", "count", "lower", 0},
	{"core.forecast_ms", "ms", "lower", 0},
	{"core.export_state_ms", "ms", "lower", 0},
	{"transmit.decide_ns_per_node", "ns", "lower", 0},
	{"transmit.sent_ratio", "ratio", "lower", 0},
	{"cluster.update_ms", "ms", "lower", 0},
	{"kmeans.runflat_ms", "ms", "lower", 0},
	{"kmeans.assign_ns_per_point", "ns", "lower", 0},
	{"kmeans.iterations_per_run", "count", "lower", 0},
	{"forecast.observe_us", "us", "lower", 0},
	{"forecast.refit_ms", "ms", "lower", 0},
	{"forecast.refits", "count", "lower", 0},
	{"forecast.forecast_us", "us", "lower", 0},
	{"forecast.champion_switches", "count", "lower", 0},
	{"forecast.fit_ms.sample-and-hold", "ms", "lower", 0},
	{"forecast.fit_ms.ses", "ms", "lower", 0},
	{"forecast.fit_ms.holt", "ms", "lower", 0},
	{"forecast.fit_ms.ar", "ms", "lower", 0},
	{"forecast.fit_ms.arima", "ms", "lower", 0},
	{"persist.wal_append_us", "us", "lower", 0},
	{"persist.wal_bytes_per_step", "B", "lower", 0},
	{"persist.checkpoint_ms", "ms", "lower", 0},
	{"persist.checkpoint_kb", "kB", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.replayed_steps", "count", "lower", 0},
	{"persist.replay_steps_per_s", "1/s", "higher", 0},
	{"alert.evaluate_us", "us", "lower", 0},
	{"alert.events", "count", "lower", 0},
	{"transport.send_flush_ms", "ms", "lower", 0},
	{"transport.drain_wait_ms", "ms", "lower", 0},
	{"transport.bytes_per_record", "B", "lower", 0},
	{"transport.records", "count", "lower", 0},
	{"transport.batches", "count", "lower", 0},
	{"transport.dropped", "count", "lower", 0},
	{"transport.proto_errors", "count", "lower", 0},
	{"transport.deflate_send_flush_ms", "ms", "lower", 0},
	{"transport.deflate_bytes_per_record", "B", "lower", 0},
	{"serve.tick_ms", "ms", "lower", 0},
	{"serve.forecast_node_us", "us", "lower", 0},
	{"serve.forecast_fleet_ms", "ms", "lower", 0},
	{"serve.node_us", "us", "lower", 0},
	{"serve.clusters_us", "us", "lower", 0},
	{"serve.models_us", "us", "lower", 0},
	{"serve.stats_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.resp_kb_per_round", "kB", "lower", 0},
	{"serve.non200", "count", "lower", 0},
	{"obs.expose_us", "us", "lower", 0},
	{"obs.series", "count", "higher", 0},
	{"trace.generate_ms", "ms", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.spans", "count", "lower", 0},
	{"bench.host_slowdown", "ratio", "lower", 0},
	{"bench.tx_freq_err", "ratio", "lower", 0},
	{"bench.failed_ratio", "ratio", "lower", 0},
}

// defsFor is the table a run reports: per-layer when traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// metricValue is one reported value in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	digest uint64 // output fingerprint; printed, and compared by the tests
}

// fill builds the metrics object for a definition table from measured
// values: every defined metric appears (0 when the workload did not touch
// its layer), nothing undefined does, and nothing non-finite gets through to
// the JSON encoder.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not defined", name)
		}
	}
	return out, nil
}
