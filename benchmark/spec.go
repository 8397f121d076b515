package main

// metricDef is one metric of the contract in BENCHMARK.json. The program
// keeps its own copy of the names and units so that a run emits exactly
// the contract; bench_test.go holds the two lists equal.
type metricDef struct {
	name, unit string
}

// metricsFor is the list a run reports: end to end from an untraced window,
// per layer from the traced pass.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// endToEndMetrics is what a client of the system sees. Every workload
// reports every one of them from its single untraced window.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"first_tuple_p50_us", "us"},
	{"first_tuple_p99_us", "us"},
	{"request_p50_us", "us"},
	{"request_p99_us", "us"},
	{"space_per_input_byte", "ratio"},
	{"resident_heap_mb", "MB"},
}

// perLayerMetrics is what the traced pass yields, layer by layer; the
// layers are the repository's modules. Every workload reports every one,
// each measured on that workload's own fixture.
var perLayerMetrics = []metricDef{
	{"core.query_ns_per_tuple", "ns"},
	{"core.query_ns_per_req", "ns"},
	{"core.query_first_ns", "ns"},
	{"core.query_allocs_per_tuple", "allocs/tuple"},
	{"core.server_ns_per_tuple", "ns"},
	{"core.server_allocs_per_tuple", "allocs/tuple"},
	{"core.handoff_ns_per_tuple", "ns"},
	{"httpserve.encode_binary_ns_per_tuple", "ns"},
	{"httpserve.encode_ndjson_ns_per_tuple", "ns"},
	{"httpserve.encode_allocs_per_tuple", "allocs/tuple"},
	{"httpserve.parse_bindings_ns", "ns"},
	{"httpserve.handler_ns_per_tuple", "ns"},
	{"httpserve.handler_ns_per_req", "ns"},
	{"httpserve.handler_allocs_per_tuple", "allocs/tuple"},
	{"httpserve.handler_self_ns_per_tuple", "ns"},
	{"httpserve.loopback_ns_per_tuple", "ns"},
	{"httpserve.transport_ns_per_tuple", "ns"},
	{"httpserve.client_floor_tuples_per_s", "1/s"},
	{"httpserve.streams_complete", "count"},
	{"httpserve.streams_errored", "count"},
	{"httpserve.streams_aborted", "count"},
	{"coord.routed_tuples_per_s", "1/s"},
	{"coord.scatter_tuples_per_s", "1/s"},
	{"coord.relay_ns_per_tuple", "ns"},
	{"coord.merge_ns_per_tuple", "ns"},
	{"coord.dist_over_single", "ratio"},
	{"core.build_s", "s"},
	{"core.snapshot_write_s", "s"},
	{"core.snapshot_load_s", "s"},
	{"core.mmap_open_ms", "ms"},
	{"core.entries", "count"},
	{"core.bytes", "B"},
	{"wal.append_ns", "ns"},
	{"wal.bytes_per_update", "B"},
	{"wal.replay_ms", "ms"},
	{"wal.compact_ms", "ms"},
	{"core.maintain.buffer_ns", "ns"},
	{"core.maintain.flush_ms", "ms"},
	{"core.maintain.recompile_ms", "ms"},
	{"core.maintain.updates_per_s", "1/s"},
	{"core.maintain.update_ack_p99_us", "us"},
	{"core.maintain.flush_p99_ms", "ms"},
	{"core.maintain.delta_applies", "count"},
	{"core.maintain.rebuilds", "count"},
	{"core.maintain.noop_deletes", "count"},
	{"core.maintain.snapshot_bytes_rewritten_per_update", "B"},
	{"workload.gen_s", "s"},
	{"trace.overhead_frac", "ratio"},
}
