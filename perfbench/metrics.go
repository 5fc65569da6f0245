package main

// MetricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions
// (TestBenchmarkJSONMatches keeps them in step).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndMetrics come from the untraced run against wfserve and are
// the bounded figures of the result. failed_ops_ratio is printed beside
// them and carried by the result's attempted/failed fields; it is 0 on
// a correct run, so it is not a metric with a relative bound.
var endToEndMetrics = []MetricDef{
	{"setup_s", "s", "lower"},
	{"ingest_events_per_s", "1/s", "higher"},
	{"ingest_ack_p50_ms", "ms", "lower"},
	{"reach_pairs_per_s", "1/s", "higher"},
	{"reach_batch_p50_us", "us", "lower"},
	{"lineage_page_p50_ms", "ms", "lower"},
	{"restart_ready_ms", "ms", "lower"},
	{"restart_first_ack_ms", "ms", "lower"},
	{"server_rss_peak_mb", "MB", "lower"},
	{"disk_bytes_per_event", "B", "lower"},
	{"disk_write_bytes_per_event", "B", "lower"},
}

// tailMetrics are the end-to-end tails. They are printed with the
// percentile and sample count behind them but left out of the bounded
// result: over ten seeds their quartile spread on this 2-vCPU host
// ranged from 0.26 to 0.87 of the median. That is wider than the 0.25 a
// bound may be, so they are reported as unresolved rather than bounded.
var tailMetrics = []MetricDef{
	{"ingest_ack_p99_ms", "ms", "lower"},
	{"reach_batch_p99_us", "us", "lower"},
	{"lineage_page_p99_ms", "ms", "lower"},
}

// perLayerMetrics come from the traced in-process run (plus the
// process and load-generator figures of the end-to-end run), named by
// module.
var perLayerMetrics = []MetricDef{
	// Write path.
	{"api.frame_decode_ns_per_event", "ns", "lower"},
	{"core.insert_ns_per_event", "ns", "lower"},
	{"core.insert_allocs_per_event", "count", "lower"},
	{"core.insert_bytes_per_event", "B", "lower"},
	{"label.encode_ns_per_event", "ns", "lower"},
	{"label.bits_mean", "bit", "lower"},
	{"label.bits_max", "bit", "lower"},
	{"wal.append_ns_per_event", "ns", "lower"},
	{"integrity.chain_ns_per_byte", "ns", "lower"},
	{"wal.commit_us_p50", "us", "lower"},
	{"wal.commit_us_p99", "us", "lower"},
	{"wal.batches_per_commit", "count", "higher"},
	{"wal.fsyncs_per_kevent", "count", "lower"},
	{"store.publish_ns_per_event", "ns", "lower"},
	{"store.publish_allocs_per_batch", "count", "lower"},
	{"arena.snapshot_ms_p50", "ms", "lower"},
	{"arena.snapshot_bytes_per_event", "B", "lower"},
	{"service.append_ns_per_event", "ns", "lower"},
	{"http.write_ns_per_event", "ns", "lower"},
	{"reconcile.write_unexplained_ns_per_event", "ns", "lower"},
	// Read path.
	{"store.getraw_heap_ns", "ns", "lower"},
	{"store.getraw_arena_ns", "ns", "lower"},
	{"label.decode_ns", "ns", "lower"},
	{"store.reach_bytes_ns_per_pair", "ns", "lower"},
	{"store.lineage_ms_per_call", "ms", "lower"},
	{"store.lineage_labels_decoded_per_result", "count", "lower"},
	{"api.reach_json_ns_per_pair", "ns", "lower"},
	{"service.reach_batch_ns_per_pair", "ns", "lower"},
	{"service.lineage_page_ms", "ms", "lower"},
	{"http.read_ns_per_pair", "ns", "lower"},
	{"reconcile.read_unexplained_ns_per_pair", "ns", "lower"},
	// Restore.
	{"arena.open_ms", "ms", "lower"},
	{"arena.verify_merkle_ms", "ms", "lower"},
	{"wal.chain_walk_ms", "ms", "lower"},
	{"wal.chain_walk_bytes", "B", "lower"},
	{"wal.tail_scan_ms", "ms", "lower"},
	{"service.restore_ms", "ms", "lower"},
	{"service.first_ingest_ms", "ms", "lower"},
	{"reconcile.restart_unexplained_ms", "ms", "lower"},
	// Process and runtime.
	{"server.cpu_ms_per_kevent", "ms", "lower"},
	{"go.heap_bytes_per_label", "B", "lower"},
	{"go.gc_cycles_per_kevent", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.cpu_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
