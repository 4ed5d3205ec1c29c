package main

// metricSpec is one row of BENCHMARK.json's metric tables. The smoke test
// checks that file against these lists, so they are the single place a name,
// unit, direction or bound is written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of em.Index sees. Every workload reports
// every one of them; README.md says which phase of which workload produces
// each. Bounds are the relative worsening that counts as a regression.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "records/s", "higher", 0.25},
	{"keys_per_s", "keys/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"scan_records_per_s", "records/s", "higher", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"ios_per_op", "ios/op", "lower", 0.05},
	{"steps_per_op", "steps/op", "lower", 0.05},
	{"write_ios_per_insert", "ios/op", "lower", 0.03},
	{"space_blocks_per_krecord", "blocks/krecord", "lower", 0.01},
}

// exactOnReadOnly are the counted metrics -compare requires to match exactly
// on build-* and serve-*, where one seed fixes every I/O.
var exactOnReadOnly = map[string]bool{
	"ios_per_op": true, "steps_per_op": true, "write_ios_per_insert": true, "space_blocks_per_krecord": true,
}

// perLayerMetrics are measured by the traced run: counters of the timed
// window, and probes that call one layer's public functions directly.
var perLayerMetrics = []metricSpec{
	{Name: "pdm.read_block_ns", Unit: "ns", Better: "lower"},
	{Name: "pdm.write_block_ns", Unit: "ns", Better: "lower"},
	{Name: "pdm.batch_read_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "pdm.batch_write_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "pdm.reads", Unit: "count", Better: "lower"},
	{Name: "pdm.writes", Unit: "count", Better: "lower"},
	{Name: "pdm.steps", Unit: "count", Better: "lower"},
	{Name: "pdm.retries", Unit: "count", Better: "lower"},
	{Name: "pdm.parallelism", Unit: "ios/step", Better: "higher"},
	{Name: "pdm.disk_skew", Unit: "ratio", Better: "lower"},
	{Name: "pdm.pool_alloc_release_ns", Unit: "ns", Better: "lower"},
	{Name: "record.codec_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.read_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.async_write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.prefetch_read_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "extsort.mergesort_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "extsort.distsort_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "extsort.ios_per_record", Unit: "ios/record", Better: "lower"},
	{Name: "btree.bulkload_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "btree.bulkload_writes_per_krecord", Unit: "ios/krecord", Better: "lower"},
	{Name: "pipeline.overlap_ratio", Unit: "ratio", Better: "lower"},
	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.getbatch_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "btree.reads_per_key", Unit: "ios/key", Better: "lower"},
	{Name: "btree.height", Unit: "levels", Better: "lower"},
	{Name: "btree.scan_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "btree.scan_reads_per_krecord", Unit: "ios/krecord", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.writebacks", Unit: "count", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.fanout_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.scan_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.session_open_us", Unit: "us", Better: "lower"},
	{Name: "index.gate_pass_ns", Unit: "ns", Better: "lower"},
	{Name: "index.gate_park_wake_us", Unit: "us", Better: "lower"},
	{Name: "buffertree.insert_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "buffertree.ios_per_kop", Unit: "ios/kop", Better: "lower"},
	{Name: "buffertree.seal_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "store.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "store.insert_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "store.drain_write_ios_per_op", Unit: "ios/op", Better: "lower"},
	{Name: "store.drains", Unit: "count", Better: "lower"},
	{Name: "store.epoch", Unit: "count", Better: "lower"},
	{Name: "store.get_quiesced_ns", Unit: "ns", Better: "lower"},
	{Name: "store.get_in_drain_ns", Unit: "ns", Better: "lower"},
	{Name: "store.overlay_scan_ns_per_record", Unit: "ns", Better: "lower"},
	// Tail latencies of the untraced passes. They are not end-to-end metrics
	// because, where a request takes microseconds, they follow the host's
	// interruptions and not the code, and hold no bound (README.md).
	{Name: "em.batch_p95_us", Unit: "us", Better: "lower"},
	{Name: "em.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "em.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "em.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "em.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "em.peak_heap_mib", Unit: "MiB", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// workloadSpec is a workload's name and the one-line reason it exists, as
// BENCHMARK.json carries them.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"build-cpu", "SortIndex at N>=2^20 on the memory backend with no latency: sort, stream, codec, bulk load and pipeline do all the work, so ns per record shows"},
	{"build-file", "the same SortIndex call on the file backend: striped sequential batches through pread/pwrite, so a syscall-layer change shows here and not on build-cpu"},
	{"serve-cpu", "sharded reads with no latency: node search, cache, shard merge-cut and allocation per request; leaves do not fit the session cache"},
	{"serve-model", "the same request script at 2 ms per block: wall clock is parallel steps, so batching, forecasting, fan-out and multi-shard scans decide it"},
	{"store-file", "two clients write and read a sharded store on files: buffer-tree front, background drains rebuilding generations while gets hit the device"},
}
