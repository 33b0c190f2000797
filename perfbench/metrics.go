package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0. Quantiles are of the hi
// phase unless the name ends in .lo. A task is one scheduled arrival: an
// Analytics task in shared-commit, a single op elsewhere.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"mem_bytes_per_entry", "B"},
	{"cpu_us_per_op", "us"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"task_p50_ms", "ms"},
	{"read_p50_ms.lo", "ms"},
	{"write_p50_ms.lo", "ms"},
	{"task_p50_ms.lo", "ms"},
}

// perLayerMetrics are reported with --trace 1.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.inflight_max", "count"},
		{"proxy.retries_per_op", "count/op"},
		{"proxy.self_us", "us"},
		{"proxy.dirrename.loopdetect_ms", "ms"},
	}
	for k := opKind(0); k < numOpKinds; k++ {
		p := "proxy." + k.String()
		defs = append(defs, metricDef{p + ".p50_ms", "ms"}, metricDef{p + ".p99_ms", "ms"},
			metricDef{p + ".lookup_ms", "ms"}, metricDef{p + ".execute_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"indexnode.lookup_us", "us"},
		metricDef{"indexnode.replicate_us", "us"},
		metricDef{"indexnode.cache_hit_ratio", "ratio"},
		metricDef{"indexnode.coalesced_frac", "ratio"},
		metricDef{"indexnode.follower_share", "ratio"},
		metricDef{"indexnode.lock_conflicts_per_rename", "count/op"},
		metricDef{"raft.proposals_per_sync", "count"},
		metricDef{"raft.syncs_per_write", "count/op"},
		metricDef{"raft.propose_p50_ms", "ms"},
		metricDef{"raft.propose_p99_ms", "ms"},
		metricDef{"raft.ingest_wait_us", "us"},
		metricDef{"raft.commit_wait_us", "us"},
		metricDef{"raft.flush_timer_frac", "ratio"},
		metricDef{"raft.elections", "count"},
	)
	for _, c := range tafdbCalls {
		defs = append(defs, metricDef{"tafdb." + c + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"tafdb.txn_p50_ms", "ms"},
		metricDef{"tafdb.txn_p99_ms", "ms"},
		metricDef{"tafdb.retries_per_write", "count/op"},
		metricDef{"tafdb.shard_load_skew", "ratio"},
		metricDef{"txn.txns_per_round", "count"},
		metricDef{"txn.batched_frac", "ratio"},
		metricDef{"storage.wal_syncs_per_write", "count/op"},
		metricDef{"storage.wal_batches_per_sync", "count"},
		metricDef{"netsim.rtts_per_op.read", "count/op"},
		metricDef{"netsim.rtts_per_op.write", "count/op"},
		metricDef{"netsim.rtts_per_op.task", "count/op"},
		metricDef{"netsim.indexnode_queue_p99_ms", "ms"},
		metricDef{"netsim.tafdb_queue_p99_ms", "ms"},
		metricDef{"netsim.util_max", "ratio"},
		metricDef{"netsim.modelled_ms_per_op", "ms"},
		metricDef{"rpc.retries_per_kop", "count/kop"},
		metricDef{"rpc.timeouts", "count"},
		metricDef{"runtime.allocs_per_op", "count/op"},
		metricDef{"runtime.alloc_bytes_per_op", "B/op"},
		metricDef{"runtime.gc_per_kop", "count/kop"},
		metricDef{"setup.bulk_insert_s", "s"},
		metricDef{"setup.bulk_add_s", "s"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}()

// printedOnly are end-to-end metrics printed with the others but left
// out of the result: error_frac and slo_miss_frac read 0 on a correct
// run, and the p99s move too much with the host to gate (see README.md).
var printedOnly = []metricDef{
	{"error_frac", "ratio"},
	{"slo_miss_frac", "ratio"},
	{"read_p99_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"task_p99_ms", "ms"},
}

// unitOf returns a metric's unit ("" when it is not a reported metric).
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, printedOnly, perLayerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
