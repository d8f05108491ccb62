package main

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound, for an end-to-end metric, is the share of the reference value
	// by which it may get worse before that counts as a regression.
	bound float64
	// exact marks a number the program computes from its inputs alone: two
	// runs of one commit and seed must agree on it to the last digit.
	exact bool
}

// endToEnd is what a user of the system sees; every workload reports all
// four.
var endToEnd = []metricDef{
	{name: "train_samples_per_s", unit: "samples/s", better: "higher", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.10},
	{name: "final_auc", unit: "AUC", better: "higher", bound: 0.20, exact: true},
}

// perLayer is the ledger of single layers, named layer.metric. Times come
// from spans recorded around the calls into the layer, counts from the
// layer's own public reports. README.md maps each to the end-to-end metric
// and workload it should move.
var perLayer = []metricDef{
	{name: "dataset.generate_s", unit: "s", better: "lower"},
	{name: "dataset.train_samples", unit: "count", better: "higher", exact: true},

	{name: "bigraph.build_s", unit: "s", better: "lower"},
	{name: "bigraph.edges", unit: "count", better: "higher", exact: true},

	{name: "partition.hybrid_s", unit: "s", better: "lower"},
	{name: "partition.medges_per_s", unit: "Medges/s", better: "higher"},
	{name: "partition.local_fraction", unit: "share", better: "higher", exact: true},
	{name: "partition.replication_factor", unit: "x", better: "lower", exact: true},

	{name: "embed.read_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "embed.read_us_p50", unit: "us", better: "lower"},
	{name: "embed.read_us_tail", unit: "us", better: "lower"},
	{name: "embed.update_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "embed.update_us_p50", unit: "us", better: "lower"},
	{name: "embed.update_us_tail", unit: "us", better: "lower"},
	{name: "embed.commit_ns_per_update", unit: "ns/update", better: "lower"},
	{name: "embed.commit_us_p50", unit: "us", better: "lower"},
	{name: "embed.commit_us_tail", unit: "us", better: "lower"},
	{name: "embed.flush_ms", unit: "ms", better: "lower"},
	{name: "embed.share_at_p1", unit: "share", better: "lower"},
	{name: "embed.ckpt_write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "embed.ckpt_read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "embed.remote_read_frac", unit: "share", better: "lower", exact: true},
	{name: "embed.replica_hit_frac", unit: "share", better: "higher", exact: true},
	{name: "embed.synced_reads", unit: "count", better: "lower", exact: true},
	{name: "embed.tier_read_hit_rate", unit: "share", better: "higher", exact: true},
	{name: "embed.tier_commit_hit_rate", unit: "share", better: "higher", exact: true},
	{name: "embed.tier_promotions", unit: "count", better: "lower", exact: true},
	{name: "embed.tier_demotions", unit: "count", better: "lower", exact: true},
	{name: "embed.tier_hot_mb", unit: "MiB", better: "lower", exact: true},
	{name: "embed.tier_warm_mb", unit: "MiB", better: "lower", exact: true},
	{name: "embed.tier_cold_mb", unit: "MiB", better: "lower", exact: true},

	{name: "nn.forward_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "nn.backward_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "nn.grads_us_per_call", unit: "us/call", better: "lower"},
	{name: "nn.gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.busy_share", unit: "share", better: "lower"},

	{name: "optim.dense_step_us_p50", unit: "us", better: "lower"},
	{name: "optim.sparse_rows_per_iter", unit: "rows/iter", better: "lower", exact: true},

	{name: "engine.iter_ms_p50", unit: "ms", better: "lower"},
	{name: "engine.iter_ms_tail", unit: "ms", better: "lower"},
	{name: "engine.eval_ms", unit: "ms", better: "lower"},
	{name: "engine.ckpt_save_ms", unit: "ms", better: "lower"},
	{name: "engine.new_trainer_s", unit: "s", better: "lower"},
	{name: "engine.cpu_s_per_msample", unit: "s/Msample", better: "lower"},
	{name: "engine.core_util", unit: "cores", better: "higher"},
	{name: "engine.parallel_speedup", unit: "x", better: "higher"},
	{name: "engine.self_share_at_p1", unit: "share", better: "lower"},
	{name: "engine.footprint_mb", unit: "MiB", better: "lower", exact: true},
	{name: "engine.maxrss_mb", unit: "MiB", better: "lower"},
	{name: "engine.sim_samples_per_s", unit: "samples/s", better: "higher", exact: true},
	{name: "engine.sim_comm_frac", unit: "share", better: "lower", exact: true},
	{name: "engine.run_s_traced", unit: "s", better: "lower"},
	{name: "engine.trace_overhead_frac", unit: "share", better: "lower"},

	{name: "comm.sim_embedding_mb", unit: "MB", better: "lower", exact: true},
	{name: "comm.sim_meta_mb", unit: "MB", better: "lower", exact: true},
	{name: "comm.sim_dense_mb", unit: "MB", better: "lower", exact: true},
	{name: "comm.wire_mb_per_iter", unit: "MB/iter", better: "lower", exact: true},
	{name: "comm.wire_msgs_per_iter", unit: "msgs/iter", better: "lower", exact: true},
	{name: "comm.recv_wait_share", unit: "share", better: "lower"},
	{name: "comm.connect_ms", unit: "ms", better: "lower"},
	{name: "comm.send_us_p50", unit: "us", better: "lower"},
	{name: "comm.exchange_us_p50", unit: "us", better: "lower"},
	{name: "comm.exchange_us_tail", unit: "us", better: "lower"},
	{name: "comm.barrier_us_p50", unit: "us", better: "lower"},
}

// metricValue is one measured number as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload produced: the metrics of its
// mode, and the operations it attempted — every timed repetition and every
// check of the program's outputs.
type outcome struct {
	Metrics map[string]metricValue `json:"metrics"`
	// Spread holds the quartiles and sample count behind each metric that
	// is a median of repeated timings.
	Spread map[string]summary `json:"spread,omitempty"`
	// Tails says which percentile each *_tail metric is: the highest one
	// with at least ten samples beyond it.
	Tails map[string]tail `json:"tails,omitempty"`
	// Spans totals the traced run's spans by name, with their self time.
	Spans     []nameTime `json:"spans,omitempty"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Failures  []string   `json:"failures,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]metricValue{}, Spread: map[string]summary{}, Tails: map[string]tail{}}
}

// set records the metrics of defs that vals has a value for.
func (o *outcome) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			o.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
}

// op counts one operation; a non-nil err fails it.
func (o *outcome) op(what string, err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.Failures = append(o.Failures, what+": "+err.Error())
	}
}
