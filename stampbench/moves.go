package main

// moves names, for each metric, the end-to-end metric it should move and the
// workload on which it should move it. The traced run prints it beside each
// number, so a claimed gain can be checked against the layer it names.
var moves = map[string]string{
	"setup_s":      "(end to end) set-up time, both workloads",
	"peak_rss_mb":  "(end to end) process VmHWM, both workloads",
	"lazy_s":       "(end to end) Σ app median region time on stm-lazy",
	"norec_s":      "(end to end) Σ app median region time on stm-norec",
	"rps":          "(end to end) completed requests per second",
	"p50_us":       "(end to end) client latency around Server.Do",
	"p99_us":       "(end to end) client latency around Server.Do",
	"query_p50_us": "(end to end) read-only query latency",
	"rw_p50_us":    "(end to end) read-write request latency",

	"lazy.commits":             "lazy_s (drift check: exact on deterministic apps)",
	"lazy.retries_per_tx":      "lazy_s on long-churn",
	"lazy.loads_per_tx":        "lazy_s (drift check)",
	"lazy.stores_per_tx":       "lazy_s (drift check)",
	"lazy.useful_frac":         "lazy_s on long-churn",
	"lazy.tx_frac":             "lazy_s on short-serve",
	"lazy.nontx_frac":          "lazy_s on short-serve (kmeans compute and barrier waits)",
	"lazy.cm_wait_ms":          "lazy_s on long-churn",
	"lazy.escalations":         "lazy_s on long-churn",
	"lazy.alloc_words_per_tx":  "lazy_s on long-churn",
	"norec.commits":            "norec_s (drift check: exact on deterministic apps)",
	"norec.retries_per_tx":     "norec_s on long-churn",
	"norec.loads_per_tx":       "norec_s (drift check)",
	"norec.stores_per_tx":      "norec_s (drift check)",
	"norec.useful_frac":        "norec_s on long-churn",
	"norec.tx_frac":            "norec_s on short-serve",
	"norec.nontx_frac":         "norec_s on short-serve",
	"norec.cm_wait_ms":         "norec_s on long-churn",
	"norec.escalations":        "norec_s on long-churn",
	"norec.alloc_words_per_tx": "norec_s on long-churn",

	"lazy.abort.read-validation":  "lazy_s on long-churn",
	"lazy.abort.stripe-lock-busy": "lazy_s on short-serve",
	"lazy.abort.write-write":      "lazy_s on both workloads",
	"norec.combined_frac":         "norec_s on short-serve",
	"norec.combine_fallbacks":     "norec_s on short-serve",
	"norec.abort.seq-changed":     "norec_s on short-serve",

	"mv.query_aborts":             "query_p50_us and p99_us on short-serve",
	"mv.abort.mv-version-missing": "query_p50_us and p99_us on short-serve",
	"mv.abort.stripe-lock-busy":   "rw_p50_us on both workloads",

	"srv.arena_hw_frac":  "rps and p99_us on long-churn",
	"srv.swaps":          "rps and p99_us on long-churn",
	"srv.swap_pause_ms":  "rps and p99_us on long-churn",
	"srv.submit_p50_us":  "p50_us and rps on both workloads",
	"srv.service_p50_us": "p50_us and rps on both workloads",
	"srv.handoff_p50_us": "p50_us and rps on both workloads",
	"srv.queue_hw":       "p50_us and rps on both workloads",
	"srv.rejected":       "rps on both workloads",

	"apps.make_s":     "setup_s on both workloads",
	"go.gc_cycles":    "peak_rss_mb and p99_us",
	"go.gc_pause_ms":  "peak_rss_mb and p99_us",
	"go.heap_peak_mb": "peak_rss_mb",
}
