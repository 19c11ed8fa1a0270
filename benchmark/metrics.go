package main

// metric declares one reported number. BENCHMARK.json at the repository
// root declares the same set; TestMetricsMatchBenchmarkJSON keeps the two
// equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics come from untraced runs (--trace 0). Bound is the share
// of the parent's median by which a metric may worsen before a change
// counts as a regression.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer metrics come from traced runs (--trace 1).
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{Name: l + ".cpu_s", Unit: "s", Better: "lower"})
	}
	return append(ms,
		metric{Name: "profile.cpu_s", Unit: "s", Better: "lower"},
		metric{Name: "runtime.alloc_bytes", Unit: "bytes", Better: "lower"},
		metric{Name: "runtime.alloc_objects", Unit: "count", Better: "lower"},
		metric{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metric{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		metric{Name: "cache.misses", Unit: "count", Better: "lower"},
		metric{Name: "cache.bytes_written", Unit: "bytes", Better: "lower"},
		metric{Name: "cache.hits", Unit: "count", Better: "higher"},
		metric{Name: "cache.warm_hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "cache.warm_s", Unit: "s", Better: "lower"},
		metric{Name: "tcp.retransmits", Unit: "count", Better: "lower"},
		metric{Name: "sim.simulated_s", Unit: "s", Better: "lower"},
		metric{Name: "testbed.flows", Unit: "count", Better: "higher"},
		metric{Name: "testbed.deferred", Unit: "count", Better: "lower"},
		metric{Name: "plot.render_s", Unit: "s", Better: "lower"},
		metric{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	)
}()
