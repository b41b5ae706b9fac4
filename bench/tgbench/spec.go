package main

import "strings"

// metricDef is one metric tgbench prints: its name and unit. BENCHMARK.json
// at the repository root lists the same names with their direction and, for
// end-to-end metrics, their regression bound; the schema test keeps the two
// in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run of every workload. An "op" is one simulated run (quarter,
// conservative-faults), one fleet replication (fleet-quick) or one pushed
// run from dial to final ack (obsd-ingest); an "item" is one kernel event,
// or one accounting record on obsd-ingest.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"alloc_bytes_per_item", "B"},
	{"retained_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs. Times
// are given as shares of the traced ops' wall time (frac), so a layer that a
// workload never enters reads 0 rather than a time.
var perLayer = []metricDef{
	{"metasched.submits", "count"},
	{"metasched.self_frac", "frac"},
	{"metasched.queue_depth_mean", "jobs"},
	{"metasched.routed", "count"},
	{"metasched.coallocs", "count"},
	{"metasched.failovers", "count"},
	{"metasched.alloc_bytes", "B"},
	{"sched.events", "count"},
	{"sched.self_frac", "frac"},
	{"sched.started", "count"},
	{"sched.preemptions", "count"},
	{"sched.crash_kills", "count"},
	{"sched.backfills", "count"},
	{"sched.alloc_bytes", "B"},
	{"faults.events", "count"},
	{"faults.self_frac", "frac"},
	{"faults.requeues", "count"},
	{"faults.give_ups", "count"},
	{"workload.arrivals", "count"},
	{"workload.self_frac", "frac"},
	{"workload.alloc_bytes", "B"},
	{"des.events", "count"},
	{"des.peak_fel", "count"},
	{"des.fel_frac", "frac"},
	{"accounting.flushes", "count"},
	{"accounting.self_frac", "frac"},
	{"accounting.records", "count"},
	{"accounting.alloc_bytes", "B"},
	{"network.transfers", "count"},
	{"network.self_frac", "frac"},
	{"stream.offer_frac", "frac"},
	{"stream.records", "count"},
	{"stream.dropped", "count"},
	{"stream.finalize_frac", "frac"},
	{"core.classify_frac", "frac"},
	{"core.report_frac", "frac"},
	{"core.records", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_frac", "frac"},
	{"fleet.worker_busy_frac", "frac"},
	{"fleet.failed", "count"},
	{"observatory.send_frac", "frac"},
	{"observatory.finish_frac", "frac"},
	{"observatory.frames", "count"},
	{"observatory.bytes", "B"},
	{"observatory.reconnects", "count"},
	{"observatory.replayed", "count"},
	{"observatory.wal_bytes", "B"},
	{"trace.overhead_frac", "frac"},
}

// workloadNames lists the workloads in the order run.sh passes them.
var workloadNames = []string{"quarter", "conservative-faults", "fleet-quick", "obsd-ingest"}

// moves records, before any measurement, which end-to-end metrics a layer's
// numbers should move and on which workloads. A per-layer metric's layer is
// the part of its name before the first dot.
type moves struct {
	Metrics   []string `json:"metrics"`
	Workloads []string `json:"workloads"`
}

var layerMoves = map[string]moves{
	"metasched":   {[]string{"op_p50_ms"}, []string{"quarter"}},
	"sched":       {[]string{"items_per_s"}, []string{"conservative-faults"}},
	"faults":      {[]string{"items_per_s"}, []string{"conservative-faults"}},
	"workload":    {[]string{"items_per_s"}, []string{"conservative-faults", "fleet-quick"}},
	"des":         {[]string{"items_per_s", "alloc_bytes_per_item"}, []string{"fleet-quick"}},
	"accounting":  {[]string{"items_per_s", "alloc_bytes_per_item"}, []string{"fleet-quick"}},
	"runtime":     {[]string{"items_per_s", "alloc_bytes_per_item"}, []string{"fleet-quick"}},
	"fleet":       {[]string{"items_per_s", "op_p50_ms"}, []string{"fleet-quick"}},
	"network":     {[]string{"op_p50_ms"}, []string{"quarter"}},
	"stream":      {[]string{"op_p50_ms"}, []string{"quarter"}},
	"core":        {[]string{"op_p50_ms"}, []string{"quarter"}},
	"observatory": {[]string{"items_per_s", "op_p95_ms"}, []string{"obsd-ingest"}},
	"trace":       {[]string{"items_per_s"}, workloadNames},
}

// layerOfMetric returns the layer a per-layer metric belongs to.
func layerOfMetric(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// anchor is a simulated run's determinism fingerprint: kernel events, jobs
// in the central accounting database, and total NUs rounded to a whole NU.
// Any change that is meant only to speed the simulator up must leave these
// exactly as they are.
type anchor struct {
	events uint64
	jobs   int
	nus    int64
}

// anchors are keyed by scenario family and scenario seed; a run whose
// (family, seed) is listed here must reproduce it exactly, traced or not.
// The quarter and quick seed-7 values are the repository's long-standing
// anchors; the rest were recorded from the first run of this benchmark.
var anchors = map[string]map[uint64]anchor{
	familyQuarter:         {7: {254275, 91908, 263778435}},
	familyConsFaults:      {7: {243355, 86364, 246780072}},
	familyConsFaultsSmoke: {7: {38816, 14062, 32959171}},
	familyQuick: {
		1: {14364, 5159, 10996944}, 2: {13916, 4878, 18220931},
		3: {13981, 4967, 16437971}, 4: {14322, 5088, 7451142},
		5: {13953, 4899, 17867665}, 6: {14657, 5225, 24749593},
		7: {14210, 5129, 21020939}, 8: {14204, 5067, 5268426},
		9: {13960, 4983, 18190087}, 10: {14070, 5040, 16812777},
		11: {14219, 5016, 9430275}, 12: {14364, 5157, 18913821},
		13: {14246, 5112, 11001845}, 14: {14004, 4933, 11138102},
		15: {14455, 5176, 10859899}, 16: {14319, 5080, 5472824},
	},
}
