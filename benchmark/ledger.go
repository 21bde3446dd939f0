package main

import (
	"runtime"

	strip "github.com/stripdb/strip"
)

// Counters is the engine's public counter state at one instant.
type Counters struct {
	M          strip.Metrics
	Shards     []int64
	Comps      strip.ActionStats
	Opts       strip.ActionStats
	TotalAlloc uint64
	Meter      float64 // virtual cost-model µs
}

// readCounters snapshots db.Metrics() and the other public counters.
func readCounters(r *Rig) Counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return Counters{
		M:          r.DB.Metrics(),
		Shards:     r.DB.LockShardLoads(),
		Comps:      r.DB.Stats(r.FnComps),
		Opts:       r.DB.Stats(r.FnOpts),
		TotalAlloc: mem.TotalAlloc,
		Meter:      r.DB.Meter(),
	}
}

// Delta is the difference between two counter snapshots.
type Delta struct{ a, b Counters }

func (d Delta) counter(name string) float64 {
	return float64(d.b.M.Counters[name] - d.a.M.Counters[name])
}

// hist returns the count and sum of a histogram's samples in the window.
func (d Delta) hist(name string) (n, sum float64) {
	x, y := d.a.M.Histograms[name], d.b.M.Histograms[name]
	return float64(y.Count - x.Count), float64(y.Sum - x.Sum)
}

func (d Delta) histMean(name string) float64 {
	n, sum := d.hist(name)
	return ratio(sum, n)
}

// hotShardShare is max ÷ sum of per-shard lock acquires in the window.
func (d Delta) hotShardShare() float64 {
	var maxv, sum int64
	for i := range d.b.Shards {
		v := d.b.Shards[i]
		if i < len(d.a.Shards) {
			v -= d.a.Shards[i]
		}
		sum += v
		maxv = max(maxv, v)
	}
	return ratio(float64(maxv), float64(sum))
}

// mergeRatio is tasks merged over firings that made or joined a task.
func mergeRatio(a, b strip.ActionStats) float64 {
	merged := float64(b.TasksMerged - a.TasksMerged)
	created := float64(b.TasksCreated - a.TasksCreated)
	return ratio(merged, created+merged)
}

func (d Delta) tasks() (run, errs float64) {
	run = float64(d.b.Comps.TasksRun - d.a.Comps.TasksRun + d.b.Opts.TasksRun - d.a.Opts.TasksRun)
	errs = float64(d.b.Comps.TaskErrors - d.a.Comps.TaskErrors + d.b.Opts.TaskErrors - d.a.Opts.TaskErrors)
	return run, errs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics is a named set of reported figures.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

// layerCounters fills the counter-based per-layer metrics for the window
// d; ops is the number of attempted operations.
func layerCounters(m Metrics, d Delta, ops float64) {
	m.set("server.busy_rejected", "count", d.counter("server.busy_rejected"))
	hits, builds := d.counter("query.plan_hits"), d.counter("query.plan_builds")
	m.set("query.plan_hit_ratio", "ratio", ratio(hits, hits+builds))
	gcRuns := d.counter("mvcc.gc_runs")
	m.set("mvcc.gc_runs", "count", gcRuns)
	m.set("mvcc.gc_dropped_per_run", "count", ratio(d.counter("mvcc.gc_dropped"), gcRuns))
	m.set("lock.waits", "count", d.counter("lock.waits"))
	m.set("lock.wait_ms", "ms", d.counter("lock.wait_micros")/1e3)
	m.set("lock.hot_shard_share", "ratio", d.hotShardShare())
	m.set("core.merge_ratio_comps", "ratio", mergeRatio(d.a.Comps, d.b.Comps))
	m.set("core.merge_ratio_options", "ratio", mergeRatio(d.a.Opts, d.b.Opts))
	run, _ := d.tasks()
	m.set("pta.nr", "count", run)
	m.set("go.alloc_bytes_per_op", "B", ratio(float64(d.b.TotalAlloc-d.a.TotalAlloc), ops))
}

// layerNames is every per-layer metric, so each traced run reports the
// same set; a layer a workload does not exercise reports 0.
var layerNames = []struct{ name, unit string }{
	{"server.ping_rtt_us", "us"}, {"server.overhead_us", "us"}, {"server.busy_rejected", "count"},
	{"sqlparse.parse_point_us", "us"}, {"sqlparse.parse_update_us", "us"}, {"sqlparse.parse_scan_us", "us"},
	{"query.plan_hit_ratio", "ratio"}, {"query.plan_us", "us"}, {"query.probe_us", "us"},
	{"query.scan_ns_per_row", "ns"}, {"query.groupby_ns_per_row", "ns"},
	{"txn.update_us", "us"}, {"txn.commit_us", "us"}, {"txn.commit_gc_us", "us"},
	{"mvcc.gc_runs", "count"}, {"mvcc.gc_dropped_per_run", "count"}, {"mvcc.versions_retained", "count"},
	{"lock.waits", "count"}, {"lock.wait_ms", "ms"}, {"lock.hot_shard_share", "ratio"},
	{"core.run_ready_us", "us"}, {"core.merge_ratio_comps", "ratio"}, {"core.merge_ratio_options", "ratio"},
	{"core.work_us_per_task", "us"}, {"core.work_us_per_task_virtual", "us"},
	{"core.staleness_p50_ms", "ms"}, {"core.staleness_p99_ms", "ms"},
	{"core.staleness_p50_ms_virtual", "ms"}, {"core.staleness_p99_ms_virtual", "ms"},
	{"pta.nr", "count"}, {"pta.util_pct_virtual", "%"},
	{"sched.queue_us_per_task", "us"}, {"sched.queue_us_per_task_virtual", "us"}, {"sched.ready_max", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"bench.trace_overhead_pct", "%"}, {"bench.fresh_unsampled", "count"}, {"bench.point_p99_ms", "ms"},
	{"self.bench_us_per_op", "us"}, {"self.server_us_per_op", "us"}, {"self.query_us_per_op", "us"},
	{"self.txn_us_per_op", "us"}, {"self.core_us_per_op", "us"},
}

// staleness fills the engine-side staleness and queueing figures. On the
// virtual clock they are virtual time and carry the _virtual suffix.
func staleness(m Metrics, r *Rig, d Delta, virtual bool) {
	suffix := ""
	if virtual {
		suffix = "_virtual"
	}
	var p50, p99 float64
	for _, fn := range []string{r.FnComps, r.FnOpts} {
		st := r.DB.Staleness(fn)
		p50, p99 = max(p50, float64(st.P50)/1e3), max(p99, float64(st.P99)/1e3)
	}
	m.set("core.staleness_p50_ms"+suffix, "ms", p50)
	m.set("core.staleness_p99_ms"+suffix, "ms", p99)
	run, _ := d.tasks()
	queue := float64(d.b.Comps.QueueMicros - d.a.Comps.QueueMicros + d.b.Opts.QueueMicros - d.a.Opts.QueueMicros)
	m.set("sched.queue_us_per_task"+suffix, "us", ratio(queue, run))
	if virtual {
		work := d.b.Comps.WorkMicros - d.a.Comps.WorkMicros + d.b.Opts.WorkMicros - d.a.Opts.WorkMicros
		m.set("core.work_us_per_task_virtual", "us", ratio(work, run))
	} else {
		m.set("core.work_us_per_task", "us", d.histMean("sched.run_micros"))
	}
}

// selfTimes reports each layer's self time per operation from the spans.
func selfTimes(m Metrics, spans []Span, ops float64) {
	self := SelfTimes(spans)
	for _, l := range []string{"bench", "server", "query", "txn", "core"} {
		m.set("self."+l+"_us_per_op", "us", ratio(us(self[l]), ops))
	}
}
