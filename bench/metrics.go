package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one number the benchmark prints: its name, unit, and which
// direction is better. Bound (end-to-end metrics only) is the share of
// the parent commit's median by which the metric may worsen before a
// change counts as a regression. BENCHMARK.json repeats these fields;
// TestBenchmarkJSONMatchesCode keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every untraced run of every workload. The bounds are set by the
// run-to-run spread measured on a shared 2-core machine (README.md);
// set-up time gets the largest.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"rss_p50_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics of single layers, printed by every traced
// run. A layer a workload does not exercise reads 0 there. exact marks
// a deterministic count that repeats bit for bit for a given seed: a
// change that claims only speed must leave it alone.
var perLayer = []struct {
	metric
	exact bool
}{
	{metric{"engine.shards_per_job", "count", "lower", 0}, true},
	{metric{"engine.busy_frac", "ratio", "higher", 0}, false},
	{metric{"engine.tail_ms_p50", "ms", "lower", 0}, false},
	{metric{"campaign.trial_us_p50", "us", "lower", 0}, false},
	{metric{"campaign.trial_us_p90", "us", "lower", 0}, false},
	{metric{"campaign.self_share", "ratio", "lower", 0}, false},
	{metric{"scenario.build_us_p50", "us", "lower", 0}, false},
	{metric{"scenario.build_calls_per_job", "count", "lower", 0}, true},
	{metric{"scenario.reset_us_p50", "us", "lower", 0}, false},
	{metric{"scenario.reset_calls_per_job", "count", "lower", 0}, true},
	{metric{"scenario.snapshot_us_p50", "us", "lower", 0}, false},
	{metric{"scenario.verify_us_p50", "us", "lower", 0}, false},
	{metric{"scenario.share", "ratio", "lower", 0}, false},
	{metric{"apps.deploy_us_p50", "us", "lower", 0}, false},
	{metric{"apps.exercise_us_p50", "us", "lower", 0}, false},
	{metric{"apps.share", "ratio", "lower", 0}, false},
	{metric{"core.attack_us_p50.hijack", "us", "lower", 0}, false},
	{metric{"core.attack_us_p50.saddns", "us", "lower", 0}, false},
	{metric{"core.attack_us_p90.saddns", "us", "lower", 0}, false},
	{metric{"core.attack_us_p50.frag", "us", "lower", 0}, false},
	{metric{"core.share", "ratio", "lower", 0}, false},
	{metric{"core.attacker_pkts_per_trial", "count", "lower", 0}, true},
	{metric{"core.iterations_per_trial", "count", "lower", 0}, true},
	{metric{"core.queries_per_trial", "count", "lower", 0}, true},
	{metric{"core.poison_ratio", "ratio", "higher", 0}, true},
	{metric{"sim.virtual_s_per_trial", "s", "lower", 0}, true},
	{metric{"sim.host_us_per_virtual_s", "us/s", "lower", 0}, false},
	{metric{"netsim.delivered_per_trial", "count", "lower", 0}, true},
	{metric{"netsim.dropped_per_trial", "count", "lower", 0}, true},
	{metric{"netsim.icmp_sent_per_trial", "count", "lower", 0}, true},
	{metric{"netsim.icmp_suppressed_per_trial", "count", "lower", 0}, true},
	{metric{"netsim.ns_per_delivery", "ns", "lower", 0}, false},
	{metric{"pool.wire_gets_per_trial", "count", "lower", 0}, true},
	{metric{"pool.wire_hit_ratio", "ratio", "higher", 0}, false},
	{metric{"resolver.upstream_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.accepted_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.spoof_rejected_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.timeouts_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.tcp_fallbacks_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.fwd_forwarded_per_trial", "count", "lower", 0}, true},
	{metric{"resolver.fwd_cache_hits_per_trial", "count", "higher", 0}, true},
	{metric{"measure.resolver_build_us_p50", "us", "lower", 0}, false},
	{metric{"measure.resolver_scan_us_p50", "us", "lower", 0}, false},
	{metric{"measure.domain_build_us_p50", "us", "lower", 0}, false},
	{metric{"measure.domain_scan_us_p50", "us", "lower", 0}, false},
	{metric{"measure.build_share", "ratio", "lower", 0}, false},
	{metric{"measure.scan_us_per_item", "us", "lower", 0}, false},
	{metric{"measure.items_per_job", "count", "higher", 0}, true},
	{metric{"report.json_us_p50", "us", "lower", 0}, false},
	{metric{"report.text_us_p50", "us", "lower", 0}, false},
	{metric{"serve.cache_hit_ratio", "ratio", "higher", 0}, true},
	{metric{"serve.hit_job_ms_p50", "ms", "lower", 0}, false},
	{metric{"serve.cold_job_ms_p50", "ms", "lower", 0}, false},
	{metric{"serve.events_per_job", "count", "lower", 0}, true},
	{metric{"serve.response_kb_per_job", "KB", "lower", 0}, true},
	{metric{"serve.client_decode_us_p50", "us", "lower", 0}, false},
	{metric{"serve.first_line_ms_p50", "ms", "lower", 0}, false},
	{metric{"runtime.alloc_bytes_per_job", "bytes", "lower", 0}, false},
	{metric{"runtime.allocs_per_job", "count", "lower", 0}, false},
	{metric{"runtime.gc_cycles_per_job", "count", "lower", 0}, false},
	{metric{"runtime.gc_cpu_frac", "ratio", "lower", 0}, false},
	{metric{"runtime.heap_peak_mb", "MB", "lower", 0}, false},
	{metric{"bench.trace_overhead_pct", "%", "lower", 0}, false},
	{metric{"bench.gen_late_ms_max", "ms", "lower", 0}, false},
}

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks; 0 for an empty sample. xs is
// not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailSupported reports whether n samples support the q-quantile: a
// percentile is only reported when at least ten samples lie beyond it,
// so p90 needs 100 jobs.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// jobRecord is the client's view of one timed job.
type jobRecord struct {
	latency time.Duration // start (closed loop) or due time (open loop) to result
	items   int           // trials run, or resolvers and domains scanned
	rssMB   float64       // resident set size when the job ended
}

// endToEndValues computes every end-to-end metric but setup_s (which the
// parent process measures) from one timed phase.
func endToEndValues(jobs []jobRecord, wall time.Duration) map[string]float64 {
	var lat, rss []float64
	items := 0
	for _, j := range jobs {
		lat = append(lat, ms(j.latency))
		rss = append(rss, j.rssMB)
		items += j.items
	}
	return map[string]float64{
		"items_per_s": ratio(float64(items), wall.Seconds()),
		"job_p50_ms":  percentile(lat, 0.5),
		"job_p90_ms":  percentile(lat, 0.9),
		"rss_p50_mb":  percentile(rss, 0.5),
	}
}

// rssMB returns the process's current resident set size in MB, or 0
// where /proc is unavailable. The median over job ends is steady from
// run to run; the peak (VmHWM) is not, because it catches whichever
// transient coincidence of heap growth and unreturned pages was largest.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeStats is a reading of the Go runtime counters the runtime.*
// layer metrics are deltas of.
type runtimeStats struct {
	allocBytes, allocs, gcCycles, gcCPU, totalCPU, heapGoal float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/goal:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{v[0], v[1], v[2], v[3], v[4], v[5]}
}

// runtimeAcc sums runtime counter deltas over the calls it observes.
// The CPU split is taken over the whole timed phase instead: the
// runtime refreshes its CPU classes only as garbage collections end, so
// they cannot be attributed to single calls.
type runtimeAcc struct {
	allocBytes, allocs, gcCycles, gcCPU, totalCPU, heapPeak float64
}

func (a *runtimeAcc) add(before, after runtimeStats) {
	a.allocBytes += after.allocBytes - before.allocBytes
	a.allocs += after.allocs - before.allocs
	a.gcCycles += after.gcCycles - before.gcCycles
	a.heapPeak = max(a.heapPeak, after.heapGoal)
}

func (a *runtimeAcc) phase(start, end runtimeStats) {
	a.gcCPU = end.gcCPU - start.gcCPU
	a.totalCPU = end.totalCPU - start.totalCPU
}
