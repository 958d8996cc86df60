package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crosslayer/internal/campaign"
	"crosslayer/internal/stats"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// 0: parent [0,100]; 1 and 2 overlap ([10,30] ∪ [20,50] = 40);
	// 3 sticks out of the parent and is clipped to [90,100]; 4 is a
	// grandchild inside 1.
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},
		{parent: 0, start: 90, end: 120},
		{parent: 1, start: 12, end: 15},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 3, 30, 30, 3}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerResolvesParentsAcrossBuffers(t *testing.T) {
	tr := newTracer()
	m := tr.main()
	eng := m.begin(kEngine, -1)
	w := tr.worker(eng)
	sh := w.begin(kShard, -1)
	tri := w.begin(kTrial, sh)
	w.end(tri)
	w.end(sh)
	m.end(eng)
	spans := tr.take()
	want := []struct {
		kind   spanKind
		parent int32
		buf    int32
	}{{kEngine, -1, 0}, {kShard, 0, 1}, {kTrial, 1, 1}}
	if len(spans) != len(want) {
		t.Fatalf("took %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if s := spans[i]; s.kind != w.kind || s.parent != w.parent || s.buf != w.buf {
			t.Errorf("span %d = %v/%d/%d, want %v/%d/%d", i, s.kind, s.parent, s.buf, w.kind, w.parent, w.buf)
		}
	}
	if len(tr.take()) != 0 {
		t.Error("take did not empty the buffers")
	}
}

func TestEngineTail(t *testing.T) {
	spans := []span{
		{kind: kEngine, parent: -1, start: 0, end: 100},
		{kind: kShard, parent: 0, buf: 1, start: 0, end: 40},
		{kind: kShard, parent: 0, buf: 1, start: 40, end: 60},
		{kind: kShard, parent: 0, buf: 2, start: 0, end: 95},
	}
	if got := engineTail(spans, 0, 2); got != 40 {
		t.Errorf("tail = %v, want 40 (worker 1 idle from 60)", got)
	}
	// A third worker that never got a shard is idle from the start.
	if got := engineTail(spans, 0, 3); got != 100 {
		t.Errorf("tail with an idle worker = %v, want 100", got)
	}
}

// firstJobs lists the first n jobs' generated inputs for a stream.
func firstJobs(stream int64, n int, gen func(jobID) any) []any {
	var out []any
	for i := 0; i < n; i++ {
		out = append(out, gen(jobID{stream: stream, index: i, workers: 2}))
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(jobID) any{
		"sweep-reset":   func(id jobID) any { return sweepResetSpec(id) },
		"sweep-flood":   func(id jobID) any { return sweepFloodSpec(id) },
		"measure-fleet": func(id jobID) any { return fleetSpec(id) },
		"serve-overlap": func(id jobID) any { return serveQuery(id) },
	}
	if len(gens) != len(workloadInfos) {
		t.Fatalf("%d generators tested, %d workloads", len(gens), len(workloadInfos))
	}
	timed1, warm1 := streams(1)
	timed2, _ := streams(2)
	if timed1 == warm1 {
		t.Fatal("timed and warm-up streams coincide")
	}
	for name, gen := range gens {
		a := firstJobs(timed1, 10, gen)
		if !reflect.DeepEqual(a, firstJobs(timed1, 10, gen)) {
			t.Errorf("%s: same seed generated different jobs", name)
		}
		if reflect.DeepEqual(a, firstJobs(timed2, 10, gen)) {
			t.Errorf("%s: seeds 1 and 2 generated the same jobs", name)
		}
		if reflect.DeepEqual(a, firstJobs(warm1, 10, gen)) {
			t.Errorf("%s: warm-up jobs repeat the timed jobs", name)
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric         `json:"end_to_end"`
	PerLayer []map[string]any `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestServeHitRatioBand(t *testing.T) {
	timed, _ := streams(1)
	n := serveJobs(time.Duration(readBenchmarkJSON(t).RunSeconds) * time.Second)
	seen := map[string]bool{}
	var hits, total, fullyHit int
	for i := 0; i < n; i++ {
		keys := []string{""}
		for _, axis := range serveWindow(jobID{stream: timed, index: i}) {
			var next []string
			for _, k := range keys {
				for _, v := range axis {
					next = append(next, k+"/"+v)
				}
			}
			keys = next
		}
		h := 0
		for _, k := range keys {
			if seen[k] {
				h++
			}
			seen[k] = true
		}
		hits += h
		total += len(keys)
		if h == len(keys) {
			fullyHit++
		}
		if len(keys) != serveCells() {
			t.Fatalf("job %d plans %d cells, want %d", i, len(keys), serveCells())
		}
	}
	r := float64(hits) / float64(total)
	t.Logf("%d jobs: cache hit ratio %.3f, %d served entirely from cache", n, r, fullyHit)
	if r < 0.4 || r > 0.6 {
		t.Errorf("hit ratio %.3f outside [0.4, 0.6]", r)
	}
	if fullyHit < 10 || n-fullyHit < 10 {
		t.Errorf("%d of %d jobs fully cached: need ten on each side for the serve.*_job_ms_p50 metrics", fullyHit, n)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %q, want %q", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %q, want %q", b.Paths, want)
	}
	var workloads []workloadInfo
	for _, w := range b.Workloads {
		workloads = append(workloads, workloadInfo{w.Name, w.Why})
	}
	if !reflect.DeepEqual(workloads, workloadInfos) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\ncode           %q", workloads, workloadInfos)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differ:\nBENCHMARK.json %v\ncode           %v", b.EndToEnd, endToEnd)
	}
	var layers []metric
	for _, m := range b.PerLayer {
		if len(m) != 3 {
			t.Errorf("per_layer entry %v: want exactly name, unit and better", m)
		}
		name, _ := m["name"].(string)
		unit, _ := m["unit"].(string)
		better, _ := m["better"].(string)
		layers = append(layers, metric{Name: name, Unit: unit, Better: better})
	}
	var code []metric
	for _, m := range perLayer {
		code = append(code, m.metric)
	}
	if !reflect.DeepEqual(layers, code) {
		t.Errorf("per_layer differ:\nBENCHMARK.json %v\ncode           %v", layers, code)
	}

	// What the binary prints: every end-to-end metric (setup_s comes
	// from the parent) and every per-layer metric, and nothing else.
	printed := endToEndValues(nil, time.Second)
	printed["setup_s"] = 1
	if got, want := sortedKeys(printed), names(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced run prints %v, BENCHMARK.json names %v", got, want)
	}
	if got, want := sortedKeys((&layerAcc{}).values()), names(code); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run prints %v, BENCHMARK.json names %v", got, want)
	}
}

func sortedKeys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func TestChecksRejectWrongOutcomes(t *testing.T) {
	hits := func(h, n int) stats.Counter { return stats.Counter{Hits: h, Total: n} }
	bad := []struct {
		check func(campaign.CellResult) error
		cell  campaign.CellResult
	}{
		{checkSweepReset, campaign.CellResult{Method: "hijack", Defense: "none", Deployment: "canonical", Poisoned: hits(3, 4)}},
		{checkSweepReset, campaign.CellResult{Method: "hijack", Defense: "dnssec", Deployment: "canonical", Poisoned: hits(1, 4)}},
		{checkSweepFlood, campaign.CellResult{Method: "frag", Profile: "dnsmasq", Defense: "none", Poisoned: hits(1, 2)}},
	}
	for i, c := range bad {
		if c.check(c.cell) == nil {
			t.Errorf("case %d: %+v passed its check", i, c.cell)
		}
	}
	if err := checkSweepReset(campaign.CellResult{Defense: "0x20", Deployment: "measured", Poisoned: hits(1, 4)}); err != nil {
		t.Errorf("sampled deployment cell checked: %v", err)
	}
	for _, rates := range []map[string]stats.Counter{
		{"depth 0": hits(30, 200), "depth 1": hits(180, 200)},
		{"depth 0": hits(1, 200), "depth 1": hits(60, 200)},
		{"depth 1": hits(180, 200)},
	} {
		if checkFloodRates(rates) == nil {
			t.Errorf("flood rates %v passed", rates)
		}
	}
	if err := checkFloodRates(map[string]stats.Counter{"depth 0": hits(1, 200), "depth 1": hits(190, 200)}); err != nil {
		t.Error(err)
	}
}

// TestReplayMatchesReal runs one job of each replayed workload and
// replays it twice. A replay fails unless it reproduces the real
// result, and the exact counters must come out the same both times.
func TestReplayMatchesReal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full jobs")
	}
	ctx := context.Background()
	timed, _ := streams(1)
	for _, name := range []string{"sweep-reset", "sweep-flood", "measure-fleet"} {
		l := closedLoads[name]
		id := jobID{stream: timed, index: 0, workers: 2}
		real, err := l.run(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var vals [2]map[string]float64
		for k := range vals {
			var c counts
			tr := newTracer()
			if err := l.replay(ctx, id, real, tr, &c); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if c.items != real.items {
				t.Errorf("%s: replay counted %d items, the real job %d", name, c.items, real.items)
			}
			acc := &layerAcc{workers: 2}
			acc.endJob(tr.take(), c)
			vals[k] = acc.values()
		}
		if vals[0]["engine.shards_per_job"] == 0 {
			t.Errorf("%s: replay recorded no shards", name)
		}
		for _, m := range perLayer {
			if a, b := vals[0][m.Name], vals[1][m.Name]; m.exact && a != b {
				t.Errorf("%s: exact %s read %v, then %v", name, m.Name, a, b)
			}
		}
	}
}
