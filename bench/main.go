// Command xlbench is the repository's benchmark. It drives the
// simulator only through the entry points real callers use —
// campaign.RunContext, report.Run and HTTP against an in-process
// serve.Server — on one of four workloads whose jobs it generates from
// a seed, checks every job's output, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 112, "failed": 0, "metrics": {"job_p50_ms": {"value": 141.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (bench/run.sh builds it first):
//
//	xlbench --workload sweep-reset --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-runs each job through a replay that times every layer boundary
// and reports the per-layer metrics instead. See README.md.
//
// Each set-up runs in a fresh child process of this binary, so memory
// and Go runtime state belong to one workload and set-up time includes
// process start: the parent starts setupSamples children, the last of
// which goes on to measure, and reports the median set-up time.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	child    string
}

// setupSamples is how many times a run sets its workload up, each in a
// fresh child process; setup_s is the median.
const setupSamples = 5

// warmupJobs run during set-up, from the warm-up stream, so caches,
// pools and lazily built state are warm before timing starts.
const warmupJobs = 2

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("xlbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's jobs are generated from")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed phase, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced replay of every job")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans/WORKLOAD-seedN.jsonl)")
	fs.StringVar(&o.child, "child", "", "internal: run as a set-up or measuring child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !isWorkload(o.workload) || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "xlbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
	}
	if o.child != "" {
		if err := runChild(o); err != nil {
			fmt.Fprintf(os.Stderr, "xlbench: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	if err := runParent(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xlbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	return keysOf(workloadInfos, func(w workloadInfo) string { return w.name })
}

func isWorkload(name string) bool {
	for _, n := range workloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

// childResult is what the measuring child hands its parent.
type childResult struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	Failures   []string           `json:"failures"`
	Digest     string             `json:"digest"`
	DigestJobs int                `json:"digest_jobs"`
	Workers    int                `json:"workers"`
	Metrics    map[string]float64 `json:"metrics"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(o options, stdout io.Writer) error {
	n := setupSamples
	if o.trace == 1 {
		n = 1
	}
	var setups []float64
	var res childResult
	for k := 0; k < n; k++ {
		mode := "setup"
		if k == n-1 {
			mode = "measure"
		}
		setup, r, err := spawn(o, mode)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		res = r
	}
	specs := endToEnd
	if o.trace == 1 {
		specs = nil
		for _, m := range perLayer {
			specs = append(specs, m.metric)
		}
	} else {
		res.Metrics["setup_s"] = percentile(setups, 0.5)
	}
	out := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  trace %d  workers %d\n",
		o.workload, o.seed, o.seconds, o.trace, res.Workers)
	fmt.Fprintf(stdout, "jobs %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "  failure: %s\n", f)
	}
	fmt.Fprintf(stdout, "result_digest %s (first %d jobs)\n", res.Digest, res.DigestJobs)
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// childGrace is how long a child may run beyond its timed phase (set-up,
// warm-up, the last job, span output) before the parent kills it.
const childGrace = 120 * time.Second

// spawn runs one child process and returns its set-up time — from
// process start to its "ready" line — and, for a measuring child, its
// result.
func spawn(o options, mode string) (time.Duration, childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return 0, res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+childGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-spans", o.spans)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, res, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, res, err
	}
	var setup time.Duration
	var got bool
	var resErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" {
			setup = time.Since(start)
		} else if js, ok := strings.CutPrefix(line, "result "); ok {
			resErr = json.Unmarshal([]byte(js), &res)
			got = true
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, pipe) // let the child finish writing before Wait closes the pipe
	}
	if err := cmd.Wait(); err != nil {
		return 0, res, fmt.Errorf("%s child: %w", mode, err)
	}
	switch {
	case scanErr != nil:
		return 0, res, scanErr
	case resErr != nil:
		return 0, res, fmt.Errorf("child result: %w", resErr)
	case setup == 0:
		return 0, res, fmt.Errorf("%s child never became ready", mode)
	case mode == "measure" && !got:
		return 0, res, errors.New("measuring child printed no result")
	}
	return setup, res, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	jobs     []jobRecord
	wall     time.Duration
	failed   int
	failures []string
	broken   bool // a run-level check failed
	docs     [][]byte
}

// maxFailures bounds how many failure messages a run reports.
const maxFailures = 5

func (p *phase) record(j jobRecord, doc []byte, err error) {
	i := len(p.jobs)
	p.jobs = append(p.jobs, j)
	if err != nil {
		p.failed++
		p.fail(fmt.Errorf("job %d: %w", i, err))
	}
	if i < exactJobs {
		p.docs = append(p.docs, doc)
	}
}

func (p *phase) fail(err error) {
	p.broken = true
	if len(p.failures) < maxFailures {
		p.failures = append(p.failures, err.Error())
	}
}

// digest is sha256 over the report documents of the first exactJobs
// jobs, in job order. A change that only makes the program faster must
// leave it unchanged.
func (p *phase) digest() string {
	h := sha256.New()
	for _, d := range p.docs {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runChild sets the workload up, reports "ready", and — as the
// measuring child — runs the timed phase and prints its result.
func runChild(o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+childGrace)
	defer cancel()
	workers := runtime.GOMAXPROCS(0)
	var acc *layerAcc
	if o.trace == 1 {
		acc = &layerAcc{workers: workers}
	}
	var p phase
	var err error
	if l, ok := closedLoads[o.workload]; ok {
		p, err = runClosed(ctx, o, l, workers, acc)
	} else {
		p, err = runServe(ctx, o, workers, acc)
	}
	if err != nil || o.child == "setup" {
		return err
	}

	res := childResult{
		Attempted: len(p.jobs), Failed: p.failed, Failures: p.failures,
		Correct: !p.broken && len(p.jobs) > 0, Digest: p.digest(), DigestJobs: len(p.docs),
		Workers: workers,
	}
	if acc != nil {
		res.Metrics = acc.values()
	} else {
		res.Metrics = endToEndValues(p.jobs, p.wall)
		if !tailSupported(len(p.jobs), 0.9) {
			fmt.Fprintf(os.Stderr, "xlbench: %d jobs do not support p90 (10 samples beyond it need 100)\n", len(p.jobs))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("result %s\n", line)
	return nil
}

// runClosed sets a closed-loop workload up and, as the measuring child,
// runs its timed phase.
func runClosed(ctx context.Context, o options, l closedLoad, workers int, acc *layerAcc) (phase, error) {
	timed, warm := streams(o.seed)
	for i := 0; i < warmupJobs; i++ {
		if _, err := l.run(ctx, jobID{stream: warm, index: i, workers: workers}); err != nil {
			return phase{}, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	fmt.Println("ready")
	if o.child == "setup" {
		return phase{}, nil
	}
	var dump spanDump
	p := closedPhase(ctx, l, timed, workers, time.Duration(o.seconds)*time.Second, acc, &dump)
	if acc == nil {
		return p, nil
	}
	return p, dump.write(o.spans)
}

// runServe starts the server, sets serve-overlap up and, as the
// measuring child, runs its timed phase; the server is shut down before
// it returns.
func runServe(ctx context.Context, o options, workers int, acc *layerAcc) (p phase, err error) {
	l, err := startServe()
	if err != nil {
		return p, err
	}
	defer func() {
		if cerr := l.close(); err == nil {
			err = cerr
		}
	}()
	timed, warm := streams(o.seed)
	for i := 0; i < warmupJobs; i++ {
		out, err := l.request(ctx, serveQuery(jobID{stream: warm, index: i, workers: workers}), time.Now())
		if err == nil {
			err = checkServe(out)
		}
		if err != nil {
			return p, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	fmt.Println("ready")
	if o.child == "setup" {
		return p, nil
	}
	return servePhase(ctx, l, timed, workers, time.Duration(o.seconds)*time.Second, acc), nil
}

// closedPhase runs jobs back to back until d has passed. Traced, it
// follows each job with its replay and folds the spans into acc.
func closedPhase(ctx context.Context, l closedLoad, stream int64, workers int, d time.Duration, acc *layerAcc, dump *spanDump) phase {
	var p phase
	var tr *tracer
	if acc != nil {
		tr = newTracer()
	}
	tally := map[string]stats.Counter{}
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		id := jobID{stream: stream, index: i, workers: workers}
		var before runtimeStats
		if acc != nil {
			before = readRuntime()
		}
		t0 := time.Now()
		out, err := l.run(ctx, id)
		lat := time.Since(t0)
		if acc != nil && err == nil {
			acc.rt.add(before, readRuntime())
			err = traceJob(ctx, l, id, out, tr, acc, dump)
		}
		p.record(jobRecord{latency: lat, items: out.items, rssMB: rssMB()}, out.doc, err)
		if err == nil && l.family != nil {
			for _, c := range out.cells {
				if k := l.family(c); k != "" {
					tally[k] = tally[k].Plus(c.Poisoned)
				}
			}
		}
	}
	p.wall = time.Since(start)
	if l.rates != nil {
		if err := l.rates(tally); err != nil {
			p.fail(err)
		}
	}
	if acc != nil {
		acc.rt.phase(rt0, readRuntime())
	}
	return p
}

// traceJob replays one job under the tracer, times the report layer on
// the job's report, and folds the job into acc.
func traceJob(ctx context.Context, l closedLoad, id jobID, out jobOut, tr *tracer, acc *layerAcc, dump *spanDump) error {
	var c counts
	t0 := time.Now()
	err := l.replay(ctx, id, out, tr, &c)
	acc.replayWall += time.Since(t0)
	acc.realWall += out.call
	timeReport(tr.main(), out.rep)
	spans := tr.take()
	acc.endJob(spans, c)
	dump.add(id.index, spans)
	return err
}

// timeReport times the two renderers on a job's report.
func timeReport(b *spanBuf, rep *report.Report) {
	k := b.begin(kReportJSON, -1)
	_, _ = report.JSON(rep) // already rendered once by the job, without error
	b.end(k)
	k = b.begin(kReportText, -1)
	_ = report.Text(rep)
	b.end(k)
}

// servePhase runs the open loop and checks the server's cache counters
// against the jobs' own. Traced, it builds the client-side spans.
func servePhase(ctx context.Context, l *serveLoad, stream int64, workers int, d time.Duration, acc *layerAcc) phase {
	var p phase
	before, err := l.cacheStats(ctx)
	if err != nil {
		p.fail(fmt.Errorf("GET /cache: %w", err))
		return p
	}
	rt0 := readRuntime()
	outs, errs, wall, late := l.openLoop(ctx, stream, workers, serveJobs(d))
	rt1 := readRuntime()
	p.wall = wall
	var hits, misses uint64
	for i, o := range outs {
		p.record(jobRecord{latency: o.end, items: serveCells() * serveTrials, rssMB: o.rssMB}, o.doc, errs[i])
		hits += o.hits
		misses += o.misses
	}
	after, err := l.cacheStats(ctx)
	switch {
	case err != nil:
		p.fail(fmt.Errorf("GET /cache: %w", err))
	case after.Hits-before.Hits != hits || after.Misses-before.Misses != misses:
		p.fail(fmt.Errorf("GET /cache moved by %d hits, %d misses; the jobs reported %d, %d",
			after.Hits-before.Hits, after.Misses-before.Misses, hits, misses))
	}
	if acc != nil {
		foldServe(acc, outs, errs, late, rt0, rt1)
	}
	return p
}

// foldServe turns the open loop's client-side timings into spans and
// serve-layer metrics. Runtime counters cover the whole phase, server
// included.
func foldServe(acc *layerAcc, outs []serveOut, errs []error, late time.Duration, rt0, rt1 runtimeStats) {
	acc.genLate = late
	acc.rt.add(rt0, rt1)
	acc.rt.phase(rt0, rt1)
	tr := newTracer()
	for i, o := range outs {
		if errs[i] != nil {
			continue
		}
		m := tr.main()
		m.spans = append(m.spans, // times count from the job's due time
			span{kind: kServeJob, parent: -1, start: 0, end: o.end + o.decode},
			span{kind: kServeFirst, parent: 0, start: 0, end: o.first},
			span{kind: kServeDecode, parent: 0, start: o.end, end: o.end + o.decode})
		timeReport(m, o.rep)
		acc.endJob(tr.take(), counts{})
		acc.cacheHits += o.hits
		acc.cacheMis += o.misses
		acc.events += o.events
		acc.respBytes += o.bytes
		if o.misses == 0 {
			acc.hitMs = append(acc.hitMs, ms(o.end))
		} else {
			acc.coldMs = append(acc.coldMs, ms(o.end))
		}
	}
}
