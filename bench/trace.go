package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanKind names a layer boundary the traced run times. Spans are
// recorded by the benchmark around its calls into each layer's public
// functions; nothing inside the program is instrumented.
type spanKind uint8

const (
	kEngine        spanKind = iota // one engine.RunWorkersCtx call
	kShard                         // one engine shard: a campaign cell or a fleet shard
	kTrial                         // one campaign trial
	kBuild                         // scenario.New
	kSnapshot                      // scenario.S.Snapshot
	kReset                         // scenario.S.Reset
	kDeploy                        // apps.Victim.Deploy
	kAttackHijack                  // Method.New + Attack.Run, per method
	kAttackSadDNS                  //
	kAttackFrag                    //
	kVerify                        // scenario.S.ChainPoisoned
	kExercise                      // the victim's exercise function
	kResolverBuild                 // measure.NewResolverFleetShard
	kResolverScan                  // measure.ScanResolverFleet
	kDomainBuild                   // measure.NewDomainFleetShard
	kDomainScan                    // measure.ScanDomainFleet
	kReportJSON                    // report.JSON
	kReportText                    // report.Text
	kServeJob                      // serve request: due time to terminal event
	kServeFirst                    // due time to first NDJSON line
	kServeDecode                   // report.Decode of the terminal event's document
	numKinds
)

var kindNames = [numKinds]string{
	"engine.run", "engine.shard", "campaign.trial",
	"scenario.build", "scenario.snapshot", "scenario.reset", "apps.deploy",
	"core.attack.hijack", "core.attack.saddns", "core.attack.frag",
	"scenario.verify", "apps.exercise",
	"measure.resolver_build", "measure.resolver_scan", "measure.domain_build", "measure.domain_scan",
	"report.json", "report.text",
	"serve.job", "serve.first_line", "serve.decode",
}

// span is one timed call. parent indexes the span that caused it in
// the same slice (-1 for none); buf is the buffer (goroutine) that
// recorded it; times are offsets from the tracer's epoch.
type span struct {
	kind       spanKind
	buf        int32
	parent     int32
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanBuf collects the spans of one goroutine: buffer 0 belongs to the
// job's own goroutine, every other buffer to one engine worker of one
// engine call. A worker's top-level spans hang off root, an index in
// buffer 0.
type spanBuf struct {
	t     *tracer
	root  int32
	spans []span
}

// begin opens a span under parent (an index in this buffer, or -1 for
// the buffer's root) and returns its index.
func (b *spanBuf) begin(k spanKind, parent int32) int32 {
	b.spans = append(b.spans, span{kind: k, parent: parent, start: time.Since(b.t.epoch)})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) { b.spans[i].end = time.Since(b.t.epoch) }

// tracer holds the span buffers of the job being replayed. Buffers are
// appended by engine workers as they start, so that is locked; each
// buffer is then written only by its own goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.bufs = []*spanBuf{{t: t, root: -1}}
	return t
}

// main is buffer 0, the job goroutine's.
func (t *tracer) main() *spanBuf { return t.bufs[0] }

// worker adds the buffer of one engine worker whose shards were caused
// by span root of buffer 0.
func (t *tracer) worker(root int32) *spanBuf {
	b := &spanBuf{t: t, root: root}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// take returns the job's spans as one slice with parents resolved to
// indices in it, and empties the buffers for the next job.
func (t *tracer) take() []span {
	var out []span
	for bi, b := range t.bufs {
		off := int32(len(out))
		for _, s := range b.spans {
			s.buf = int32(bi)
			switch {
			case s.parent >= 0:
				s.parent += off
			case b.root >= 0:
				s.parent = b.root
			}
			out = append(out, s)
		}
	}
	t.bufs = []*spanBuf{{t: t, root: -1}}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap each other (engine workers run in parallel).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int32) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanDump keeps the spans of the first few traced jobs for the span
// file; later jobs only feed the metrics.
type spanDump struct {
	jobs  []int
	spans [][]span
}

// keepSpanJobs bounds the span file: a sweep-reset job alone records
// about ten thousand spans.
const keepSpanJobs = 4

func (d *spanDump) add(job int, spans []span) {
	if len(d.jobs) < keepSpanJobs {
		d.jobs = append(d.jobs, job)
		d.spans = append(d.spans, spans)
	}
}

// write stores the kept spans as JSON lines: job, span id (index within
// the job), name, worker buffer, parent id (-1 for a root), and start
// and end in microseconds since the trace began.
func (d *spanDump) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, job := range d.jobs {
		for id, s := range d.spans[i] {
			if err := enc.Encode(map[string]any{
				"job": job, "id": id, "name": kindNames[s.kind], "worker": s.buf,
				"parent": s.parent, "start_us": us(s.start), "end_us": us(s.end),
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
