package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"crosslayer/internal/engine"
	"crosslayer/internal/report"
	"crosslayer/internal/serve"
)

// serveInterval is the open loop's fixed send interval: about twice the
// mean service time of a serve-overlap job at the commit that defined
// the benchmark (README.md), so the server runs near 50% utilisation.
// It is a constant on purpose: deriving it at run time would let a
// slower program lower its own load.
const serveInterval = 50 * time.Millisecond

// serveConns bounds the client's concurrent connections.
const serveConns = 2

// serveAxes are the sweep axes a serve-overlap job draws its window
// from: registry keys per axis, and how many consecutive keys (cycling)
// one job takes. The window sizes and the axis lengths set how much
// consecutive jobs overlap, and so the cell-cache hit ratio of a run
// (TestServeHitRatioBand).
var serveAxes = []struct {
	param  string
	keys   []string
	window int
}{
	{"methods", []string{"hijack", "frag"}, 1},
	{"victims", victimKeys, 2},
	{"profiles", profileKeys, 2},
	{"defense-sets", []string{"none", "dnssec", "0x20", "no-rrl", "shuffle"}, 2},
	{"chain-depths", []string{"0", "1", "2", "3"}, 2},
	{"placement", []string{"stub", "carrier"}, 2},
	{"transports", []string{"udp", "tcp", "dot", "mixed", "opp"}, 2},
}

// serveTrials is the per-cell trial count of every serve-overlap job.
const serveTrials = 2

// serveRepeat is the share of jobs that re-send an earlier job's sweep
// unchanged, as researchers re-running a popular sweep do; these are
// the jobs the cache serves entirely. The rest draw a fresh window.
const serveRepeat = 0.25

// serveWindow returns job id's window: the chosen keys per axis, in
// serveAxes order. All jobs of a stream share one campaign seed (the
// stream), so their windows overlap in the server's cell cache.
func serveWindow(id jobID) [][]string {
	rng := rand.New(rand.NewPCG(uint64(engine.DeriveSeed(id.stream, id.index)), 0))
	for id.index > 0 && rng.Float64() < serveRepeat {
		id.index = rng.IntN(id.index)
		rng = rand.New(rand.NewPCG(uint64(engine.DeriveSeed(id.stream, id.index)), 0))
	}
	out := make([][]string, len(serveAxes))
	for i, ax := range serveAxes {
		off := rng.IntN(len(ax.keys))
		for k := 0; k < ax.window; k++ {
			out[i] = append(out[i], ax.keys[(off+k)%len(ax.keys)])
		}
	}
	return out
}

// serveCells is the cell count of every serve-overlap job.
func serveCells() int {
	n := 1
	for _, ax := range serveAxes {
		n *= ax.window
	}
	return n
}

// serveQuery is the /run/campaign query for job id.
func serveQuery(id jobID) string {
	q := url.Values{}
	q.Set("seed", strconv.FormatInt(id.stream, 10))
	q.Set("trials", strconv.Itoa(serveTrials))
	q.Set("parallel", strconv.Itoa(id.workers))
	for i, keys := range serveWindow(id) {
		q.Set(serveAxes[i].param, strings.Join(keys, ","))
	}
	return q.Encode()
}

// serveJobs is how many jobs an open-loop run of d sends.
func serveJobs(d time.Duration) int {
	return int((d + serveInterval - 1) / serveInterval)
}

// serveLoad is a resident serve.Server on a loopback port and the
// client that drives it.
type serveLoad struct {
	srv    *serve.Server
	stop   context.CancelFunc
	done   chan error
	client *http.Client
	base   string
}

func startServe() (*serveLoad, error) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &serveLoad{srv: serve.New(serve.Config{}), stop: cancel, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Run(ctx) }()
	select {
	case <-l.srv.Ready():
	case err := <-l.done:
		cancel()
		return nil, fmt.Errorf("serve: %w", err)
	}
	l.base = "http://" + l.srv.Addr()
	l.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	return l, nil
}

// close shuts the server down and waits for it.
func (l *serveLoad) close() error {
	l.stop()
	err := <-l.done
	l.client.CloseIdleConnections()
	return err
}

// cacheStats reads GET /cache.
func (l *serveLoad) cacheStats(ctx context.Context) (serve.CacheStats, error) {
	var st serve.CacheStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/cache", nil)
	if err != nil {
		return st, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveOut is the client's view of one /run response. Times count from
// the job's due time.
type serveOut struct {
	first, end   time.Duration
	decode       time.Duration
	events       int
	bytes        int
	hits, misses uint64
	rssMB        float64 // the process's resident set size when the job ended
	rep          *report.Report
	doc          []byte
}

// terminalEvent is the part of the NDJSON protocol the client decodes:
// the one "report" or "error" event that ends a stream.
type terminalEvent struct {
	Event       string          `json:"event"`
	CacheHits   *uint64         `json:"cache_hits"`
	CacheMisses *uint64         `json:"cache_misses"`
	Report      json.RawMessage `json:"report"`
	Error       string          `json:"error"`
}

var progressPrefix = []byte(`{"event":"progress"`)

// request sends one /run/campaign job and reads its stream to the end.
func (l *serveLoad) request(ctx context.Context, query string, due time.Time) (serveOut, error) {
	var o serveOut
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/run/campaign?"+query, nil)
	if err != nil {
		return o, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return o, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var term terminalEvent
	terminals := 0
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if o.events == 0 {
				o.first = time.Since(due)
			}
			o.events++
			o.bytes += len(line)
			if !bytes.HasPrefix(line, progressPrefix) {
				o.end = time.Since(due)
				terminals++
				if err := json.Unmarshal(line, &term); err != nil {
					return o, fmt.Errorf("terminal event: %w", err)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return o, err
		}
	}
	switch {
	case terminals != 1:
		return o, fmt.Errorf("%d terminal events, want 1", terminals)
	case term.Event != "report":
		return o, fmt.Errorf("job failed: %s", term.Error)
	case term.CacheHits == nil || term.CacheMisses == nil:
		return o, fmt.Errorf("report event without cache counts")
	}
	o.hits, o.misses, o.doc = *term.CacheHits, *term.CacheMisses, term.Report
	t := time.Now()
	o.rep, err = report.Decode(o.doc)
	o.decode = time.Since(t)
	return o, err
}

// checkServe verifies one job's output: every planned cell either hit
// or missed the cache and appears in the matrix, and the report has all
// its sections.
func checkServe(o serveOut) error {
	cells := serveCells()
	if o.hits+o.misses != uint64(cells) {
		return fmt.Errorf("%d hits + %d misses, planned %d cells", o.hits, o.misses, cells)
	}
	if n := len(o.rep.Sections); n != campaignSections {
		return fmt.Errorf("report has %d sections, want %d", n, campaignSections)
	}
	if m := o.rep.Section("matrix"); m == nil || len(m.Rows) != cells {
		return fmt.Errorf("matrix does not hold the %d planned cells", cells)
	}
	return nil
}

// openLoop sends n jobs, job i due at start + i×serveInterval, over at
// most serveConns connections. A job waits for a free connection, and
// that wait shows in its latency and in the generator's lateness.
func (l *serveLoad) openLoop(ctx context.Context, stream int64, workers, n int) ([]serveOut, []error, time.Duration, time.Duration) {
	outs := make([]serveOut, n)
	errs := make([]error, n)
	slots := make(chan struct{}, serveConns)
	var wg sync.WaitGroup
	var late time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * serveInterval)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		late = max(late, time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			o, err := l.request(ctx, serveQuery(jobID{stream: stream, index: i, workers: workers}), due)
			o.rssMB = rssMB()
			if err == nil {
				err = checkServe(o)
			}
			outs[i], errs[i] = o, err
		}(i)
	}
	wg.Wait()
	return outs, errs, time.Since(start), late
}
