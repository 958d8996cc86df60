// Package serve turns the experiment harness into a resident service:
// one long-running process that accepts sweep requests over HTTP,
// executes them through the registry on a sequential job queue, and
// remembers every campaign cell it has ever computed in a
// content-addressed cache keyed by the cell's identity-derived seed
// string. Overlapping filtered sweeps — the way the matrix is actually
// explored — recompute only the cells no earlier request covered, and
// cache-served results are byte-identical to cold computation (the
// identity-seeding determinism contract makes memoization sound).
//
// The wire protocol is newline-delimited JSON on one chunked response:
// progress events as shards complete, then exactly one terminal event
// — "report" carrying the rendered report.JSON document plus the
// request's cache-hit/miss counts, or "error". The cache survives
// restarts through JSON checkpoints: loaded at startup, written
// periodically while dirty, and flushed one final time on shutdown —
// including shutdown by signal mid-sweep, because the engine stores
// completed cells even when a run is cancelled.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"crosslayer/internal/campaign"
	"crosslayer/internal/report"
)

// Config configures a Server. The zero value listens on an ephemeral
// localhost port with no checkpointing.
type Config struct {
	// Addr is the TCP listen address; "" means "127.0.0.1:0" (an
	// ephemeral port — read it back from Addr after Run starts).
	Addr string
	// CheckpointPath, when non-empty, persists the cell cache: loaded
	// at startup, written while dirty every CheckpointEvery, and
	// flushed on shutdown.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval; 0 means
	// DefaultCheckpointEvery.
	CheckpointEvery time.Duration
	// Log, when non-nil, receives one line per lifecycle event (listen
	// address, checkpoint loads/saves, job starts).
	Log io.Writer
}

// DefaultCheckpointEvery is the periodic checkpoint interval used when
// Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 30 * time.Second

// Server is the resident sweep service. Create with New, run with Run;
// requests stream through the HTTP handler while a single runner
// goroutine executes jobs in arrival order (the engine already
// parallelizes within a job, so queueing jobs keeps the machine
// saturated without oversubscribing it).
type Server struct {
	cfg   Config
	cache *cellCache
	jobs  chan *job

	ready chan struct{}
	addr  string
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	return &Server{
		cfg:   cfg,
		cache: newCellCache(),
		jobs:  make(chan *job),
		ready: make(chan struct{}),
	}
}

// Ready is closed once Run has bound its listener; Addr is valid after.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Addr returns the bound listen address ("127.0.0.1:41372"). Valid
// only after Ready.
func (s *Server) Addr() string { return s.addr }

// job is one queued sweep: the experiment to run and the channel its
// handler drains. The runner owns events and closes it after the
// terminal event; the handler must drain it to completion even if the
// client has gone away, so the runner never blocks on a dead request.
type job struct {
	name   string
	spec   report.Spec
	events chan streamEvent
}

// streamEvent is one NDJSON line of a /run response.
type streamEvent struct {
	// Event is "progress", "report" or "error".
	Event string `json:"event"`
	// Progress fields (event == "progress").
	Dataset     string `json:"dataset,omitempty"`
	DoneShards  int    `json:"done_shards,omitempty"`
	TotalShards int    `json:"total_shards,omitempty"`
	Items       int    `json:"items,omitempty"`
	// CacheHits/CacheMisses count this job's cell-cache traffic
	// (event == "report"; campaign jobs only — other experiments have
	// no cells and report neither field).
	CacheHits   *uint64 `json:"cache_hits,omitempty"`
	CacheMisses *uint64 `json:"cache_misses,omitempty"`
	// Report is the report.JSON document (event == "report").
	Report json.RawMessage `json:"report,omitempty"`
	// Error is the failure, including cancellation (event == "error").
	Error string `json:"error,omitempty"`
}

// Run serves until ctx is cancelled, then shuts down in order: stop
// accepting requests, let the runner drain the job queue (the
// in-flight sweep aborts at its next cell boundary, queued jobs get
// terminal error events, the periodic checkpoint loop finishes any
// save in flight), and write the final checkpoint as the last write.
// This is the signal path: xlmeasure -serve wires its NotifyContext
// here, so an interrupted server persists every cell completed before
// the signal. A listener failure takes the same path and returns its
// error together with any flush error.
func (s *Server) Run(ctx context.Context) error {
	if s.cfg.CheckpointPath != "" {
		if err := s.loadCheckpoint(); err != nil {
			return err
		}
		s.logf("checkpoint: loaded %d cells from %s", s.cache.stats().Cells, s.cfg.CheckpointPath)
	}

	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.addr = ln.Addr().String()
	close(s.ready)
	s.logf("listening on %s", s.addr)

	// stop ends the runner and the checkpoint loop on a listener
	// failure as the caller's cancellation does on shutdown.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.runner(ctx)
	}()
	if s.cfg.CheckpointPath != "" {
		every := s.cfg.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.checkpointLoop(ctx, every)
		}()
	}

	httpSrv := &http.Server{Handler: s.handler(ctx)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err = <-serveErr:
		err = fmt.Errorf("serve: %w", err)
		stop()
	}

	// Drain: the runner fails queued jobs and exits, and the checkpoint
	// loop finishes any save in flight, so the final flush is the last
	// write; streaming handlers finish writing their terminal events;
	// then Shutdown closes idle connections and the final checkpoint
	// commits every stored cell.
	wg.Wait()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if ferr := s.saveCheckpoint(); ferr != nil {
		return errors.Join(err, ferr)
	}
	if s.cfg.CheckpointPath != "" {
		s.logf("checkpoint: final flush, %d cells in %s", s.cache.stats().Cells, s.cfg.CheckpointPath)
	}
	return err
}

// runner executes queued jobs one at a time until ctx is cancelled,
// then fails whatever is still queued so every handler's event channel
// terminates.
func (s *Server) runner(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			for {
				select {
				case j := <-s.jobs:
					j.events <- streamEvent{Event: "error", Error: "server shutting down"}
					close(j.events)
				default:
					return
				}
			}
		case j := <-s.jobs:
			s.execute(ctx, j)
		}
	}
}

// execute runs one job, streaming progress into its event channel and
// closing it after the terminal event. Campaign jobs run through the
// cell cache; every other experiment dispatches through the registry
// unchanged.
func (s *Server) execute(ctx context.Context, j *job) {
	defer close(j.events)
	s.logf("job: %s", j.name)

	spec := j.spec
	spec.Progress = func(ev report.Progress) {
		j.events <- streamEvent{
			Event:       "progress",
			Dataset:     ev.Dataset,
			DoneShards:  ev.DoneShards,
			TotalShards: ev.TotalShards,
			Items:       ev.Items,
		}
	}

	var (
		rep          *report.Report
		err          error
		hits, misses *uint64
	)
	if j.name == "campaign" {
		before := s.cache.stats()
		cfg := campaign.ConfigFromSpec(spec)
		cfg.Cache = s.cache
		var cells []campaign.CellResult
		cells, err = campaign.RunContext(ctx, cfg)
		if err == nil {
			rep = campaign.Report(cells, j.spec)
		}
		after := s.cache.stats()
		h, m := after.Hits-before.Hits, after.Misses-before.Misses
		hits, misses = &h, &m
	} else {
		rep, err = report.Run(ctx, j.name, spec)
	}
	if err != nil {
		j.events <- streamEvent{Event: "error", Error: err.Error()}
		return
	}
	doc, err := report.JSON(rep)
	if err != nil {
		j.events <- streamEvent{Event: "error", Error: err.Error()}
		return
	}
	j.events <- streamEvent{Event: "report", CacheHits: hits, CacheMisses: misses, Report: doc}
}

// checkpointLoop writes the cache to disk every interval while it is
// dirty. The final flush on shutdown belongs to Run, not this loop, so
// exit here is silent.
func (s *Server) checkpointLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.saveCheckpoint(); err != nil {
				s.logf("%v", err)
			}
		}
	}
}

// handler builds the HTTP mux. ctx is the server's lifetime: enqueue
// attempts race it so a request arriving during shutdown fails fast
// instead of queueing behind a runner that will never serve it.
func (s *Server) handler(ctx context.Context) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/experiments", s.handleExperiments)
	mux.HandleFunc("/cache", s.handleCache)
	mux.HandleFunc("/run/", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(ctx, w, r)
	})
	// Live profiling of the resident server (go tool pprof
	// http://ADDR/debug/pprof/profile): the server binds localhost by
	// default, and perf work on a warm cache needs exactly this view.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleExperiments lists the registry: name and title per experiment,
// in canonical artifact order.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range report.List() {
		out = append(out, entry{Name: e.Name, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleCache reports the cell-cache counters.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cache.stats())
}

// handleRun enqueues /run/{experiment} and streams its NDJSON events.
// The handler drains the job's channel to completion even when the
// client disconnects — the runner must never block on a dead response.
func (s *Server) handleRun(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/run/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "usage: /run/{experiment}", http.StatusNotFound)
		return
	}
	if _, ok := report.Get(name); !ok {
		http.Error(w, fmt.Sprintf("unknown experiment %q", name), http.StatusNotFound)
		return
	}
	spec, err := specFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	j := &job{name: name, spec: spec, events: make(chan streamEvent)}
	select {
	case s.jobs <- j:
	case <-ctx.Done():
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := newEventEncoder()
	// One event variable for the whole stream: passing a fresh value
	// per iteration would re-box it into the encoder's interface
	// argument every event.
	var ev streamEvent
	for {
		var ok bool
		ev, ok = <-j.events
		if !ok {
			return
		}
		line, err := enc.encode(&ev)
		if err != nil {
			continue
		}
		// Write errors (client gone) are deliberately ignored: the
		// loop must run to channel close regardless.
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// eventEncoder packs streamEvents into NDJSON lines through one reused
// buffer and encoder: a sweep streams one progress event per shard
// (hundreds for a broad matrix, all of them cache hits on a warm
// server), and per-event encoder/buffer churn was the remaining
// allocation in the serve path.
type eventEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newEventEncoder() *eventEncoder {
	e := &eventEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}

// encode returns ev as one newline-terminated JSON line. The returned
// bytes alias the encoder's buffer and are only valid until the next
// call.
func (e *eventEncoder) encode(ev *streamEvent) ([]byte, error) {
	e.buf.Reset()
	if err := e.enc.Encode(ev); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// specFromQuery maps /run query parameters onto the registry Spec
// through report.Spec.Bind — the xlmeasure flag table, defaults
// included — on a fresh FlagSet per request. The last value of a
// repeated parameter wins. Unknown parameters, and values the flag
// rejects (a list with no usable key among them), fail naming the
// parameter, so typos fail loudly instead of silently sweeping the
// full axis.
func specFromQuery(r *http.Request) (report.Spec, error) {
	spec := report.DefaultSpec()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.Bind(fs)
	for key, vals := range r.URL.Query() {
		if fs.Lookup(key) == nil {
			return spec, fmt.Errorf("unknown parameter %q", key)
		}
		val := vals[len(vals)-1]
		if err := fs.Set(key, val); err != nil {
			return spec, fmt.Errorf("bad %s %q: %v", key, val, err)
		}
	}
	return spec, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
	}
}
