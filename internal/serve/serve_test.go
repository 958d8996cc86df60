package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crosslayer/internal/report"
)

// sweepQuery is the small campaign sweep the server tests submit: the
// same two-axis filter the campaign cache tests pin (1 method × 2
// victims × 2 profiles × rank-1 defense sets × 1 depth × 1 placement).
const sweepQuery = "seed=11&trials=2&lattice-rank=1&methods=hijack&victims=web,smtp&profiles=bind,dnsmasq&chain-depths=0&placement=stub"

// bindOnlyQuery is the filtered sweep whose cells are a strict subset
// of sweepQuery's (the dnsmasq column removed).
const bindOnlyQuery = "seed=11&trials=2&lattice-rank=1&methods=hijack&victims=web,smtp&profiles=bind&chain-depths=0&placement=stub"

// startServer runs a server on an ephemeral port and returns it with
// its cancel func and Run's result channel (so tests can wait for the
// shutdown path — including the final checkpoint — to finish).
func startServer(t *testing.T, cfg Config) (*Server, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(cfg)
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx); close(done) }()
	select {
	case <-s.Ready():
	case err := <-done:
		cancel()
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server never shut down")
		}
	})
	return s, cancel, done
}

// sweepResult is the decoded outcome of one streamed /run response.
type sweepResult struct {
	progress  int
	report    []byte // raw bytes of the terminal event's report field
	hits      uint64
	misses    uint64
	errMsg    string
	terminals int
}

// runSweep submits one /run request and decodes its NDJSON stream.
func runSweep(t *testing.T, addr, path string) sweepResult {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var r sweepResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "progress":
			r.progress++
		case "report":
			r.terminals++
			r.report = append([]byte(nil), ev.Report...)
			if ev.CacheHits != nil {
				r.hits = *ev.CacheHits
			}
			if ev.CacheMisses != nil {
				r.misses = *ev.CacheMisses
			}
		case "error":
			r.terminals++
			r.errMsg = ev.Error
		default:
			t.Fatalf("unknown event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if r.terminals != 1 {
		t.Fatalf("stream had %d terminal events, want exactly 1", r.terminals)
	}
	if r.errMsg != "" {
		t.Fatalf("sweep failed: %s", r.errMsg)
	}
	return r
}

// renderText decodes a streamed report document and renders it as the
// byte-stable text artifact — the golden-suite oracle form.
func renderText(t *testing.T, doc []byte) string {
	t.Helper()
	rep, err := report.Decode(doc)
	if err != nil {
		t.Fatalf("streamed report does not decode: %v", err)
	}
	out, err := report.Render(rep, "text")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// referenceText runs the same sweep directly through the registry (no
// server, no cache) and renders it as text.
func referenceText(t *testing.T, profiles []string) string {
	t.Helper()
	spec := report.Spec{
		SampleCap:   10000, // the server's default cap
		Seed:        11,
		Trials:      2,
		LatticeRank: 1,
		Methods:     []string{"hijack"},
		Victims:     []string{"web", "smtp"},
		Profiles:    profiles,
		ChainDepths: []string{"0"},
		Placements:  []string{"stub"},
	}
	rep, err := report.Run(context.Background(), "campaign", spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := report.Render(rep, "text")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestServeWarmSweepByteIdentical: resubmitting a sweep to a warm
// server recomputes nothing — every cell is a cache hit — and the
// streamed report is byte-identical to the cold run's, at parallelism
// 1 and 4. The decoded report also matches a direct registry run, so
// the cache never changes what the golden suite would pin.
func TestServeWarmSweepByteIdentical(t *testing.T) {
	s, _, _ := startServer(t, Config{})

	cold := runSweep(t, s.Addr(), "/run/campaign?"+sweepQuery+"&parallel=1")
	if cold.hits != 0 || cold.misses == 0 {
		t.Fatalf("cold sweep: %d hits, %d misses; want 0 hits and every cell a miss", cold.hits, cold.misses)
	}
	if cold.progress == 0 {
		t.Fatal("cold sweep streamed no progress events")
	}

	for _, parallel := range []string{"1", "4"} {
		warm := runSweep(t, s.Addr(), "/run/campaign?"+sweepQuery+"&parallel="+parallel)
		if warm.hits != cold.misses || warm.misses != 0 {
			t.Fatalf("parallel=%s warm sweep: %d hits, %d misses; want %d hits and 0 misses",
				parallel, warm.hits, warm.misses, cold.misses)
		}
		if !bytes.Equal(warm.report, cold.report) {
			t.Fatalf("parallel=%s warm report bytes diverge from cold run", parallel)
		}
		if warm.progress == 0 {
			t.Fatalf("parallel=%s warm sweep streamed no progress events", parallel)
		}
	}

	if got, want := renderText(t, cold.report), referenceText(t, []string{"bind", "dnsmasq"}); got != want {
		t.Fatalf("server report diverges from direct registry run:\n--- server\n%s\n--- direct\n%s", got, want)
	}
}

// TestServeOverlappingSweepsShareCells: a filtered sweep warms exactly
// its cells; a later broader sweep hits every shared cell and computes
// only the rest — and still streams the report a cold full sweep
// would.
func TestServeOverlappingSweepsShareCells(t *testing.T) {
	s, _, _ := startServer(t, Config{})

	first := runSweep(t, s.Addr(), "/run/campaign?"+bindOnlyQuery+"&parallel=2")
	if first.hits != 0 {
		t.Fatalf("first sweep on a cold server hit %d cells", first.hits)
	}

	second := runSweep(t, s.Addr(), "/run/campaign?"+sweepQuery+"&parallel=2")
	if second.hits != first.misses {
		t.Fatalf("broader sweep hit %d cells, want every one of the first sweep's %d", second.hits, first.misses)
	}
	if second.misses == 0 {
		t.Fatal("broader sweep computed nothing new — filters did not overlap as intended")
	}

	if got, want := renderText(t, second.report), referenceText(t, []string{"bind", "dnsmasq"}); got != want {
		t.Fatalf("cache-assembled sweep diverges from direct registry run:\n--- server\n%s\n--- direct\n%s", got, want)
	}
}

// TestServeCheckpointResume: a server killed after a partial sweep
// writes its final checkpoint; a restarted server resumes from it —
// the repeated cells are all hits — and reproduces the full-sweep
// report byte-for-byte.
func TestServeCheckpointResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "checkpoint.json")

	s1, cancel1, done1 := startServer(t, Config{CheckpointPath: cp})
	partial := runSweep(t, s1.Addr(), "/run/campaign?"+bindOnlyQuery+"&parallel=2")
	full := runSweep(t, s1.Addr(), "/run/campaign?"+sweepQuery+"&parallel=2")
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("server shutdown: %v", err)
	}

	s2, _, _ := startServer(t, Config{CheckpointPath: cp})
	resumed := runSweep(t, s2.Addr(), "/run/campaign?"+sweepQuery+"&parallel=2")
	if want := partial.misses + full.misses; resumed.hits != want || resumed.misses != 0 {
		t.Fatalf("resumed sweep: %d hits, %d misses; want all %d cells from checkpoint",
			resumed.hits, resumed.misses, want)
	}
	if !bytes.Equal(resumed.report, full.report) {
		t.Fatal("checkpoint-resumed report bytes diverge from the pre-restart run")
	}
}

// TestServeCheckpointLoopFinalFlushIsLast: with the periodic writer
// saving every millisecond while a sweep stores cells, the file left
// after shutdown holds every cell the cache holds: Run joins the writer
// before the final flush, so no save still in flight renames an older
// snapshot over it.
func TestServeCheckpointLoopFinalFlushIsLast(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "checkpoint.json")
	s, cancel, done := startServer(t, Config{CheckpointPath: cp, CheckpointEvery: time.Millisecond})
	runSweep(t, s.Addr(), "/run/campaign?"+sweepQuery+"&parallel=2")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	resumed := New(Config{CheckpointPath: cp})
	if err := resumed.loadCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.cache.stats().Cells, s.cache.stats().Cells; got != want || want == 0 {
		t.Fatalf("checkpoint holds %d cells, the cache %d", got, want)
	}
}

// TestServeCheckpointSkipsCleanRewrite: a server that loads a
// checkpoint and computes nothing new leaves its cache clean, so it
// never rewrites the file.
func TestServeCheckpointSkipsCleanRewrite(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "checkpoint.json")

	s1, cancel1, done1 := startServer(t, Config{CheckpointPath: cp})
	runSweep(t, s1.Addr(), "/run/campaign?"+bindOnlyQuery+"&parallel=2")
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("server shutdown: %v", err)
	}

	// A server that loads the checkpoint and computes nothing must not
	// rewrite it (the dirty flag gates the flush).
	s2, cancel2, done2 := startServer(t, Config{CheckpointPath: cp})
	warm := runSweep(t, s2.Addr(), "/run/campaign?"+bindOnlyQuery+"&parallel=2")
	if warm.misses != 0 {
		t.Fatalf("warm restart recomputed %d cells", warm.misses)
	}
	cells, _, clean := s2.cache.snapshot()
	if !clean || cells != nil {
		t.Fatal("cache dirty after an all-hits sweep; clean restarts would rewrite checkpoints forever")
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeEndpoints: the registry listing, the cache counters, and
// the request-validation failure modes.
func TestServeEndpoints(t *testing.T) {
	s, _, _ := startServer(t, Config{})

	resp, err := http.Get("http://" + s.Addr() + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct{ Name, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, e := range entries {
		if e.Name == "campaign" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/experiments listing (%d entries) lacks the campaign", len(entries))
	}

	resp, err = http.Get("http://" + s.Addr() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	var stats CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cells != 0 {
		t.Fatalf("cold server reports %d cached cells", stats.Cells)
	}

	// Each failure names what was wrong: the experiment, or the query
	// parameter a 400 refuses.
	for _, tc := range []struct {
		path, names string
		want        int
	}{
		{"/run/no-such-experiment", "no-such-experiment", http.StatusNotFound},
		{"/run/campaign?trials=bogus", "trials", http.StatusBadRequest},
		{"/run/campaign?typo=1", "typo", http.StatusBadRequest},
		{"/run/campaign?methods=,", "methods", http.StatusBadRequest},
		{"/run/", "/run/{experiment}", http.StatusNotFound},
	} {
		resp, err := http.Get("http://" + s.Addr() + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if !strings.Contains(string(body), tc.names) {
			t.Errorf("GET %s: body %q does not name %q", tc.path, body, tc.names)
		}
	}
}

// TestServeDefaultsMatchCLI: a /run request with no query parameters
// runs exactly the spec xlmeasure runs with no flags, so one request
// draws the same population through either front door.
func TestServeDefaultsMatchCLI(t *testing.T) {
	spec, err := specFromQuery(httptest.NewRequest(http.MethodGet, "/run/table5", nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := report.DefaultSpec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("empty query yields %+v, want the CLI defaults %+v", spec, want)
	}
}

// TestServeRejectsEmptyListFilters: a list parameter whose value holds
// no usable key is a bad request, not a silent sweep of the full axis
// that would tie up the job queue.
func TestServeRejectsEmptyListFilters(t *testing.T) {
	s, _, _ := startServer(t, Config{})
	for _, query := range []string{"methods=,", "transports=%20", "victims=web&profiles=,%20,"} {
		resp, err := http.Get("http://" + s.Addr() + "/run/campaign?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /run/campaign?%s: status %d, want %d", query, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// TestEventEncoderSteadyStateAllocs pins the pooled NDJSON path: after
// warm-up, encoding a progress event through the per-job encoder must
// not allocate — cache-hit sweeps stream one event per shard and the
// serve path should add no per-event garbage on top.
func TestEventEncoderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		// The race runtime makes sync.Pool under encoding/json drop
		// pooled states, so the count would measure the detector, not
		// the encoder.
		t.Skip("allocation pin runs without -race")
	}
	enc := newEventEncoder()
	ev := streamEvent{Event: "progress", Dataset: "campaign", DoneShards: 12, TotalShards: 360, Items: 360}
	// Warm the buffer to its steady-state capacity.
	for i := 0; i < 8; i++ {
		if _, err := enc.encode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		ev.DoneShards++
		line, err := enc.encode(&ev)
		if err != nil || len(line) == 0 {
			t.Fatal("encode failed")
		}
	})
	// encoding/json's internal encodeState pool can hand back a fresh
	// state under concurrent GC; allow a fraction, not a per-event
	// allocation.
	if avg > 0.5 {
		t.Fatalf("steady-state event encode allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestServePprofEndpoint checks the profiling handlers are mounted on
// the job server's mux.
func TestServePprofEndpoint(t *testing.T) {
	s, cancel, _ := startServer(t, Config{})
	defer cancel()
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline: status %d", resp.StatusCode)
	}
}
