// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout mapping each benchmark to its ns/op (and,
// when -benchmem or b.ReportAllocs() provided them, B/op and
// allocs/op) — the machine-readable perf record CI uploads as
// BENCH_ci.json so the repository accumulates a benchmark trajectory
// across commits. A benchmark run several times (-count=N) is recorded
// once, each metric the median of its runs, so one noisy run cannot
// move the record.
//
// With -compare it becomes the perf gate instead: it reads two such
// JSON files, prints a comparison table, and exits 1 if any benchmark
// regressed beyond the tolerance, allocates more (see allocSlackPct),
// or is missing.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1s -cpu 2 -count=3 . | benchjson > BENCH_ci.json
//	benchjson -compare -tolerance 40 BENCH_11.json BENCH_ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkCampaign-8   1   123456789 ns/op   512 B/op   7 allocs/op
//
// The B/op and allocs/op groups are optional: only benchmarks that
// call b.ReportAllocs() (or runs under -benchmem) emit them.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+(\d+) allocs/op)?`)

// Result is one parsed benchmark measurement.
type Result struct {
	// Name is the benchmark with its GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the b.N the measurement ran.
	Iterations int `json:"iterations"`
	// NsPerOp is the reported nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the memory columns; -1 when the
	// benchmark did not report them (0 is a real, meaningful value on
	// the zero-allocation paths this repo gates, so absence cannot be
	// encoded as 0).
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Parse extracts benchmark results from go-test bench output.
func Parse(r *bufio.Scanner) ([]Result, error) {
	var out []Result
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", r.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", r.Text(), err)
		}
		res := Result{Name: stripProcs(m[1]), Iterations: iters, NsPerOp: ns,
			BytesPerOp: -1, AllocsPerOp: -1}
		if m[4] != "" {
			if res.BytesPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("benchjson: bad B/op in %q: %w", r.Text(), err)
			}
			if res.AllocsPerOp, err = strconv.ParseFloat(m[5], 64); err != nil {
				return nil, fmt.Errorf("benchjson: bad allocs/op in %q: %w", r.Text(), err)
			}
		}
		out = append(out, res)
	}
	return out, r.Err()
}

// Fold merges the repeated results of each benchmark (go test -count=N)
// into one, in the order the benchmarks first appear. Each metric is
// the median of the runs that reported it; a memory column no run
// reported stays -1.
func Fold(results []Result) []Result {
	var order []string
	runs := make(map[string][]Result)
	for _, r := range results {
		if _, seen := runs[r.Name]; !seen {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		median := func(metric func(Result) float64) float64 {
			var v []float64
			for _, r := range rs {
				if x := metric(r); x >= 0 {
					v = append(v, x)
				}
			}
			if len(v) == 0 {
				return -1
			}
			slices.Sort(v)
			m := len(v) / 2
			if len(v)%2 == 0 {
				return (v[m-1] + v[m]) / 2
			}
			return v[m]
		}
		out = append(out, Result{
			Name:        name,
			Iterations:  int(median(func(r Result) float64 { return float64(r.Iterations) })),
			NsPerOp:     median(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  median(func(r Result) float64 { return r.BytesPerOp }),
			AllocsPerOp: median(func(r Result) float64 { return r.AllocsPerOp }),
		})
	}
	return out
}

// stripProcs drops the -N GOMAXPROCS suffix so records compare across
// machines.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// The allocation gate: allocs/op breaches when it rises by more than
// allocSlackPct percent and by more than allocSlack allocations. Unlike
// ns/op, allocs/op hardly moves on unchanged code (at most ±37 on
// BenchmarkCampaign's 162,400 across BENCH_6, 7 and 8), so a rise past
// both bounds is a change in what the code does, not runner noise.
const (
	allocSlackPct = 1
	allocSlack    = 16
)

// Compare diffs a new benchmark record against the baseline record
// read from the file baseline and renders the verdict table. It
// reports breach when any baseline benchmark is slower in the new
// record by more than tolerancePct percent, allocates more than the
// allocation gate allows (checked only when both records carry
// allocs/op), or is missing from the new record entirely (a silently
// dropped benchmark must not pass the gate). Benchmarks only present
// in the new record are noted but never a breach — adding coverage is
// not a regression. On breach the table ends with one line per kind of
// breach and the command that refreshes baseline.
func Compare(baseline string, oldRes, newRes []Result, tolerancePct float64) (string, bool) {
	newBy := make(map[string]Result, len(newRes))
	for _, r := range newRes {
		newBy[r.Name] = r
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tbase ns/op\tnew ns/op\tdelta\tallocs\tallocs verdict\tverdict\n")
	var slower, allocating, missing int
	for _, o := range oldRes {
		n, ok := newBy[o.Name]
		if !ok {
			missing++
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\t%s\t-\tBREACH (missing from new record)\n",
				o.Name, o.NsPerOp, allocDelta(o.AllocsPerOp, -1))
			continue
		}
		delete(newBy, o.Name)
		deltaPct := 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		var breaches []string
		if deltaPct > tolerancePct {
			slower++
			breaches = append(breaches, fmt.Sprintf("+%.1f%% > %.1f%% tolerance", deltaPct, tolerancePct))
		}
		allocVerdict := "-"
		if o.AllocsPerOp >= 0 && n.AllocsPerOp >= 0 {
			allocVerdict = "ok"
			if rise := n.AllocsPerOp - o.AllocsPerOp; rise > allocSlack && rise > o.AllocsPerOp*allocSlackPct/100 {
				allocating++
				allocVerdict = fmt.Sprintf("BREACH (+%.0f allocs/op)", rise)
				breaches = append(breaches, "allocs/op")
			}
		}
		verdict := "ok"
		if len(breaches) > 0 {
			verdict = "BREACH (" + strings.Join(breaches, ", ") + ")"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\t%s\t%s\n",
			o.Name, o.NsPerOp, n.NsPerOp, deltaPct, allocDelta(o.AllocsPerOp, n.AllocsPerOp), allocVerdict, verdict)
	}
	// Deterministic order for the leftovers: walk newRes, not the map.
	for _, n := range newRes {
		if _, leftover := newBy[n.Name]; leftover {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t-\t%s\t-\tnew (not in baseline)\n",
				n.Name, n.NsPerOp, allocDelta(-1, n.AllocsPerOp))
		}
	}
	tw.Flush()
	breach := slower+allocating+missing > 0
	if slower > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d benchmark(s) slower than the baseline beyond the %.1f%% tolerance.", slower, tolerancePct)
	}
	if allocating > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d benchmark(s) allocate more than the baseline, by over %d%% and over %d allocs/op.", allocating, allocSlackPct, allocSlack)
	}
	if missing > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d baseline benchmark(s) missing from the new record (removed or renamed; the /pN parallel benchmarks take N from -cpu).", missing)
	}
	if breach {
		fmt.Fprintf(&b, "\nIf the change is intended, refresh the baseline:\n")
		fmt.Fprintf(&b, "  go test -run '^$' -bench . -benchtime=1s -cpu 2 -count=3 . | go run ./cmd/benchjson > %s\n", baseline)
	}
	return b.String(), breach
}

// allocDelta renders the allocs/op transition, tolerating sides that
// did not report allocations (-1, rendered as "?").
func allocDelta(oldAllocs, newAllocs float64) string {
	fmtOne := func(a float64) string {
		if a < 0 {
			return "?"
		}
		return strconv.FormatFloat(a, 'f', -1, 64)
	}
	return fmtOne(oldAllocs) + "→" + fmtOne(newAllocs)
}

func readRecord(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Records written before the memory columns existed have no
	// bytes_per_op/allocs_per_op keys at all; pointer fields keep that
	// distinguishable from a genuine 0 so absence maps to -1.
	type rec struct {
		Name        string   `json:"name"`
		Iterations  int      `json:"iterations"`
		NsPerOp     float64  `json:"ns_per_op"`
		BytesPerOp  *float64 `json:"bytes_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
	}
	var raw []rec
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = Result{Name: r.Name, Iterations: r.Iterations, NsPerOp: r.NsPerOp,
			BytesPerOp: -1, AllocsPerOp: -1}
		if r.BytesPerOp != nil {
			out[i].BytesPerOp = *r.BytesPerOp
		}
		if r.AllocsPerOp != nil {
			out[i].AllocsPerOp = *r.AllocsPerOp
		}
	}
	return out, nil
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchmark JSON files (baseline, new) instead of parsing stdin")
	tolerance := flag.Float64("tolerance", 15, "percent slowdown allowed before -compare fails")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-tolerance pct] baseline.json new.json")
			os.Exit(2)
		}
		oldRes, err := readRecord(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		newRes, err := readRecord(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		table, breach := Compare(flag.Arg(0), oldRes, newRes, *tolerance)
		fmt.Print(table)
		if breach {
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results, err := Parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Fold(results)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
