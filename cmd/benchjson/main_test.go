package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: crosslayer
BenchmarkTable1Applications-8        	       1	   1234567 ns/op
BenchmarkCampaign-8                  	       1	998877665 ns/op	  512 B/op	       7 allocs/op
BenchmarkTable3Parallel/serial-16    	       2	 42000000.5 ns/op
PASS
ok  	crosslayer	2.345s
`
	got, err := Parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkTable1Applications", Iterations: 1, NsPerOp: 1234567, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkCampaign", Iterations: 1, NsPerOp: 998877665, BytesPerOp: 512, AllocsPerOp: 7},
		{Name: "BenchmarkTable3Parallel/serial", Iterations: 2, NsPerOp: 42000000.5, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	got, err := Parse(bufio.NewScanner(strings.NewReader("PASS\nok x 1s\n--- FAIL: TestY\n")))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestCompareBreach(t *testing.T) {
	old := []Result{{Name: "BenchmarkCampaign", NsPerOp: 100, AllocsPerOp: 7}}
	cur := []Result{{Name: "BenchmarkCampaign", NsPerOp: 200, AllocsPerOp: 9}}
	table, breach := Compare("BENCH_9.json", old, cur, 15)
	if !breach {
		t.Fatalf("2x slowdown passed a 15%% gate:\n%s", table)
	}
	for _, want := range []string{"BREACH", "+100.0%", "7→9", "refresh the baseline", "-benchtime=1s -cpu 2 -count=3 . | go run ./cmd/benchjson > BENCH_9.json"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkCampaign", NsPerOp: 100, AllocsPerOp: -1},
		{Name: "BenchmarkFaster", NsPerOp: 100, AllocsPerOp: 3},
	}
	cur := []Result{
		{Name: "BenchmarkCampaign", NsPerOp: 110, AllocsPerOp: 0},
		{Name: "BenchmarkFaster", NsPerOp: 40, AllocsPerOp: 3},
	}
	table, breach := Compare("BENCH_9.json", old, cur, 15)
	if breach {
		t.Fatalf("10%% slowdown breached a 15%% gate:\n%s", table)
	}
	// A side without memory columns renders as "?", and 0 allocs must
	// render as a real 0, not as absent.
	if !strings.Contains(table, "?→0") {
		t.Errorf("table missing ?→0 alloc transition:\n%s", table)
	}
	if strings.Contains(table, "BREACH") {
		t.Errorf("unexpected breach row:\n%s", table)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	old := []Result{{Name: "BenchmarkDropped", NsPerOp: 100, AllocsPerOp: -1}}
	cur := []Result{{Name: "BenchmarkAdded", NsPerOp: 50, AllocsPerOp: 2}}
	table, breach := Compare("BENCH_9.json", old, cur, 15)
	if !breach {
		t.Fatalf("dropped benchmark passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "BREACH (missing from new record)") {
		t.Errorf("table missing dropped-benchmark breach:\n%s", table)
	}
	// The closing line names the missing benchmark, not a slowdown.
	if !strings.Contains(table, "FAIL: 1 baseline benchmark(s) missing from the new record") || strings.Contains(table, "slower") {
		t.Errorf("closing lines do not say plainly that a benchmark is missing:\n%s", table)
	}
	// A benchmark only the new record has is a note, never a breach.
	if !strings.Contains(table, "new (not in baseline)") {
		t.Errorf("table missing new-benchmark note:\n%s", table)
	}
}

// TestCompareAllocGate: allocs/op breaches only when it rises by more
// than 1% and by more than 16 allocations, whatever ns/op says, and is
// not checked when either record lacks the column.
func TestCompareAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, cur float64
		breach   bool
	}{
		{"17 more of 1000", 1000, 1017, true},
		{"17 more of 162400", 162400, 162417, false},
		{"37 more of 162400", 162400, 162437, false},
		{"15 more of 100", 100, 115, false},
		{"1 more of 92", 92, 93, false},
		{"more than doubled", 20, 54, true},
		{"fewer", 54542, 39137, false},
		{"baseline without allocs", -1, 5000, false},
		{"new record without allocs", 5000, -1, false},
	} {
		old := []Result{{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: tc.old}}
		cur := []Result{{Name: "BenchmarkX", NsPerOp: 90, AllocsPerOp: tc.cur}}
		table, breach := Compare("BENCH_9.json", old, cur, 40)
		if breach != tc.breach {
			t.Errorf("%s: breach %v, want %v:\n%s", tc.name, breach, tc.breach, table)
			continue
		}
		if tc.breach {
			for _, want := range []string{"BREACH (+", " allocs/op)", "BREACH (allocs/op)", "FAIL: 1 benchmark(s) allocate more", "refresh the baseline"} {
				if !strings.Contains(table, want) {
					t.Errorf("%s: table missing %q:\n%s", tc.name, want, table)
				}
			}
			if strings.Contains(table, "slower") {
				t.Errorf("%s: an allocation breach reported as a slowdown:\n%s", tc.name, table)
			}
		}
	}
	// Both breaches on one row are named on it.
	table, _ := Compare("BENCH_9.json",
		[]Result{{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: 1000}},
		[]Result{{Name: "BenchmarkX", NsPerOp: 300, AllocsPerOp: 2000}}, 40)
	if !strings.Contains(table, "BREACH (+200.0% > 40.0% tolerance, allocs/op)") || !strings.Contains(table, "slower") || !strings.Contains(table, "allocate more") {
		t.Errorf("a row breaching both gates:\n%s", table)
	}
}

// TestFold: repeated runs of a benchmark become one result, each metric
// the median of its runs, in first-appearance order; a memory column
// no run reported stays -1, and 0 allocs stays a real 0.
func TestFold(t *testing.T) {
	in := `BenchmarkB-2   3   500 ns/op
BenchmarkA-2   3   100 ns/op   64 B/op   0 allocs/op
BenchmarkB-2   3   900 ns/op
BenchmarkA-2   3   300 ns/op   64 B/op   0 allocs/op
BenchmarkB-2   3   12451 ns/op
BenchmarkA-2   3   200 ns/op   80 B/op   0 allocs/op
BenchmarkC-2   5   40 ns/op   8 B/op   1 allocs/op
BenchmarkC-2   3   60 ns/op   16 B/op   3 allocs/op
`
	runs, err := Parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	got := Fold(runs)
	want := []Result{
		{Name: "BenchmarkB", Iterations: 3, NsPerOp: 900, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 200, BytesPerOp: 64, AllocsPerOp: 0},
		{Name: "BenchmarkC", Iterations: 4, NsPerOp: 50, BytesPerOp: 12, AllocsPerOp: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("folded to %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if single := Fold(runs[:1]); len(single) != 1 || single[0] != runs[0] {
		t.Errorf("one run folded to %+v, want it unchanged", single)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX-16":       "BenchmarkX",
		"BenchmarkX":          "BenchmarkX",
		"BenchmarkX/sub-4":    "BenchmarkX/sub",
		"BenchmarkX/n-1000-8": "BenchmarkX/n-1000",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
