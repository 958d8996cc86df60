package report

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crosslayer/internal/stats"
)

// sampleReport exercises every cell kind and layout the renderers
// support, including the CSV/Markdown escaping hazards: commas,
// quotes, pipes, newlines and empty cells.
func sampleReport() *Report {
	r := New("sample", "Sample: every cell kind")
	r.AddParam("seed", 7)
	r.AddNote("a note with a | pipe")
	tbl := r.AddSection(Table("cells", "Kinds",
		Col("name", KindString),
		Col("count", KindInt),
		Col("rate", KindRatio),
		Col("frac", KindPct1),
		Col("cost", KindRound),
		Col("time", KindSeconds),
		Col("delta", KindPP),
		Col("ci", KindRatioCI),
	))
	tbl.Add("plain", 3, stats.Counter{Hits: 2, Total: 3}, 0.125, 17.4, 0.0421, 25.0, stats.Counter{Hits: 2, Total: 3})
	tbl.Add("comma, quote \" and |pipe|", 0, stats.Counter{}, 0.0, 0.0, 0.0, nil, stats.Counter{})
	tbl.Add("", -1, stats.Counter{Hits: 1, Total: 1}, 1.0, 2.6, 12.3456, -12.5, stats.Counter{Hits: 1, Total: 1})

	bars := r.AddSection(&Section{
		Name: "plot", Title: "A plot", Layout: LayoutBars,
		Columns: []Column{Col("curve", KindString), Col("n", KindInt),
			Col("x", KindFloat), Col("value", KindFloat)},
		Bars: &BarSpec{Scale: 100, Width: 50, Prefix: "/", XFormat: "%-2.0f"},
	})
	bars.Add("curve A", 10, 11.0, 0.25)
	bars.Add("curve A", 10, 12.0, 0.031)
	bars.Add("curve B", 4, 11.0, 1.0)

	kv := r.AddSection(&Section{
		Name: "venn", Layout: LayoutKV,
		Columns: []Column{Col("group", KindString), Col("label", KindString), Col("value", KindInt)},
	})
	kv.Add("Part a", "X only", 3)
	kv.Add("Part a", "union", 9)
	kv.Add("Part b", "X only", 0)
	return r
}

func TestTextLayouts(t *testing.T) {
	got := Text(sampleReport())
	for _, want := range []string{
		"== Kinds ==",
		"name", "count | rate | frac", // aligned header fragments
		"67%",    // 2/3 ratio
		"12.5%",  // pct1
		"17",     // round
		"0.042s", // seconds
		"+25pp",  // pp
		"n/a",    // zero-total ratio AND nil pp
		"-12pp",  // negative pp, %+.0f (round half to even)
		"67%±46", // ratio-ci: Wilson 95% half-width
		"== A plot ==",
		"curve A (n=10)",
		"  /11 |" + strings.Repeat("#", 25), // scale 100, prefix /
		"curve B (n=4)",
		"== Part a ==",
		"X only: 3",
		"union: 9",
		"== Part b ==",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("text missing %q:\n%s", want, got)
		}
	}
	// Notes and params are metadata: the text artifact must not carry
	// them (the golden byte-compat contract).
	if strings.Contains(got, "note with") || strings.Contains(got, "seed") {
		t.Fatalf("text leaked params/notes:\n%s", got)
	}
}

// TestTableTextMatchesStatsTable pins the byte-compat contract at the
// unit level: a LayoutTable section renders exactly what a
// hand-assembled stats.Table renders.
func TestTableTextMatchesStatsTable(t *testing.T) {
	s := Table("", "Table X: demo", Col("A", KindString), Col("Long header B", KindString))
	s.Add("wide cell here", "x")
	s.Add("y", "z")
	want := (&stats.Table{Title: "Table X: demo",
		Header: []string{"A", "Long header B"},
		Rows:   [][]string{{"wide cell here", "x"}, {"y", "z"}}}).String()
	if got := s.Text(); got != want {
		t.Fatalf("section text diverged from stats.Table:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestJSONRoundTripTextIdentical is the renderer contract of the
// issue: encode -> decode -> re-render text is byte-identical.
func TestJSONRoundTripTextIdentical(t *testing.T) {
	r := sampleReport()
	data, err := JSON(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Text(back), Text(r); got != want {
		t.Fatalf("round-trip changed text:\n--- got\n%s\n--- want\n%s", got, want)
	}
	// And the re-encoded JSON is byte-identical too (stable field
	// order, lossless cells).
	data2, err := JSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatalf("re-encoded JSON drifted:\n--- got\n%s\n--- want\n%s", data2, data)
	}
}

func TestDecodeRejectsRaggedRows(t *testing.T) {
	bad := []byte(`{"name":"x","sections":[{"columns":[{"name":"a","kind":"int"}],"rows":[[1,2]]}]}`)
	if _, err := Decode(bad); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// TestDecodeRejectsNarrowPlotLayouts: bars/kv sections index fixed
// columns, so a decoded section too narrow for its layout must fail
// at Decode, not panic at render.
func TestDecodeRejectsNarrowPlotLayouts(t *testing.T) {
	bars := []byte(`{"name":"x","sections":[{"layout":"bars","columns":[{"name":"a","kind":"string"}],"rows":[["g"]]}]}`)
	if _, err := Decode(bars); err == nil {
		t.Fatal("single-column bars section accepted")
	}
	kv := []byte(`{"name":"x","sections":[{"layout":"kv","columns":[{"name":"a","kind":"string"},{"name":"b","kind":"string"}],"rows":[["g","l"]]}]}`)
	if _, err := Decode(kv); err == nil {
		t.Fatal("two-column kv section accepted")
	}
}

// TestCSVEscaping: commas, quotes and empty cells survive the CSV
// projection per RFC 4180.
func TestCSVEscaping(t *testing.T) {
	out, err := CSV(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	csv := string(out)
	if !strings.Contains(csv, `"comma, quote "" and |pipe|"`) {
		t.Fatalf("comma/quote cell not escaped:\n%s", csv)
	}
	if !strings.Contains(csv, "# cells: Kinds\n") {
		t.Fatalf("section heading missing:\n%s", csv)
	}
	// The empty-name cell renders as an empty field, not a dropped one.
	if !strings.Contains(csv, "\n,-1,100%") {
		t.Fatalf("empty leading cell lost:\n%s", csv)
	}
	// Sections are blank-line separated.
	if !strings.Contains(csv, "\n\n# plot: A plot\n") {
		t.Fatalf("section separation missing:\n%s", csv)
	}
}

// TestMarkdownEscaping: pipes and newlines inside cells cannot break
// the table grid.
func TestMarkdownEscaping(t *testing.T) {
	r := New("md", "MD demo")
	s := r.AddSection(Table("t", "T", Col("a", KindString), Col("b", KindString)))
	s.Add("has|pipe", "line\nbreak")
	s.Add("", "plain")
	r.AddNote("note with |pipe")
	md := string(Markdown(r))
	for _, want := range []string{
		"# MD demo",
		"## T",
		"| a | b |",
		"| --- | --- |",
		`| has\|pipe | line<br>break |`,
		"|  | plain |",
		`> note with \|pipe`,
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestRenderDispatch(t *testing.T) {
	r := sampleReport()
	for _, f := range []string{"text", "json", "csv", "md", "markdown", ""} {
		if out, err := Render(r, f); err != nil || len(out) == 0 {
			t.Errorf("format %q: %v (%d bytes)", f, err, len(out))
		}
	}
	if _, err := Render(r, "xml"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown format error %v must list valid formats", err)
	}
}

// unregister removes test registrations from the process-wide
// registry, so a test that registers can run again in the same binary
// (go test -count=N).
func unregister(names ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	kept := registry[:0:0]
	for _, e := range registry {
		if !slices.Contains(names, e.Name) {
			kept = append(kept, e)
		}
	}
	registry = kept
	clear(byName)
	for i, e := range registry {
		byName[e.Name] = i
	}
}

func TestRegistryDispatch(t *testing.T) {
	t.Cleanup(func() { unregister("test-reg-a", "test-reg-err") })
	Register(Experiment{Name: "test-reg-a", Title: "A", Run: func(ctx context.Context, spec Spec) (*Report, error) {
		r := New("", "")
		r.AddSection(Table("", "A table", Col("seed", KindInt))).Add(spec.Seed)
		return r, nil
	}})
	Register(Experiment{Name: "test-reg-err", Title: "E", Run: func(context.Context, Spec) (*Report, error) {
		return nil, errors.New("boom")
	}})

	rep, err := Run(context.Background(), "test-reg-a", Spec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The registry back-fills name and title from the registration.
	if rep.Name != "test-reg-a" || rep.Title != "A" {
		t.Fatalf("name/title not filled: %q %q", rep.Name, rep.Title)
	}
	if !strings.Contains(rep.String(), "9") {
		t.Fatal("spec did not reach the experiment")
	}

	// Failures propagate — never swallowed.
	if _, err := Run(context.Background(), "test-reg-err", Spec{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("experiment error lost: %v", err)
	}

	// Unknown names fail listing the valid registry keys.
	_, err = Run(context.Background(), "test-reg-nope", Spec{})
	if err == nil || !strings.Contains(err.Error(), "test-reg-nope") || !strings.Contains(err.Error(), "valid:") ||
		!strings.Contains(err.Error(), "test-reg-a") {
		t.Fatalf("unknown-name error %v must list valid keys", err)
	}

	// Listing covers the registrations, in order, and Get finds them.
	names := Names()
	ia, ie := -1, -1
	for i, n := range names {
		switch n {
		case "test-reg-a":
			ia = i
		case "test-reg-err":
			ie = i
		}
	}
	if ia < 0 || ie < 0 || ia > ie {
		t.Fatalf("registration order lost: %v", names)
	}
	if _, ok := Get("test-reg-a"); !ok {
		t.Fatal("Get missed a registered experiment")
	}

	// Duplicate registration is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Experiment{Name: "test-reg-a", Run: func(context.Context, Spec) (*Report, error) { return nil, nil }})
}

func TestBaseParams(t *testing.T) {
	r := New("x", "")
	BaseParams(r, Spec{SampleCap: 50, Seed: 1, ShardSize: 16})
	if len(r.Params) != 3 {
		t.Fatalf("params %v", r.Params)
	}
	if fmt.Sprint(r.Params) != "[{sample_cap 50} {seed 1} {shard_size 16}]" {
		t.Fatalf("params %v", r.Params)
	}
	r2 := New("y", "")
	BaseParams(r2, Spec{SampleCap: 50, Seed: 1})
	if len(r2.Params) != 2 {
		t.Fatalf("zero shard size must not be recorded: %v", r2.Params)
	}
}

// TestSplitKeys pins the filter-list grammar shared by the CLI flags
// and the server's query parameters: empty means the full axis (nil),
// keys are trimmed with empty entries dropped, and a non-empty value
// with no usable key is an error rather than a silent full sweep.
func TestSplitKeys(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hijack", []string{"hijack"}},
		{" hijack , saddns ", []string{"hijack", "saddns"}},
		{"hijack,,frag,", []string{"hijack", "frag"}},
	} {
		got, err := SplitKeys(tc.in)
		if err != nil {
			t.Fatalf("SplitKeys(%q): %v", tc.in, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || (got == nil) != (tc.want == nil) {
			t.Fatalf("SplitKeys(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{",", " ", " , ,", "\t"} {
		if keys, err := SplitKeys(in); err == nil {
			t.Fatalf("SplitKeys(%q) = %q, want an error", in, keys)
		}
	}
}

// TestBindCoversSpec pins the one run-parameter table: every exported
// Spec field but Progress is reached by exactly one bound flag, and
// every flag reaches exactly one field, so a new field cannot reach one
// front door (the CLI, the server's query) without the other.
func TestBindCoversSpec(t *testing.T) {
	var names []string
	var spec Spec
	all := flag.NewFlagSet("spec", flag.ContinueOnError)
	spec.Bind(all)
	all.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })

	reached := map[string][]string{}
	for _, name := range names {
		var s Spec
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		s.Bind(fs)
		val := "7"
		if b, ok := fs.Lookup(name).Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			val = "true"
		}
		if err := fs.Set(name, val); err != nil {
			t.Fatalf("-%s=%s: %v", name, val, err)
		}
		v := reflect.ValueOf(s)
		var fields []string
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				fields = append(fields, v.Type().Field(i).Name)
			}
		}
		if len(fields) != 1 {
			t.Errorf("-%s sets fields %v, want exactly one", name, fields)
		}
		for _, f := range fields {
			reached[f] = append(reached[f], name)
		}
	}

	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		want := 1
		if f.Name == "Progress" {
			want = 0
		}
		if got := reached[f.Name]; len(got) != want {
			t.Errorf("Spec.%s is reached by flags %v, want %d", f.Name, got, want)
		}
	}
}

// FuzzSpecParams sets an arbitrary (name, value) pair on a bound flag
// table, as a /run query parameter or a command-line flag would. It
// must never panic; an accepted list value holds only trimmed,
// non-empty keys with no comma; and setting the flag again from its
// String() reproduces the same Spec.
func FuzzSpecParams(f *testing.F) {
	for _, p := range [][2]string{
		{"seed", "11"}, {"trials", "2"}, {"lattice-rank", "1"}, {"parallel", "4"},
		{"methods", "hijack"}, {"victims", "web,smtp"}, {"profiles", "bind,dnsmasq"},
		{"chain-depths", "0"}, {"placement", "stub"}, {"downgrade", "true"},
		{"transports", " "}, {"profiles", ", ,"},
		{"trials", "bogus"}, {"methods", ","}, {"typo", "1"},
	} {
		f.Add(p[0], p[1])
	}
	bind := func() (*Spec, *flag.FlagSet) {
		s := DefaultSpec()
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.Bind(fs)
		return &s, fs
	}
	f.Fuzz(func(t *testing.T, name, value string) {
		spec, fs := bind()
		if fs.Set(name, value) != nil {
			return
		}
		fl := fs.Lookup(name)
		if keys, ok := fl.Value.(*keyList); ok {
			for _, k := range *keys {
				if k == "" || k != strings.TrimSpace(k) || strings.Contains(k, ",") {
					t.Fatalf("-%s=%q accepted key %q", name, value, k)
				}
			}
		}
		again, fs2 := bind()
		if err := fs2.Set(name, fl.Value.String()); err != nil {
			t.Fatalf("-%s=%q: setting it again from %q: %v", name, value, fl.Value.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("-%s=%q: %+v, but from its String %q: %+v", name, value, *spec, fl.Value.String(), *again)
		}
	})
}
