// Command xlmeasure regenerates the paper's evaluation artifacts
// through the experiment registry: every table (1–6) and figure (3–5)
// of "From IP to Transport and Beyond" on the synthetic populations
// described in DESIGN.md, the same-prefix and forwarder studies, and
// the campaign matrix — the method × victim × profile × defense-set ×
// chain-depth × placement × transport cross-product the paper only
// samples.
//
// Population scans fan out over the sharded experiment engine, so the
// default sample cap is 10k items per dataset (the paper's populations
// reach 1.58M; raise -n to scan more). Output depends only on -n,
// -seed and -shard-size (and, for campaign, the filters, -trials and
// -lattice-rank): any -parallel value produces byte-identical output.
// Ctrl-C cancels a sweep at the next shard boundary.
//
// Usage:
//
//	xlmeasure -list
//	xlmeasure [-exp all|<experiment>] [-format text|json|csv|md]
//	          [-n sampleCap] [-seed N] [-parallel workers]
//	          [-shard-size items] [-sad-ports N] [-quiet]
//	          [-methods m,...] [-victims v,...] [-profiles p,...]
//	          [-defenses d,...] [-defense-sets s,...] [-lattice-rank N]
//	          [-chain-depths n,...] [-placement p,...] [-trials N]
//	          [-transports t,...] [-deployments d,...] [-downgrade]
//	xlmeasure -serve [-addr host:port] [-checkpoint file]
//	          [-checkpoint-every d]
//
// -list prints the registry: every experiment name with its title.
// -exp takes a registry name (fig1/fig2 are message-sequence demos
// and print a pointer to their example program instead); an unknown
// name exits non-zero listing the valid keys, and so does a failed
// run. -format selects the renderer: text (the golden-artifact form),
// json (lossless, machine-readable), csv or md.
//
// Campaign filters take registry keys (empty means the full axis):
// methods hijack,saddns,frag; victims radius,xmpp,smtp,web,ntp,
// bitcoin,vpn,pki,ocsp,cdn; profiles bind,unbound,powerdns,systemd,
// dnsmasq; chain-depths 0,1,2,3 (forwarder hops between client and
// resolver); placement stub,carrier (where the attacker operates
// from). The defense axis is set-valued — a stacking lattice over the
// base defenses dnssec,0x20,no-rrl,shuffle: -lattice-rank bounds the
// swept stack size (default: singletons + all pairs + the full stack;
// 1 reproduces the historical scalar axis), -defenses restricts the
// base defenses the lattice composes ("none" — the always-present
// undefended baseline — is accepted too), and -defense-sets instead
// picks exact stacks by canonical key (e.g. 0x20+shuffle; component
// order and case don't matter). The transport axis sweeps the chain's
// upstream transports — udp,tcp,dot,doh,doq (uniform), mixed (a
// plaintext front hop before an encrypted recursive) and opp (an
// opportunistic DoT chain) — and -downgrade reruns every cell under
// active downgrade pressure (opportunistic hops stripped back to
// plaintext UDP before the attack). The deployment axis replaces the
// per-cell binary toggles with sampled populations: -deployments
// sweeps named datasets (canonical,measured,hardened) that draw each
// trial world's SAV, 0x20/DNSSEC retention and forwarder port spans
// from measured rates — unlike the other filters, empty means the
// canonical (unsampled) dataset only. Unknown keys on any filter flag
// fail with the dimension's valid-key list.
//
// -serve starts the resident sweep server instead of a one-shot run:
// experiments are submitted as HTTP requests (GET /run/{experiment}
// with the flag names above as query parameters) and stream back
// newline-delimited JSON — progress events, then the report. Campaign
// cells are memoized in a content-addressed cache, so overlapping
// filtered sweeps submitted over the server's lifetime recompute only
// cells no earlier request covered, byte-identical to cold runs.
// -checkpoint persists that cache across restarts (written every
// -checkpoint-every while dirty, and flushed on shutdown — Ctrl-C
// drains the job queue and writes a final checkpoint before exiting).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"crosslayer"
	"crosslayer/internal/report"
)

// sequenceDemos are the figures that are message sequences, not
// regenerable artifacts: the CLI points at their runnable example.
var sequenceDemos = map[string]string{
	"fig1": "Figure 1 is the SadDNS message sequence; run:  go run ./examples/saddns",
	"fig2": "Figure 2 is the FragDNS message sequence; run:  go run ./examples/fragdns",
}

func main() {
	// xlmain returns an exit code instead of calling os.Exit directly so
	// its defers — in particular the profile writers — run on every exit
	// path, including failed runs.
	os.Exit(xlmain())
}

func xlmain() int {
	exp := flag.String("exp", "all", "experiment to regenerate (see -list)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	format := flag.String("format", "text", "output renderer: text|json|csv|md")
	n := flag.Int("n", 10000, "sample cap per dataset; 0 = full paper-size populations, up to 1.58M (see DESIGN.md)")
	seed := flag.Int64("seed", 42, "population seed")
	parallel := flag.Int("parallel", 0, "shard workers; 0 = GOMAXPROCS (never changes results)")
	shardSize := flag.Int("shard-size", 0, "population items per simulation shard; 0 = engine default")
	sadPorts := flag.Int("sad-ports", 0, "resolver port span the end-to-end SadDNS runs scan; 0 = per-experiment default")
	quiet := flag.Bool("quiet", false, "suppress per-dataset progress on stderr")
	methods := flag.String("methods", "", "campaign: comma-separated method keys (empty = all)")
	victims := flag.String("victims", "", "campaign: comma-separated victim keys (empty = all)")
	profiles := flag.String("profiles", "", "campaign: comma-separated resolver profile keys (empty = all)")
	defenses := flag.String("defenses", "", "campaign: comma-separated base-defense keys bounding the stacking lattice (empty = all)")
	defenseSets := flag.String("defense-sets", "", "campaign: comma-separated exact defense stacks, e.g. 0x20+shuffle (overrides the lattice; empty = lattice)")
	latticeRank := flag.Int("lattice-rank", 0, "campaign: max stacked defenses per set; 0 = default (singletons + pairs + full stack), 1 = scalar axis")
	chainDepths := flag.String("chain-depths", "", "campaign: comma-separated forwarder-chain depths 0-3 (empty = all)")
	placement := flag.String("placement", "", "campaign: comma-separated attacker placements stub,carrier (empty = all)")
	trials := flag.Int("trials", 0, "campaign: attack trials per cell; 0 = default (3)")
	transports := flag.String("transports", "", "campaign: comma-separated upstream transports udp,tcp,dot,doh,doq,mixed,opp (empty = all)")
	deployments := flag.String("deployments", "", "campaign: comma-separated deployment datasets canonical,measured,hardened (empty = canonical only)")
	downgrade := flag.Bool("downgrade", false, "campaign: run cells under active transport-downgrade pressure")
	serveMode := flag.Bool("serve", false, "run the resident sweep server instead of a one-shot experiment")
	addr := flag.String("addr", "127.0.0.1:8053", "serve: HTTP listen address")
	checkpoint := flag.String("checkpoint", "", "serve: cell-cache checkpoint file (empty = no persistence)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "serve: periodic checkpoint interval; 0 = default (30s)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (see DESIGN.md: profiling the trial hot path)")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range crosslayer.ListExperiments() {
			fmt.Printf("%-12s %s\n", e.Name, e.Title)
		}
		return 0
	}

	// Ctrl-C cancels in-flight sweeps at the next shard boundary; the
	// run then exits non-zero through the normal error path. In serve
	// mode the same cancellation drains the job queue and flushes the
	// final checkpoint before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *serveMode {
		srv := crosslayer.NewSweepServer(crosslayer.SweepServerConfig{
			Addr:            *addr,
			CheckpointPath:  *checkpoint,
			CheckpointEvery: *checkpointEvery,
			Log:             os.Stderr,
		})
		if err := srv.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	// The filter flags parse once: empty means the full axis, and a
	// value with no usable key (",") fails like an unknown key would.
	base := crosslayer.ExperimentSpec{
		SampleCap:   *n,
		Seed:        *seed,
		Parallelism: *parallel,
		ShardSize:   *shardSize,
		SadPorts:    *sadPorts,
		Trials:      *trials,
		LatticeRank: *latticeRank,
		Downgrade:   *downgrade,
	}
	for _, f := range []struct {
		name string
		val  string
		dst  *[]string
	}{
		{"methods", *methods, &base.Methods},
		{"victims", *victims, &base.Victims},
		{"profiles", *profiles, &base.Profiles},
		{"defenses", *defenses, &base.Defenses},
		{"defense-sets", *defenseSets, &base.DefenseSets},
		{"chain-depths", *chainDepths, &base.ChainDepths},
		{"placement", *placement, &base.Placements},
		{"transports", *transports, &base.Transports},
		{"deployments", *deployments, &base.Deployments},
	} {
		keys, err := report.SplitKeys(f.val)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-%s: %v\n", f.name, err)
			return 1
		}
		*f.dst = keys
	}

	// spec executes one experiment under the engine, labelling progress
	// lines with the experiment name.
	spec := func(experiment string) crosslayer.ExperimentSpec {
		s := base
		if !*quiet {
			s.Progress = progressPrinter(experiment)
		}
		return s
	}

	// run executes and renders one experiment, reporting whether it
	// succeeded.
	run := func(name string) bool {
		rep, err := crosslayer.RunContext(ctx, name, spec(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		out, err := crosslayer.RenderReport(rep, *format)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		os.Stdout.Write(out)
		if *format == "text" {
			// Notes are metadata the byte-stable text artifact omits;
			// surface them after it, like the historical CLI did.
			for _, note := range rep.Notes {
				fmt.Println(note)
			}
		}
		return true
	}

	if *exp == "all" {
		// The section banners are narration: with the text renderer
		// they frame the artifacts on stdout as they always did, but
		// machine-readable formats keep stdout pure (the banners move
		// to stderr so concatenated documents stay parseable).
		banner := os.Stdout
		if *format != "text" {
			banner = os.Stderr
		}
		for _, e := range crosslayer.ListExperiments() {
			fmt.Fprintf(banner, "\n######## %s ########\n", strings.ToUpper(e.Name))
			if !run(e.Name) {
				return 1
			}
		}
		return 0
	}
	if msg, ok := sequenceDemos[*exp]; ok {
		fmt.Println(msg)
		return 0
	}
	if !known(*exp) {
		// Usage error, not run failure: print the registry's
		// valid-key listing and exit 2 like every other bad flag.
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", *exp, strings.Join(registryNames(), ", "))
		return 2
	}
	if !run(*exp) {
		return 1
	}
	return 0
}

// known reports whether name is a registered experiment.
func known(name string) bool {
	for _, e := range crosslayer.ListExperiments() {
		if e.Name == name {
			return true
		}
	}
	return false
}

// registryNames returns the registered experiment names in canonical
// order.
func registryNames() []string {
	var names []string
	for _, e := range crosslayer.ListExperiments() {
		names = append(names, e.Name)
	}
	return names
}

// progressPrinter renders per-dataset shard completions on stderr: a
// carriage-return ticker while a dataset scan is in flight, finalized
// with a newline when its last shard lands. Progress goes to stderr so
// redirected artifact output stays clean and byte-stable in every
// format.
func progressPrinter(experiment string) func(crosslayer.ExperimentProgress) {
	return func(ev crosslayer.ExperimentProgress) {
		fmt.Fprintf(os.Stderr, "\r[%s] %-22s %d items, shard %d/%d",
			experiment, ev.Dataset, ev.Items, ev.DoneShards, ev.TotalShards)
		if ev.DoneShards == ev.TotalShards {
			fmt.Fprintln(os.Stderr)
		}
	}
}
