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
// fail the run (exit 1) with the dimension's valid-key list; a filter
// value with no usable key at all (",") is a usage error and exits 2
// with the usage text, like any other bad flag.
//
// -serve starts the resident sweep server instead of a one-shot run:
// experiments are submitted as HTTP requests (GET /run/{experiment}
// with the run flags above as query parameters) and stream back
// newline-delimited JSON — progress events, then the report. The run
// flags and the query parameters are one table (report.Spec.Bind), so
// a request with no parameters runs exactly what xlmeasure runs with
// no flags, seed 42 and -n 10000 included. Campaign
// cells are memoized in a content-addressed cache, so overlapping
// filtered sweeps submitted over the server's lifetime recompute only
// cells no earlier request covered, byte-identical to cold runs.
// -checkpoint persists that cache across restarts (written every
// -checkpoint-every while dirty, and flushed on shutdown — Ctrl-C
// drains the job queue and writes a final checkpoint before exiting).
// With -serve only -addr, -checkpoint, -checkpoint-every, -cpuprofile
// and -memprofile mean something: any other flag, a run flag such as
// -seed included, exits 2 naming it, because every request starts from
// the defaults and its own query parameters.
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
	"time"

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

// options holds the command line.
type options struct {
	exp, format, addr, checkpoint, cpuprofile, memprofile string
	list, quiet, serve                                    bool
	checkpointEvery                                       time.Duration
	spec                                                  report.Spec
}

// bind registers every flag on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment to regenerate (see -list)")
	fs.BoolVar(&o.list, "list", false, "list the registered experiments and exit")
	fs.StringVar(&o.format, "format", "text", "output renderer: text|json|csv|md")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-dataset progress on stderr")
	fs.BoolVar(&o.serve, "serve", false, "run the resident sweep server instead of a one-shot experiment")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8053", "serve: HTTP listen address")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "serve: cell-cache checkpoint file (empty = no persistence)")
	fs.DurationVar(&o.checkpointEvery, "checkpoint-every", 0, "serve: periodic checkpoint interval; 0 = default (30s)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (see DESIGN.md: profiling the trial hot path)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation (heap) profile to this file on exit")
	// The run parameters come from the one table the server shares. A
	// filter value with no usable key (",") is a usage error.
	o.spec = report.DefaultSpec()
	o.spec.Bind(fs)
}

// serveFlags are the flags that mean something with -serve.
var serveFlags = map[string]bool{
	"serve": true, "addr": true, "checkpoint": true, "checkpoint-every": true,
	"cpuprofile": true, "memprofile": true,
}

// serveFlagError names the first flag set on fs that would have no
// effect with -serve, or returns nil. The server binds each request's
// run parameters from the defaults and the request's query, so a run
// flag given to -serve would otherwise be dropped without a word.
func serveFlagError(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !serveFlags[f.Name] {
			err = fmt.Errorf("flag -%s has no effect with -serve", f.Name)
		}
	})
	return err
}

func xlmain() int {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	// A flag the server would ignore is a usage error; -list still
	// lists, as it does before every other mode.
	if o.serve && !o.list {
		if err := serveFlagError(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
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
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
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

	if o.list {
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

	if o.serve {
		srv := crosslayer.NewSweepServer(crosslayer.SweepServerConfig{
			Addr:            o.addr,
			CheckpointPath:  o.checkpoint,
			CheckpointEvery: o.checkpointEvery,
			Log:             os.Stderr,
		})
		if err := srv.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	// spec executes one experiment under the engine, labelling progress
	// lines with the experiment name.
	spec := func(experiment string) crosslayer.ExperimentSpec {
		s := o.spec
		if !o.quiet {
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
		out, err := crosslayer.RenderReport(rep, o.format)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		os.Stdout.Write(out)
		if o.format == "text" {
			// Notes are metadata the byte-stable text artifact omits;
			// surface them after it, like the historical CLI did.
			for _, note := range rep.Notes {
				fmt.Println(note)
			}
		}
		return true
	}

	if o.exp == "all" {
		// The section banners are narration: with the text renderer
		// they frame the artifacts on stdout as they always did, but
		// machine-readable formats keep stdout pure (the banners move
		// to stderr so concatenated documents stay parseable).
		banner := os.Stdout
		if o.format != "text" {
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
	if msg, ok := sequenceDemos[o.exp]; ok {
		fmt.Println(msg)
		return 0
	}
	if _, ok := report.Get(o.exp); !ok {
		// Usage error, not run failure: print the registry's
		// valid-key listing and exit 2 like every other bad flag.
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", o.exp, strings.Join(report.Names(), ", "))
		return 2
	}
	if !run(o.exp) {
		return 1
	}
	return 0
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
