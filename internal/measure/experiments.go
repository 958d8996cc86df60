package measure

import (
	"context"

	"crosslayer/internal/report"
)

// This file wires the measurement harness into the experiment
// registry: every table and figure of the paper's evaluation — plus
// the same-prefix and forwarder population studies — self-registers
// under its canonical name, in artifact order. The campaign sweep
// registers from internal/campaign (which imports this package, so
// the registry always lists the measure artifacts first).

// Per-experiment defaults for the end-to-end SadDNS runs (the paper's
// resolvers expose ~28k ephemeral ports; the scans are linear in the
// range, so the defaults keep the registry runs tractable while
// Spec.SadPorts can widen them).
const (
	defaultTable6SadPorts     = 2000
	defaultSameHijackSadPorts = 400
)

func sadPorts(spec report.Spec, def int) int {
	if spec.SadPorts > 0 {
		return spec.SadPorts
	}
	return def
}

// register adds a population experiment: run builds its report under
// the spec's engine Config, and the spec's base params are recorded on
// it.
func register(name, title string, run func(context.Context, Config) (*report.Report, error)) {
	report.Register(report.Experiment{Name: name, Title: title,
		Run: func(ctx context.Context, spec report.Spec) (*report.Report, error) {
			rep, err := run(ctx, ConfigFromSpec(spec))
			if err != nil {
				return nil, err
			}
			return report.BaseParams(rep, spec), nil
		}})
}

func init() {
	report.Register(report.Experiment{
		Name: "table1", Title: "Table 1: applications attackable via DNS cache poisoning",
		Run: func(ctx context.Context, spec report.Spec) (*report.Report, error) {
			// Static paper matrix: no population, no params.
			return Table1(), nil
		},
	})
	report.Register(report.Experiment{
		Name: "table2", Title: "Table 2: middlebox query-triggering survey",
		Run: func(ctx context.Context, spec report.Spec) (*report.Report, error) {
			return Table2(), nil
		},
	})
	register("table3", "Table 3: vulnerable resolvers per dataset", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, err := Table3Run(ctx, cfg)
		return rep, err
	})
	register("table4", "Table 4: vulnerable domains per dataset", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, err := Table4Run(ctx, cfg)
		return rep, err
	})
	register("table5", "Table 5: ANY-caching behaviour per resolver implementation", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, err := Table5Run(ctx, cfg)
		return rep, err
	})
	report.Register(report.Experiment{
		Name: "table6", Title: "Table 6: cache-poisoning method comparison",
		Run: func(ctx context.Context, spec report.Spec) (*report.Report, error) {
			ports := sadPorts(spec, defaultTable6SadPorts)
			rep, _, err := Table6Run(ctx, ConfigFromSpec(spec), ports)
			if err != nil {
				return nil, err
			}
			return report.BaseParams(rep, spec).AddParam("sad_ports", ports), nil
		},
	})
	register("fig3", "Figure 3: announced covering-prefix lengths", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, err := Figure3Run(ctx, cfg)
		return rep, err
	})
	register("fig4", "Figure 4: EDNS buffer sizes vs minimum fragment sizes", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, _, err := Figure4Run(ctx, cfg)
		return rep, err
	})
	register("fig5", "Figure 5: vulnerability overlap across methods", func(ctx context.Context, cfg Config) (*report.Report, error) {
		rep, _, _, err := Figure5Run(ctx, cfg)
		return rep, err
	})
	report.Register(report.Experiment{
		Name: "samehijack", Title: "Same-prefix BGP interception study (§5.1.2)",
		Run: runSameHijack,
	})
	report.Register(report.Experiment{
		Name: "forwarders", Title: "Open-forwarder reachability and cache-sharing study (§4.3)",
		Run: runForwarders,
	})
}

// runSameHijack builds the same-prefix interception report: the three
// end-to-end attacks plus the topology simulation, reduced to the one
// rate the paper quotes (~80%).
func runSameHijack(ctx context.Context, spec report.Spec) (*report.Report, error) {
	ports := sadPorts(spec, defaultSameHijackSadPorts)
	cmp, err := RunComparison(ctx, ConfigFromSpec(spec), ports)
	if err != nil {
		return nil, err
	}
	rep := report.New("samehijack", "Same-prefix BGP interception study (§5.1.2)")
	report.BaseParams(rep, spec).AddParam("sad_ports", ports)
	rep.AddSection(report.Table("", "Same-prefix hijack interception",
		report.Col("Metric", report.KindString),
		report.Col("Measured", report.KindPct1),
		report.Col("Paper", report.KindString))).
		Add("Interception over random (stub victim, carrier attacker) AS pairs", cmp.SamePrefixRate, "~80%")
	return rep, nil
}

// runForwarders builds the forwarder-study report: the §4.3
// population estimates plus the dynamic end-to-end chain checks. The
// three stages are not shard jobs, so cancellation is honoured
// between them.
func runForwarders(ctx context.Context, spec report.Spec) (*report.Report, error) {
	if spec.SampleCap <= 0 {
		spec.SampleCap = 10000 // so the report records the size the study ran at
	}
	reach, shared := ForwarderStudy(spec.SampleCap, spec.Seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := report.New("forwarders", "Open-forwarder reachability and cache-sharing study (§4.3)")
	report.BaseParams(rep, spec)
	rep.AddSection(report.Table("population", "Forwarder population estimates",
		report.Col("Metric", report.KindString),
		report.Col("Measured", report.KindPct1),
		report.Col("Paper", report.KindString))).
		Add("Recursive resolvers reachable via an open forwarder", reach, "79%").
		Add("Open resolvers with cross-application shared caches", shared, "69%")
	yn := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "no"
	}
	pathOK := VerifyForwarderPath(spec.Seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.AddSection(report.Table("checks", "Dynamic end-to-end checks",
		report.StrCols("Check", "Passed")...)).
		Add("Forwarder trigger reaches the recursive resolver", yn(pathOK)).
		Add("Depth-3 forwarder chain resolves and fills every per-hop cache", yn(VerifyForwarderChain(spec.Seed, 3)))
	return rep, nil
}
