package measure

import (
	"context"

	"crosslayer/internal/engine"
	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

// prefixLenCDF synthesizes (without scanning) the resolver population
// of one dataset shard-by-shard and returns the CDF of announced
// covering-prefix lengths, merged in shard order.
func prefixLenCDF(ctx context.Context, spec ResolverDatasetSpec, n int, cfg Config) (*stats.CDF, error) {
	parts, err := engine.RunCtx(ctx, cfg.job(spec.Name, n), func(sh engine.Shard) *stats.CDF {
		fleet := NewResolverFleetShard(spec, sh)
		lens := make([]float64, 0, len(fleet.Resolvers))
		for _, sr := range fleet.Resolvers {
			lens = append(lens, float64(sr.AnnouncedPrefix.Bits()))
		}
		return stats.NewCDF(lens)
	})
	if err != nil {
		return nil, err
	}
	return stats.MergeCDFs(parts...), nil
}

// nsPrefixLenCDF is prefixLenCDF for a domain (nameserver) dataset.
func nsPrefixLenCDF(ctx context.Context, spec DomainDatasetSpec, n int, cfg Config) (*stats.CDF, error) {
	parts, err := engine.RunCtx(ctx, cfg.job(spec.Name, n), func(sh engine.Shard) *stats.CDF {
		fleet := NewDomainFleetShard(spec, sh)
		lens := make([]float64, 0, len(fleet.Domains))
		for _, d := range fleet.Domains {
			lens = append(lens, float64(d.AnnouncedPrefix.Bits()))
		}
		return stats.NewCDF(lens)
	})
	if err != nil {
		return nil, err
	}
	return stats.MergeCDFs(parts...), nil
}

// barColumns is the fixed column set of every LayoutBars figure
// section: curve label, curve sample count, x tick, plotted value.
func barColumns() []report.Column {
	return []report.Column{
		report.Col("curve", report.KindString),
		report.Col("n", report.KindInt),
		report.Col("x", report.KindFloat),
		report.Col("value", report.KindFloat),
	}
}

// Figure3Run builds the Figure 3 Report under an explicit execution
// Config: one bars section, one group per population curve, the
// per-prefix-length share as the plotted value.
func Figure3Run(ctx context.Context, cfg Config) (*report.Report, map[string]*stats.CDF, error) {
	specs := Table3Datasets()
	// The resolver curves use the datasets' Table 3 seed offsets (6, 7)
	// so they describe the same populations Table 3 scans; the
	// nameserver curve keeps its historical +100 offset and is an
	// independent draw from the Alexa spec, NOT the population of
	// Table 4's row 1 (offset +1).
	openCDF, err := prefixLenCDF(ctx, specs[7], cfg.cap(specs[7].PaperSize), cfg.forDataset(7))
	if err != nil {
		return nil, nil, err
	}
	adnetCDF, err := prefixLenCDF(ctx, specs[6], cfg.cap(specs[6].PaperSize), cfg.forDataset(6))
	if err != nil {
		return nil, nil, err
	}
	dspec := Table4Datasets()[1] // Alexa 1M nameservers
	nsCDF, err := nsPrefixLenCDF(ctx, dspec, cfg.cap(dspec.PaperSize), cfg.forDataset(100))
	if err != nil {
		return nil, nil, err
	}

	curves := map[string]*stats.CDF{"open": openCDF, "adnet": adnetCDF, "alexa-ns": nsCDF}

	rep := report.New("fig3", "Figure 3: announced covering-prefix lengths")
	sec := rep.AddSection(&report.Section{
		Title:   "Figure 3: Announced prefixes (fraction per length)",
		Layout:  report.LayoutBars,
		Columns: barColumns(),
		Bars:    &report.BarSpec{Scale: 100, Width: 50, Prefix: "/", XFormat: "%-2.0f"},
	})
	for _, c := range []struct {
		label string
		cdf   *stats.CDF
	}{
		{"Resolvers: Open resolver", openCDF},
		{"Resolvers: Adnet", adnetCDF},
		{"Nameservers: Alexa", nsCDF},
	} {
		prev := 0.0
		for b := 11; b <= 24; b++ {
			p := c.cdf.At(float64(b))
			sec.Add(c.label, c.cdf.Len(), float64(b), p-prev)
			prev = p
		}
	}
	return rep, curves, nil
}

// Figure4Run builds the Figure 4 Report under an explicit execution
// Config: one bars section, the cumulative fraction at each size
// breakpoint per curve.
func Figure4Run(ctx context.Context, cfg Config) (*report.Report, *stats.CDF, *stats.CDF, error) {
	// Resolver EDNS sizes: measured server-side during the frag scan of
	// the open-resolver dataset.
	spec := Table3Datasets()[7]
	rres, err := ScanResolverDataset(ctx, spec, cfg.cap(spec.PaperSize), cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	edns := stats.NewCDF(rres.EDNSSizes)

	// Nameserver min fragment sizes: PMTUD sweep over the eduroam
	// dataset (the most fragmentation-prone one).
	dspec := Table4Datasets()[0]
	dres, err := ScanDomainDataset(ctx, dspec, cfg.cap(dspec.PaperSize), cfg.forDataset(1))
	if err != nil {
		return nil, nil, nil, err
	}
	frag := stats.NewCDF(dres.MinFragSizes)

	rep := report.New("fig4", "Figure 4: EDNS buffer sizes vs minimum fragment sizes")
	sec := rep.AddSection(&report.Section{
		Title:   "Figure 4: resolver EDNS UDP size vs minimum fragment size",
		Layout:  report.LayoutBars,
		Columns: barColumns(),
		Bars:    &report.BarSpec{Scale: 40, Width: 40, XFormat: "%6.0f"},
	})
	xs := []float64{68, 292, 548, 1500, 2048, 3072, 4096}
	for _, c := range []struct {
		label string
		cdf   *stats.CDF
	}{
		{"EDNS size of resolvers", edns},
		{"minimum fragment size of nameservers", frag},
	} {
		for _, x := range xs {
			sec.Add(c.label, c.cdf.Len(), x, c.cdf.At(x))
		}
	}
	return rep, edns, frag, nil
}

// Figure5Run builds the Figure 5 Report under an explicit execution
// Config: the per-dataset Venn partitions are computed independently,
// merged, and laid out as one kv section with a group per panel.
func Figure5Run(ctx context.Context, cfg Config) (*report.Report, stats.Venn3, stats.Venn3, error) {
	labels := [3]string{"HijackDNS", "SadDNS", "FragDNS"}
	rv := stats.Venn3{Labels: labels}
	_, rres, err := Table3Run(ctx, cfg)
	if err != nil {
		return nil, stats.Venn3{}, stats.Venn3{}, err
	}
	for _, r := range rres {
		rv = rv.Merge(stats.NewVenn3(labels, r.Membership))
	}
	dv := stats.Venn3{Labels: labels}
	_, dres, err := Table4Run(ctx, cfg.forDataset(50))
	if err != nil {
		return nil, stats.Venn3{}, stats.Venn3{}, err
	}
	for _, d := range dres {
		dv = dv.Merge(stats.NewVenn3(labels, d.Membership))
	}

	rep := report.New("fig5", "Figure 5: vulnerability overlap across methods")
	sec := rep.AddSection(&report.Section{
		Layout: report.LayoutKV,
		Columns: []report.Column{
			report.Col("panel", report.KindString),
			report.Col("region", report.KindString),
			report.Col("count", report.KindInt),
		},
	})
	addVenn(sec, "Figure 5a: vulnerable resolvers (sampled)", rv)
	addVenn(sec, "Figure 5b: vulnerable domains (sampled)", dv)
	return rep, rv, dv, nil
}

// addVenn lays a Venn3 partition out as kv rows, in the region order
// stats.Venn3.String historically printed.
func addVenn(sec *report.Section, panel string, v stats.Venn3) {
	sec.Add(panel, v.Labels[0]+" only", v.OnlyA)
	sec.Add(panel, v.Labels[1]+" only", v.OnlyB)
	sec.Add(panel, v.Labels[2]+" only", v.OnlyC)
	sec.Add(panel, v.Labels[0]+"∩"+v.Labels[1], v.AB)
	sec.Add(panel, v.Labels[0]+"∩"+v.Labels[2], v.AC)
	sec.Add(panel, v.Labels[1]+"∩"+v.Labels[2], v.BC)
	sec.Add(panel, "all three", v.ABC)
	sec.Add(panel, "union", v.Total())
}
