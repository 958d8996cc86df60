package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crosslayer/internal/apps"
	"crosslayer/internal/campaign"
	"crosslayer/internal/engine"
	"crosslayer/internal/measure"
	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

// workloadInfo names a workload and says why it is in the benchmark;
// BENCHMARK.json repeats both.
type workloadInfo struct {
	name, why string
}

var workloadInfos = []workloadInfo{
	{"sweep-reset", "400 cheap hijack cells per job: world build, Reset, deployment sampling and victim exercise dominate; flood-path work should not move it"},
	{"sweep-flood", "8 SadDNS/FragDNS cells per job run ~70k spoofed packets a trial through sim, netsim, pool and resolver; build and reset cost is negligible"},
	{"measure-fleet", "Figure 5 resolver and domain fleet scans through report.Run; bypasses campaign and scenario entirely"},
	{"serve-overlap", "open-loop overlapping sweeps against the resident server: cell-cache hits beside cold cells, report JSON and NDJSON streaming"},
}

// jobID identifies one job of a workload's job stream. stream is the
// stream seed: the timed jobs and the warm-up jobs of a run use
// different streams, so warm-up never computes a timed job's cells.
type jobID struct {
	stream  int64
	index   int
	workers int
}

// streams derives the timed and warm-up stream seeds from the
// benchmark's --seed.
func streams(seed int64) (timed, warm int64) {
	return engine.DeriveSeedKey(seed, "timed"), engine.DeriveSeedKey(seed, "warm-up")
}

// pick cycles through keys in job order, from an offset the stream
// fixes.
func pick(keys []string, id jobID) string {
	return keys[(int(uint64(id.stream)%uint64(len(keys)))+id.index)%len(keys)]
}

var (
	victimKeys  = keysOf(apps.Victims(), func(v apps.Victim) string { return v.Key })
	profileKeys = keysOf(campaign.Profiles(), func(p campaign.ProfileEntry) string { return p.Key })
)

func keysOf[T any](xs []T, key func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = key(x)
	}
	return out
}

// jobOut is what a closed-loop job returned.
type jobOut struct {
	call  time.Duration // duration of the public entry-point call
	items int
	rep   *report.Report
	doc   []byte // report.JSON(rep): the digest input
	cells []campaign.CellResult
	prog  []report.Progress // fleet jobs: the last event of each dataset scan
}

// closedLoad is a workload whose one client sends its next job as soon
// as the previous one returned.
type closedLoad struct {
	run    func(ctx context.Context, id jobID) (jobOut, error)
	replay func(ctx context.Context, id jobID, real jobOut, tr *tracer, c *counts) error
	// family and rates judge outcomes that are random per trial on a
	// whole run instead of per job: family names the group whose
	// poisoned trials a cell adds to ("" for none), rates checks the
	// run's totals.
	family func(campaign.CellResult) string
	rates  func(map[string]stats.Counter) error
}

// campaignLoad runs campaign jobs through campaign.RunContext and
// campaign.Report, the calls the resident server makes. cells is the
// job's planned cell count; check adds the workload's semantic checks.
func campaignLoad(spec func(jobID) report.Spec, cells int, check func(campaign.CellResult) error) closedLoad {
	return closedLoad{
		run: func(ctx context.Context, id jobID) (jobOut, error) {
			s := spec(id)
			out, err := runCampaign(ctx, s)
			if err != nil {
				return out, err
			}
			return out, checkCampaign(out, s.Trials, cells, check)
		},
		replay: func(ctx context.Context, id jobID, real jobOut, tr *tracer, c *counts) error {
			return replayCampaign(ctx, spec(id), real, tr, c)
		},
	}
}

func runCampaign(ctx context.Context, spec report.Spec) (jobOut, error) {
	var out jobOut
	start := time.Now()
	cells, err := campaign.RunContext(ctx, campaign.ConfigFromSpec(spec))
	out.call = time.Since(start)
	if err != nil {
		return out, err
	}
	out.cells = cells
	out.rep = campaign.Report(cells, spec)
	if out.doc, err = report.JSON(out.rep); err != nil {
		return out, err
	}
	for _, c := range cells {
		out.items += c.Trials
	}
	return out, nil
}

// checkCampaign verifies a campaign job's output: the planned cell and
// trial counts, the report's seven sections, and the workload's
// per-cell expectations.
func checkCampaign(out jobOut, trials, cells int, check func(campaign.CellResult) error) error {
	if len(out.cells) != cells {
		return fmt.Errorf("got %d cells, planned %d", len(out.cells), cells)
	}
	if n := len(out.rep.Sections); n != campaignSections {
		return fmt.Errorf("report has %d sections, want %d", n, campaignSections)
	}
	for _, c := range out.cells {
		if c.Trials != trials || c.Poisoned.Total != trials || c.Iterations.Len() != trials {
			return fmt.Errorf("cell %s/%s/%s/%s/%s: %d trials run, planned %d",
				c.Method, c.Victim, c.Profile, c.Defense, c.Depth, c.Poisoned.Total, trials)
		}
		if err := check(c); err != nil {
			return fmt.Errorf("cell %s/%s/%s/%s/%s/%s/%s: %w", c.Method, c.Victim, c.Profile,
				c.Defense, c.Depth, c.Placement, c.Deployment, err)
		}
	}
	return nil
}

// campaignSections is the section count of every campaign report:
// matrix, summary, depth, transport, deploy and the two lattice views.
const campaignSections = 7

// sweepResetSpec: hijack against one victim (cycling through all ten)
// × 5 profiles × rank-1 defense sets × depths 0–3 × both placements ×
// udp × canonical and measured deployments, 4 trials: 400 cells.
func sweepResetSpec(id jobID) report.Spec {
	return report.Spec{
		Seed:        engine.DeriveSeed(id.stream, id.index),
		Parallelism: id.workers,
		Methods:     []string{"hijack"},
		Victims:     []string{pick(victimKeys, id)},
		Placements:  []string{"stub", "carrier"},
		Transports:  []string{"udp"},
		Deployments: []string{"canonical", "measured"},
		Trials:      4,
		LatticeRank: 1,
	}
}

// checkSweepReset: on the canonical deployment a BGP hijack poisons
// every trial, unless the cell's defense set validates DNSSEC, which
// stops it in every trial.
func checkSweepReset(c campaign.CellResult) error {
	if c.Deployment != "canonical" {
		return nil
	}
	want := c.Poisoned.Total
	if strings.Contains(c.Defense, "dnssec") {
		want = 0
	}
	if c.Poisoned.Hits != want {
		return fmt.Errorf("hijack poisoned %d of %d trials, want %d", c.Poisoned.Hits, c.Poisoned.Total, want)
	}
	return nil
}

// sweepFloodSpec: saddns and frag against the web victim, one profile
// (cycling through all five), defense sets none and 0x20, depths 0 and
// 1, stub placement, udp, 2 trials: 8 cells.
func sweepFloodSpec(id jobID) report.Spec {
	return report.Spec{
		Seed:        engine.DeriveSeed(id.stream, id.index),
		Parallelism: id.workers,
		Methods:     []string{"saddns", "frag"},
		Victims:     []string{"web"},
		Profiles:    []string{pick(profileKeys, id)},
		DefenseSets: []string{"none", "0x20"},
		ChainDepths: []string{"0", "1"},
		Placements:  []string{"stub"},
		Transports:  []string{"udp"},
		Trials:      2,
	}
}

// checkSweepFlood: dnsmasq's 1280-byte EDNS buffer never lets FragDNS
// fragment.
func checkSweepFlood(c campaign.CellResult) error {
	if c.Method == "frag" && c.Profile == "dnsmasq" && c.Poisoned.Hits != 0 {
		return fmt.Errorf("frag poisoned dnsmasq in %d trials", c.Poisoned.Hits)
	}
	return nil
}

// floodFamily groups the SadDNS cells defended by 0x20 by chain depth.
func floodFamily(c campaign.CellResult) string {
	if c.Method == "saddns" && c.Defense == "0x20" {
		return "depth " + c.Depth
	}
	return ""
}

// checkFloodRates: 0x20 stops SadDNS at the resolver, but a depth-1
// chain moves the injection to the forwarder and bypasses it. 0x20 is
// not absolute — a short name carries few letters to randomise, and a
// trial now and then still lands — so this is judged on the run.
func checkFloodRates(t map[string]stats.Counter) error {
	d0, d1 := t["depth 0"], t["depth 1"]
	if d0.Total == 0 || d1.Total == 0 || d0.Frac() > 0.1 || d1.Frac() < 0.5 {
		return fmt.Errorf("saddns against 0x20 poisoned %d/%d trials at depth 0 (want at most 10%%) and %d/%d at depth 1 (want at least 50%%)",
			d0.Hits, d0.Total, d1.Hits, d1.Total)
	}
	return nil
}

// Fleet jobs scan every Table 3 and Table 4 dataset capped at fleetCap
// items in shards of fleetShard, so the capped datasets have four
// shards each.
const (
	fleetCap   = 16
	fleetShard = 4
)

func fleetSpec(id jobID) report.Spec {
	return report.Spec{
		Seed:        engine.DeriveSeed(id.stream, id.index),
		Parallelism: id.workers,
		SampleCap:   fleetCap,
		ShardSize:   fleetShard,
	}
}

// fleetDataset is one dataset a Figure 5 job scans.
type fleetDataset struct {
	name      string
	paperSize int
	seed      int64
}

// fleetDatasets lists the datasets a Figure 5 job scans, in scan order,
// each with the seed it is scanned under: Table 3's at seed+i and Table
// 4's at seed+50+i, as measure.Figure5Run offsets them.
func fleetDatasets(seed int64) []fleetDataset {
	var out []fleetDataset
	for i, d := range measure.Table3Datasets() {
		out = append(out, fleetDataset{d.Name, d.PaperSize, seed + int64(i)})
	}
	for i, d := range measure.Table4Datasets() {
		out = append(out, fleetDataset{d.Name, d.PaperSize, seed + 50 + int64(i)})
	}
	return out
}

// fleetJob is the engine job measure plans for one dataset: the paper
// size capped at SampleCap, cut into ShardSize shards.
func fleetJob(spec report.Spec, d fleetDataset) engine.Job {
	n := d.paperSize
	if spec.SampleCap > 0 && n > spec.SampleCap {
		n = spec.SampleCap
	}
	return engine.Job{Items: n, ShardSize: spec.ShardSize, Seed: d.seed, Parallelism: spec.Parallelism}
}

var fleetLoad = closedLoad{
	run: func(ctx context.Context, id jobID) (jobOut, error) {
		var out jobOut
		spec := fleetSpec(id)
		start := time.Now()
		spec.Progress = func(p report.Progress) {
			if p.DoneShards == 1 {
				out.prog = append(out.prog, p)
			} else {
				out.prog[len(out.prog)-1] = p
			}
		}
		rep, err := report.Run(ctx, "fig5", spec)
		out.call = time.Since(start)
		if err != nil {
			return out, err
		}
		out.rep = rep
		if out.doc, err = report.JSON(rep); err != nil {
			return out, err
		}
		for _, p := range out.prog {
			out.items += p.Items
		}
		return out, checkFleet(spec, out)
	},
	replay: replayFleet,
}

// checkFleet verifies that every dataset was scanned, in order, at its
// capped size and in full.
func checkFleet(spec report.Spec, out jobOut) error {
	sets := fleetDatasets(spec.Seed)
	if len(out.prog) != len(sets) {
		return fmt.Errorf("%d dataset scans reported, want %d", len(out.prog), len(sets))
	}
	for i, p := range out.prog {
		job := fleetJob(spec, sets[i])
		shards := len(job.Shards())
		if p.Dataset != sets[i].name || p.Items != job.Items || p.DoneShards != shards || p.TotalShards != shards {
			return fmt.Errorf("dataset %d (%s): scanned %q %d items in %d/%d shards, want %d items in %d shards",
				i, sets[i].name, p.Dataset, p.Items, p.DoneShards, p.TotalShards, job.Items, shards)
		}
	}
	return nil
}

var closedLoads = map[string]closedLoad{
	"sweep-reset": campaignLoad(sweepResetSpec, 400, checkSweepReset),
	"sweep-flood": func() closedLoad {
		l := campaignLoad(sweepFloodSpec, 8, checkSweepFlood)
		l.family, l.rates = floodFamily, checkFloodRates
		return l
	}(),
	"measure-fleet": fleetLoad,
}
