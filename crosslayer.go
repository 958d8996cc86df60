// Package crosslayer is a research toolkit reproducing "From IP to
// Transport and Beyond: Cross-Layer Attacks Against Applications"
// (Dai, Jeitner, Shulman, Waidner — SIGCOMM 2021).
//
// It bundles, on a deterministic packet-level Internet simulator:
//
//   - the three off-path DNS cache-poisoning methodologies the paper
//     evaluates — BGP-interception (HijackDNS), the ICMP rate-limit
//     side channel (SadDNS) and IPv4-fragmentation injection (FragDNS);
//   - the full substrate they need: IPv4/UDP/ICMP wire formats, IP
//     defragmentation, host network stacks, Gao–Rexford BGP, RPKI,
//     authoritative nameservers and recursive resolvers with
//     per-implementation behaviour profiles;
//   - the application victims of the paper's Table 1 (email with
//     SPF/DKIM/DMARC, web, NTP, RADIUS/eduroam, XMPP, Bitcoin, VPN,
//     PKI domain validation, OCSP, RPKI relying parties, middleboxes);
//   - the §5 measurement harness that regenerates every table and
//     figure of the evaluation on calibrated synthetic populations.
//
// The facade below wires the canonical victim/attacker scenario; its
// HijackDNS, SadDNS and FragDNS methods build each methodology's
// attack, and its Trigger starts one. The example programs under
// examples/ show typical use, and cmd/xlmeasure regenerates the
// paper's tables.
//
// # Experiments
//
// Every evaluation artifact is a registered experiment: List
// Experiments enumerates the registry (tables 1–6, figures 3–5, the
// same-prefix and forwarder studies, the campaign sweep), and
// Run(name, spec) executes one by canonical name with a uniform
// (*Report, error) return. A Report is structured data — named
// sections of typed columns and rows — rendered on demand as text
// (byte-identical to the golden artifacts), JSON, CSV or Markdown:
//
//	rep, err := crosslayer.Run("table3", crosslayer.ExperimentSpec{SampleCap: 1000, Seed: 42})
//	if err != nil { ... }
//	fmt.Println(rep)                    // the paper's table, as text
//	data, _ := crosslayer.RenderReport(rep, "json")
//
// RunContext threads a context through the sharded engine, so a long
// sweep cancels at the next shard boundary.
//
// # Parallel runs
//
// The measurement harness executes on a sharded experiment engine
// (internal/engine): each population is cut into fixed-size shards,
// every shard owns a private simulated network on its own virtual
// clock, and shards run concurrently on a worker pool sized by
// GOMAXPROCS. Shard seeds derive deterministically from the base
// seed, and shard results merge in shard order, so a given
// ExperimentSpec{SampleCap, Seed, ShardSize} produces byte-identical
// tables and figures for ANY Parallelism — parallelism buys wall-clock
// time, never different numbers. This is what lifts the practical
// sample cap from a few hundred to tens of thousands of simulated
// resolvers/domains per dataset; see DESIGN.md for the full contract.
package crosslayer

import (
	"context"

	"crosslayer/internal/campaign"
	"crosslayer/internal/core"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/measure"
	"crosslayer/internal/report"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
	"crosslayer/internal/serve"
)

// Scenario is the canonical testbed of the paper's §3 setup: a victim
// AS with a recursive resolver and application hosts, the target
// domain vict.im with its authoritative nameserver in a second AS, and
// an adversarial AS without egress filtering.
type Scenario = scenario.S

// Config tunes scenario construction.
type Config = scenario.Config

// Result carries attack telemetry (success, packets, queries,
// duration) — the quantities compared in the paper's Table 6.
type Result = core.Result

// Well-known scenario addresses.
var (
	ResolverIP = scenario.ResolverIP
	AttackerIP = scenario.AttackerIP
	NSIP       = scenario.NSIP
	VictimWWW  = scenario.VictimWWW
)

// NewScenario builds the canonical scenario.
func NewScenario(cfg Config) *Scenario { return scenario.New(cfg) }

// Effort bounds an attack built by Scenario.SadDNS or
// Scenario.FragDNS: the resolver ports SadDNS scans, the triggered
// queries, and FragDNS's IP-ID guesses per trigger. A zero field keeps
// the attack's own default.
type Effort = scenario.Effort

// Poisoned reports whether the scenario's resolver cache holds an
// attacker-controlled record for name.
func Poisoned(s *Scenario, name string) bool {
	return s.Poisoned(name, dnswire.TypeA)
}

// ExperimentSpec is the uniform run configuration Run and RunContext
// dispatch to any registered experiment: the engine execution knobs
// (SampleCap bounds the population sampled per dataset, <= 0 scans
// the full paper-size populations up to 1.58M items; Seed selects the
// synthesized population; Parallelism/ShardSize tune the sharded
// engine) plus the campaign sweep dimensions, which experiments
// without those axes ignore. Output depends only on SampleCap, Seed,
// ShardSize and the sweep dimensions — never on Parallelism.
type ExperimentSpec = report.Spec

// Experiment is one registry entry: canonical name, one-line title,
// and the builder Run dispatches to.
type Experiment = report.Experiment

// Report is the structured result of an experiment run: name,
// parameters, sections of typed columns and rows, notes. Render it
// with String (text, byte-identical to the golden artifacts) or
// RenderReport (json, csv, md).
type Report = report.Report

// ListExperiments enumerates the registered experiments in canonical
// artifact order: tables 1–6, figures 3–5, the same-prefix and
// forwarder studies, and the campaign sweep.
func ListExperiments() []Experiment { return report.List() }

// Run executes the named experiment under the spec and returns its
// structured Report. Unknown names fail listing the valid registry
// keys; experiment failures propagate — nothing is swallowed.
func Run(name string, spec ExperimentSpec) (*Report, error) {
	return report.Run(context.Background(), name, spec)
}

// RunContext is Run under a cancellable context: population scans and
// campaign sweeps abort at the next shard boundary once ctx is
// cancelled, returning the context's error.
func RunContext(ctx context.Context, name string, spec ExperimentSpec) (*Report, error) {
	return report.Run(ctx, name, spec)
}

// RenderReport renders a Report in the named format: "text", "json",
// "csv" or "md".
func RenderReport(r *Report, format string) ([]byte, error) { return report.Render(r, format) }

// DecodeReport parses a JSON-rendered Report back into its structured
// form; re-rendering it as text reproduces the original bytes.
func DecodeReport(data []byte) (*Report, error) { return report.Decode(data) }

// ExperimentConfig is the execution-knob subset of ExperimentSpec the
// measurement packages consume directly (CampaignConfig.Exec).
type ExperimentConfig = measure.Config

// ExperimentProgress is the per-shard progress event an
// ExperimentConfig.Progress callback receives.
type ExperimentProgress = measure.ProgressEvent

// CampaignConfig controls a campaign sweep: the execution knobs (its
// Exec field is an ExperimentConfig), the method/app/profile/defense/
// chain-depth/placement/transport filters, the per-cell trial count,
// the defense-stacking lattice rank (LatticeRank 0 sweeps singletons,
// all pairs and the full stack; 1 is the historical scalar defense
// axis), and the Downgrade switch that reruns every cell under active
// transport-downgrade pressure. See RunCampaign.
type CampaignConfig = campaign.Config

// CampaignFilter restricts a campaign sweep to the named registry
// keys (empty dimensions mean "all"). The defense axis is set-valued:
// Defenses bounds the base defenses the stacking lattice composes,
// DefenseSets picks exact stacks by canonical key ("0x20+shuffle").
type CampaignFilter = campaign.Filter

// DefenseSpec is one composable §6 countermeasure of the scenario's
// defense pipeline: Config.Defenses stacks any number of them, and
// scenario construction applies each spec's hook in order.
type DefenseSpec = scenario.DefenseSpec

// Canonical defense specs (the §6 countermeasures) and the registry
// the campaign's stacking lattice composes.
var (
	DefenseDNSSEC  = scenario.DefenseDNSSEC
	Defense0x20    = scenario.Defense0x20
	DefenseNoRRL   = scenario.DefenseNoRRL
	DefenseShuffle = scenario.DefenseShuffle
	BaseDefenses   = scenario.BaseDefenses
)

// CampaignCell is one measured cell of the campaign matrix.
type CampaignCell = campaign.CellResult

// RunCampaign executes the method × victim × profile × defense-set ×
// chain-depth × placement × transport cross-product (optionally
// filtered) and returns the raw cells. Run("campaign", spec) is the
// registry form returning the assembled Report; this cells-level entry
// point exists for callers that aggregate their own views or render
// the cells later with CampaignReport. Output is byte-identical for any
// Parallelism, and filtered sweeps — including defense-set-filtered
// ones — reproduce the full sweep's cells exactly.
func RunCampaign(ctx context.Context, cfg CampaignConfig) ([]CampaignCell, error) {
	return campaign.RunContext(ctx, cfg)
}

// CampaignReport assembles the full campaign Report of a run's cells
// under the spec that selected them — the Report Run("campaign", spec)
// returns. Its named sections carry every view: the per-cell matrix
// ("matrix"), the method × defense, chain-depth, transport and
// deployment pivots ("summary", "depth", "transport", "deploy"), and
// the defense-stacking lattice ("lattice-sets", "lattice-marginal").
func CampaignReport(cells []CampaignCell, spec ExperimentSpec) *Report {
	return campaign.Report(cells, spec)
}

// DefaultServerConfig returns the baseline authoritative-server
// configuration; adjust RateLimit/PadAnswersTo to open the SadDNS and
// FragDNS attack surfaces.
func DefaultServerConfig() dnssrv.Config { return dnssrv.DefaultConfig() }

// SweepServerConfig configures a resident sweep server: listen
// address, and cell-cache checkpoint path and interval. See the serve
// package for the wire protocol.
type SweepServerConfig = serve.Config

// SweepServer is the campaign-as-a-service daemon behind xlmeasure
// -serve: it exposes the experiment registry over HTTP (NDJSON
// progress streaming), memoizes every campaign cell it computes in a
// content-addressed cache keyed by the cell's identity seed string —
// so overlapping filtered sweeps never recompute a shared cell, with
// results byte-identical to cold runs — and persists that cache
// across restarts through JSON checkpoints.
type SweepServer = serve.Server

// NewSweepServer builds a resident sweep server; run it with
// (*SweepServer).Run, which serves until its context is cancelled and
// then drains the job queue and flushes the final checkpoint.
func NewSweepServer(cfg SweepServerConfig) *SweepServer { return serve.New(cfg) }

// ProfileBIND and friends are the resolver implementation profiles of
// the paper's Table 5.
var (
	ProfileBIND     = resolver.ProfileBIND
	ProfileUnbound  = resolver.ProfileUnbound
	ProfilePowerDNS = resolver.ProfilePowerDNS
	ProfileSystemd  = resolver.ProfileSystemd
	ProfileDnsmasq  = resolver.ProfileDnsmasq
)
