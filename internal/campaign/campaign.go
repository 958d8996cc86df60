// Package campaign sweeps the full attack space the paper only
// samples: every §3 methodology against every Table 1 application
// victim, under every Table 5 resolver implementation profile, for
// every defense SET of the stacking lattice (§6 countermeasures
// composed, not just switched on one at a time), at every
// forwarder-chain depth, from both attacker placements — a method ×
// victim × profile × defense-set × chain-depth × placement
// cross-product executed as independent simulation cells on the
// sharded experiment engine.
//
// The paper demonstrates each victim against one hand-picked method
// (Table 1) and compares the methods on one canonical scenario
// (Table 6); the interesting results live in the combinations. Each
// cell of the sweep builds a private scenario (its own clock,
// network, BGP topology), deploys the victim application, runs the
// attack end-to-end, checks the cache ground truth, and then
// exercises the application to observe the actual impact.
//
// Determinism contract: a cell's seed derives from the BASE SEED and
// the cell's identity key (method/victim/profile/defense), never from
// its position in the sweep. Output is therefore byte-identical for
// any Parallelism, and a filtered sweep reproduces exactly the cells
// of the full sweep.
package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"crosslayer/internal/apps"
	"crosslayer/internal/core"
	"crosslayer/internal/deploy"
	"crosslayer/internal/measure"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
)

// Attack effort shared by every cell. It bounds the per-cell
// simulation cost so the full product stays tractable; the bounds are
// generous enough that every method converges on its vulnerable cells.
var (
	// sadEffort scans 256 resolver ports (the paper's resolvers expose
	// ~28k; the scan cost is linear in the range and the side channel
	// identical) over at most 3 triggered queries per trial.
	sadEffort = scenario.Effort{Ports: 256, MaxIterations: 3}
	// fragEffort plants 16 IP-ID guesses per trigger, at most 4
	// triggers per trial.
	fragEffort = scenario.Effort{IPIDGuesses: 16, MaxIterations: 4}
)

// Method is one registered poisoning methodology: how to open its
// attack surface on a scenario under construction, and how to build
// the runnable attack against a target name.
type Method struct {
	// Key is the stable identifier used in filters and matrices.
	Key string
	// Name is the display form.
	Name string
	// Prepare mutates the scenario config to open the method's attack
	// surface (e.g. SadDNS needs the nameserver's RRL as its muting
	// lever, FragDNS needs responses large enough to fragment). It
	// runs BEFORE the cell's defense is applied, so defenses always
	// get the last word.
	Prepare func(cfg *scenario.Config)
	// New builds the attack against qname on an assembled scenario.
	New func(s *scenario.S, qname string) core.Attack
}

// Methods returns the methodology registry in paper order (§3.1-3.3).
// Each entry opens its surface and builds its attack through the
// scenario's one constructor per method.
func Methods() []Method {
	return []Method{
		{
			Key: "hijack", Name: "HijackDNS",
			Prepare: func(*scenario.Config) {},
			New:     func(s *scenario.S, qname string) core.Attack { return s.HijackDNS(qname) },
		},
		{
			Key: "saddns", Name: "SadDNS",
			Prepare: scenario.OpenSadDNS,
			New:     func(s *scenario.S, qname string) core.Attack { return s.SadDNS(qname, sadEffort) },
		},
		{
			Key: "frag", Name: "FragDNS",
			Prepare: scenario.OpenFragDNS,
			New:     func(s *scenario.S, qname string) core.Attack { return s.FragDNS(qname, fragEffort) },
		},
	}
}

// ProfileEntry binds a filter key to a Table 5 resolver profile.
type ProfileEntry struct {
	Key     string
	Profile resolver.Profile
}

// Profiles returns the resolver implementation registry in Table 5
// order.
func Profiles() []ProfileEntry {
	return []ProfileEntry{
		{Key: "bind", Profile: resolver.ProfileBIND},
		{Key: "unbound", Profile: resolver.ProfileUnbound},
		{Key: "powerdns", Profile: resolver.ProfilePowerDNS},
		{Key: "systemd", Profile: resolver.ProfileSystemd},
		{Key: "dnsmasq", Profile: resolver.ProfileDnsmasq},
	}
}

// DepthEntry binds a filter key to a forwarder-chain configuration:
// how many open forwarders the victim's queries ride through before
// the recursive resolver, and each hop's behaviour. The canonical
// chains model the §4.3 population: entry hops are bigger boxes
// (larger port spans, name-match filtering), inner hops are embedded
// CPE devices with tiny port spans and no filtering — the weakest-hop
// candidates the attacks hunt for.
type DepthEntry struct {
	// Key is the stable identifier used in filters and seeds ("0".."3").
	Key string
	// Depth is the number of forwarder hops.
	Depth int
	// Chain is the per-hop specification handed to the scenario
	// (Chain[0] is the entry hop the client queries).
	Chain []scenario.ForwarderSpec
}

// ChainDepths returns the chain-depth registry: depth 0 (the client
// queries the resolver directly — every pre-chain campaign cell) up to
// depth 3.
func ChainDepths() []DepthEntry {
	return []DepthEntry{
		{Key: "0", Depth: 0},
		{Key: "1", Depth: 1, Chain: []scenario.ForwarderSpec{
			{}, // one CPE hop: default tiny port span, no bailiwick filter
		}},
		{Key: "2", Depth: 2, Chain: []scenario.ForwarderSpec{
			{PortSpan: 512, CheckBailiwick: true}, // entry: bigger box, filters
			{},                                    // inner CPE: the weak hop
		}},
		{Key: "3", Depth: 3, Chain: []scenario.ForwarderSpec{
			{PortSpan: 512, CheckBailiwick: true},
			{TTLCap: 60}, // mid hop ages cached records out fast
			{},
		}},
	}
}

// PlacementEntry binds a filter key to an attacker placement.
type PlacementEntry struct {
	Key       string
	Name      string
	Placement scenario.Placement
}

// Placements returns the attacker-placement registry: the stub-adjacent
// default and the carrier-AS position (reusing the internal/bgp path
// position: the carrier originates the attacker prefix from tier 2 and
// reaches every target over backbone latency).
func Placements() []PlacementEntry {
	return []PlacementEntry{
		{Key: "stub", Name: "stub-adjacent attacker", Placement: scenario.PlacementStub},
		{Key: "carrier", Name: "carrier-AS attacker", Placement: scenario.PlacementCarrier},
	}
}

// TransportEntry binds a filter key to a chain-wide upstream-transport
// assignment: what the forwarder hops speak upstream and what the
// recursive resolver speaks toward the authoritative nameserver. The
// registry spans the deployment space the encrypted-transport story
// needs: an all-plaintext baseline, each strict encrypted transport,
// the incremental-deployment "mixed" case (plaintext front hop in
// front of an encrypted recursive — the configuration that silently
// re-opens the off-path attacks), and an opportunistic chain the
// active downgrade attack can strip.
type TransportEntry struct {
	Key  string
	Name string
	// Resolver is the recursive resolver's upstream transport.
	Resolver resolver.Transport
	// Forwarder is every forwarder hop's upstream transport.
	Forwarder resolver.Transport
	// Opportunistic marks every hop opportunistic: encrypted upstream
	// sessions fall back to plaintext UDP when they fail.
	Opportunistic bool
}

// Transports returns the transport-axis registry.
func Transports() []TransportEntry {
	return []TransportEntry{
		{Key: "udp", Name: "plaintext UDP (baseline)"},
		{Key: "tcp", Name: "DNS over TCP",
			Resolver: resolver.TransportTCP, Forwarder: resolver.TransportTCP},
		{Key: "dot", Name: "DNS over TLS (strict)",
			Resolver: resolver.TransportDoT, Forwarder: resolver.TransportDoT},
		{Key: "doh", Name: "DNS over HTTPS (strict)",
			Resolver: resolver.TransportDoH, Forwarder: resolver.TransportDoH},
		{Key: "doq", Name: "DNS over QUIC (strict)",
			Resolver: resolver.TransportDoQ, Forwarder: resolver.TransportDoQ},
		{Key: "mixed", Name: "plaintext front hop, encrypted recursive",
			Resolver: resolver.TransportDoT, Forwarder: resolver.TransportUDP},
		{Key: "opp", Name: "opportunistic DoT chain",
			Resolver: resolver.TransportDoT, Forwarder: resolver.TransportDoT,
			Opportunistic: true},
	}
}

// DeploymentEntry binds a filter key to a deployment population —
// the deploy.Dataset every cell under this axis value samples its
// concrete worlds from.
type DeploymentEntry struct {
	Key     string
	Name    string
	Dataset deploy.Dataset
}

// Deployments returns the deployment-dataset registry (the
// deploy.Datasets registry in sweep order: canonical first, then the
// sampled populations).
func Deployments() []DeploymentEntry {
	ds := deploy.Datasets()
	out := make([]DeploymentEntry, len(ds))
	for i, d := range ds {
		out[i] = DeploymentEntry{Key: d.Key, Name: d.Name, Dataset: d}
	}
	return out
}

// Filter restricts the cross-product to the named registry keys; an
// empty dimension means "all". Keys are matched case-insensitively.
type Filter struct {
	Methods  []string
	Victims  []string
	Profiles []string
	// Defenses restricts the BASE defenses the stacking lattice is
	// generated from (see DefenseSets); "none" is accepted and
	// contributes nothing, since the undefended baseline is always
	// part of the lattice. Mutually exclusive with DefenseSets.
	Defenses []string
	// DefenseSets picks exact defense stacks by canonical set key
	// ("none", "0x20", "0x20+shuffle", ...; component order and case
	// are normalised) out of the full power set, regardless of the
	// configured lattice rank. Mutually exclusive with Defenses.
	DefenseSets []string
	ChainDepths []string
	Placements  []string
	Transports  []string
	// Deployments restricts the deployment-dataset axis. UNLIKE every
	// other dimension, empty means the canonical dataset only — not
	// "all": sampled populations answer a different (and strictly
	// additional) question, so sweeping them is an explicit opt-in and
	// every pre-existing sweep keeps its exact cell plan and trial
	// populations.
	Deployments []string
}

// Config controls a campaign sweep.
type Config struct {
	// Exec carries the engine execution knobs. Seed selects the
	// population of per-cell trials, Parallelism/Progress schedule and
	// observe the sweep, and SampleCap caps Trials. ShardSize is
	// ignored: every cell is its own shard by construction.
	Exec measure.Config
	// Filter restricts the cross-product.
	Filter Filter
	// Trials is the number of independently seeded attack runs per
	// cell (the sample behind the success-rate and cost percentiles);
	// 0 means DefaultTrials.
	Trials int
	// LatticeRank bounds the defense-set axis: every stack of up to
	// LatticeRank base defenses is swept (1 reproduces the historical
	// scalar axis, len(BaseDefenses) the full power set). 0 means the
	// default lattice — rank DefaultLatticeRank plus the full stack.
	LatticeRank int
	// Cache, when non-nil, memoizes cell results across runs by their
	// full identity (CellKey): a cell already present is returned
	// without simulating, a freshly computed cell is stored back.
	// Sound because cells are identity-seeded — the cached value is
	// byte-identical to what a recomputation would produce.
	Cache CellCache
	// Downgrade runs every cell under active downgrade pressure: each
	// trial's attack is wrapped in core.Downgrade, which strips
	// opportunistic hops back to plaintext UDP before the inner attack
	// picks its target. It is a sweep-level condition, not an axis —
	// cells keep their identity seeds so a downgraded sweep is the
	// paired experiment of the plain one — but cached results gain a
	// "/downgrade" key marker so the two conditions never collide.
	Downgrade bool
	// forceFreshBuild reverts runCell to the legacy build-a-world-per-
	// trial lifecycle instead of build-once/Reset-per-trial. Only the
	// differential equivalence tests set it: the two lifecycles must
	// produce byte-identical results, and this is the lever that
	// proves it.
	forceFreshBuild bool
}

// CellCache memoizes CellResults across campaign runs, keyed by
// CellKey. RunContext looks a cell up before running it and stores
// every freshly computed cell, so cells finished before a cancellation
// are kept. Implementations must be safe for concurrent use: the
// engine's workers look up and store cells in parallel.
type CellCache interface {
	Lookup(key string) (CellResult, bool)
	Store(key string, r CellResult)
}

// CellKey is the full memoization identity of a cell's measured
// result: the base seed and trial count (which select the trial
// population) joined with the cell's identity key (which the per-trial
// seeds derive from). Two sweeps agreeing on this string compute
// byte-identical CellResults regardless of filtering, lattice rank,
// parallelism or scheduling — the content-addressing contract the
// resident server's cache and checkpoints are built on.
func CellKey(seed int64, trials int, c Cell) string {
	return strconv.FormatInt(seed, 10) + "/" + strconv.Itoa(trials) + "/" + c.Key()
}

// DefaultTrials is the per-cell sample size used when Config.Trials
// is zero.
const DefaultTrials = 3

// Cell is one point of the cross-product.
type Cell struct {
	Method     Method
	Victim     apps.Victim
	Profile    ProfileEntry
	Defenses   DefenseSet
	Depth      DepthEntry
	Placement  PlacementEntry
	Transport  TransportEntry
	Deployment DeploymentEntry
}

// Key returns the cell's stable identity
// ("method/victim/profile/defense-set/depth/placement/transport") —
// the string its seed derives from. The defense component is the
// set's canonical key, so a singleton set keeps the exact identity
// (and therefore the exact trial population) of the historical scalar
// axis. By the same argument the deployment component appears only
// for sampled datasets ("/measured", "/hardened"): a canonical cell's
// key — and therefore its seed and trial population — is exactly the
// pre-deployment-axis identity.
func (c Cell) Key() string {
	k := c.Method.Key + "/" + c.Victim.Key + "/" + c.Profile.Key + "/" + c.Defenses.Key +
		"/" + c.Depth.Key + "/" + c.Placement.Key + "/" + c.Transport.Key
	if !c.Deployment.Dataset.Canonical() {
		k += "/" + c.Deployment.Key
	}
	return k
}

// CellsAtRank plans the (filtered) cross-product in deterministic
// order: methods, then victims, then profiles, then defense sets (the
// stacking lattice bounded by latticeRank — see DefenseSets), then
// chain depths, then placements, then transports, then deployment
// datasets (innermost), each in registry order. Unknown filter keys
// are an error, not a silent empty sweep.
func CellsAtRank(f Filter, latticeRank int) ([]Cell, error) {
	methods, err := selected("method", Methods(), func(m Method) string { return m.Key }, f.Methods)
	if err != nil {
		return nil, err
	}
	victims, err := selected("victim", apps.Victims(), func(v apps.Victim) string { return v.Key }, f.Victims)
	if err != nil {
		return nil, err
	}
	profiles, err := selected("profile", Profiles(), func(p ProfileEntry) string { return p.Key }, f.Profiles)
	if err != nil {
		return nil, err
	}
	defenses, err := defenseAxis(f, latticeRank)
	if err != nil {
		return nil, err
	}
	depths, err := selected("chain-depth", ChainDepths(), func(d DepthEntry) string { return d.Key }, f.ChainDepths)
	if err != nil {
		return nil, err
	}
	placements, err := selected("placement", Placements(), func(p PlacementEntry) string { return p.Key }, f.Placements)
	if err != nil {
		return nil, err
	}
	transports, err := selected("transport", Transports(), func(t TransportEntry) string { return t.Key }, f.Transports)
	if err != nil {
		return nil, err
	}
	deployments, err := selectedDeployments(f.Deployments)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, m := range methods {
		for _, v := range victims {
			for _, p := range profiles {
				for _, d := range defenses {
					for _, dep := range depths {
						for _, pl := range placements {
							for _, tr := range transports {
								for _, dpl := range deployments {
									cells = append(cells, Cell{Method: m, Victim: v, Profile: p,
										Defenses: d, Depth: dep, Placement: pl, Transport: tr,
										Deployment: dpl})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// selectedDeployments resolves the deployment-axis filter. An empty
// filter plans the canonical dataset only (see Filter.Deployments);
// unknown keys fail with the registry's valid-key list like every
// other axis.
func selectedDeployments(want []string) ([]DeploymentEntry, error) {
	if len(want) == 0 {
		want = []string{deploy.CanonicalKey}
	}
	return selected("deployment", Deployments(), func(d DeploymentEntry) string { return d.Key }, want)
}

// selected returns the registry entries matching the wanted keys (all
// entries when want is empty), preserving registry order. Unknown keys
// fail with the dimension's full valid-key list, so a CLI typo tells
// the user what the registry actually offers.
func selected[T any](dim string, all []T, key func(T) string, want []string) ([]T, error) {
	if len(want) == 0 {
		return all, nil
	}
	wanted := map[string]bool{}
	for _, w := range want {
		w = strings.ToLower(strings.TrimSpace(w))
		if w != "" {
			wanted[w] = true
		}
	}
	if len(wanted) == 0 {
		// Non-empty filter whose every entry trimmed away: reject
		// rather than silently sweep zero cells.
		return nil, fmt.Errorf("campaign: %s filter has no usable keys", dim)
	}
	var out []T
	for _, e := range all {
		if wanted[strings.ToLower(key(e))] {
			out = append(out, e)
			delete(wanted, strings.ToLower(key(e)))
		}
	}
	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for k := range wanted {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		valid := make([]string, 0, len(all))
		for _, e := range all {
			valid = append(valid, key(e))
		}
		return nil, fmt.Errorf("campaign: unknown %s key(s): %s (valid: %s)",
			dim, strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}
