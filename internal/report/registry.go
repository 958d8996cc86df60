package report

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Progress reports one shard completion inside a running experiment.
// It is the event type behind Spec.Progress and measure.Config's
// progress channel (measure aliases it), so every experiment reports
// through one shape.
type Progress struct {
	// Dataset labels the population being scanned.
	Dataset string
	// DoneShards/TotalShards count shard completions.
	DoneShards  int
	TotalShards int
	// Items is the sampled population size of the dataset.
	Items int
}

// Spec is the uniform run configuration every registered experiment
// receives: the engine execution knobs plus the campaign sweep
// dimensions (ignored by experiments without those axes). The zero
// value means full paper-size populations, seed 0, default sharding,
// GOMAXPROCS workers, unfiltered sweeps.
//
// Determinism contract (inherited from the engine): SampleCap, Seed,
// ShardSize and the sweep dimensions select the result; Parallelism
// and Progress only schedule and observe it. Two runs with equal
// selecting fields produce byte-identical Reports under every
// renderer, for any worker count.
type Spec struct {
	// SampleCap bounds the population sampled per dataset; <= 0 means
	// the full paper-size populations.
	SampleCap int
	// Seed is the base population seed.
	Seed int64
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// ShardSize is the population items per simulation shard; 0 means
	// the engine default.
	ShardSize int
	// Progress, when non-nil, observes shard completions.
	Progress func(Progress)
	// SadPorts bounds the resolver ephemeral-port span the end-to-end
	// SadDNS runs scan (table6, samehijack); 0 means each experiment's
	// default.
	SadPorts int

	// Campaign sweep dimensions (registry keys; empty means the full
	// axis) and knobs — see the campaign package.
	Methods     []string
	Victims     []string
	Profiles    []string
	Defenses    []string
	DefenseSets []string
	ChainDepths []string
	Placements  []string
	Transports  []string
	// Deployments selects the campaign's deployment-dataset axis.
	// Unlike the other dimensions, empty means the canonical
	// (unsampled) dataset ONLY — sampled trial populations are an
	// explicit opt-in.
	Deployments []string
	// Trials is the campaign's per-cell sample size; 0 means the
	// campaign default.
	Trials int
	// LatticeRank bounds the campaign's defense-stacking axis; 0 means
	// the default lattice.
	LatticeRank int
	// Downgrade runs the campaign under active transport-downgrade
	// pressure (opportunistic hops stripped to plaintext UDP before
	// each trial's attack).
	Downgrade bool
}

// DefaultSpec is the run configuration both front doors start from —
// the xlmeasure command line and the server's /run query — before any
// parameter is set: a 10,000-item sample cap per dataset and seed 42.
func DefaultSpec() Spec { return Spec{SampleCap: 10000, Seed: 42} }

// Bind registers every run parameter on fs under its CLI name, with
// s's current values as the defaults. It is the one table of run
// parameters: xlmeasure binds it to its command line, and the server
// binds a fresh DefaultSpec per request and sets each query parameter
// through it, so no parameter reaches one front door without the
// other. Progress is not a parameter.
func (s *Spec) Bind(fs *flag.FlagSet) {
	fs.IntVar(&s.SampleCap, "n", s.SampleCap, "sample cap per dataset; 0 = full paper-size populations, up to 1.58M (see DESIGN.md)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "population seed")
	fs.IntVar(&s.Parallelism, "parallel", s.Parallelism, "shard workers; 0 = GOMAXPROCS (never changes results)")
	fs.IntVar(&s.ShardSize, "shard-size", s.ShardSize, "population items per simulation shard; 0 = engine default")
	fs.IntVar(&s.SadPorts, "sad-ports", s.SadPorts, "resolver port span the end-to-end SadDNS runs scan; 0 = per-experiment default")
	fs.Var((*keyList)(&s.Methods), "methods", "campaign: comma-separated method keys (empty = all)")
	fs.Var((*keyList)(&s.Victims), "victims", "campaign: comma-separated victim keys (empty = all)")
	fs.Var((*keyList)(&s.Profiles), "profiles", "campaign: comma-separated resolver profile keys (empty = all)")
	fs.Var((*keyList)(&s.Defenses), "defenses", "campaign: comma-separated base-defense keys bounding the stacking lattice (empty = all)")
	fs.Var((*keyList)(&s.DefenseSets), "defense-sets", "campaign: comma-separated exact defense stacks, e.g. 0x20+shuffle (overrides the lattice; empty = lattice)")
	fs.IntVar(&s.LatticeRank, "lattice-rank", s.LatticeRank, "campaign: max stacked defenses per set; 0 = default (singletons + pairs + full stack), 1 = scalar axis")
	fs.Var((*keyList)(&s.ChainDepths), "chain-depths", "campaign: comma-separated forwarder-chain depths 0-3 (empty = all)")
	fs.Var((*keyList)(&s.Placements), "placement", "campaign: comma-separated attacker placements stub,carrier (empty = all)")
	fs.IntVar(&s.Trials, "trials", s.Trials, "campaign: attack trials per cell; 0 = default (3)")
	fs.Var((*keyList)(&s.Transports), "transports", "campaign: comma-separated upstream transports udp,tcp,dot,doh,doq,mixed,opp (empty = all)")
	fs.Var((*keyList)(&s.Deployments), "deployments", "campaign: comma-separated deployment datasets canonical,measured,hardened (empty = canonical only)")
	fs.BoolVar(&s.Downgrade, "downgrade", s.Downgrade, "campaign: run cells under active transport-downgrade pressure")
}

// keyList is a sweep-dimension filter bound as a flag: Set parses
// through SplitKeys, so a value with no usable key is a flag error.
type keyList []string

func (l *keyList) String() string {
	if l == nil {
		return ""
	}
	return strings.Join(*l, ",")
}

func (l *keyList) Set(v string) error {
	keys, err := SplitKeys(v)
	if err != nil {
		return err
	}
	*l = keys
	return nil
}

// SplitKeys parses a comma-separated sweep-dimension filter, as the
// CLI flags and the server's query parameters spell it. The empty
// string means the full axis and yields nil; otherwise the keys are
// trimmed and empty entries dropped, and a value with no usable key at
// all (",", " ") is an error — it must not silently widen to the full
// axis.
func SplitKeys(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("filter %q has no usable keys", s)
	}
	return keys, nil
}

// Experiment is one registered experiment: a canonical name, a
// one-line description, and the builder that turns a Spec into a
// structured Report. Builders must honour ctx cancellation (the
// engine aborts between shards) and return every failure — the
// registry never swallows errors.
type Experiment struct {
	Name  string
	Title string
	Run   func(ctx context.Context, spec Spec) (*Report, error)
}

var (
	regMu    sync.RWMutex
	registry []Experiment
	byName   = map[string]int{}
)

// Register adds an experiment under its canonical name. Experiment
// packages call it from init, so importing the facade assembles the
// full registry. Duplicate or empty names are programming errors and
// panic.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("report: Register needs a name and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("report: experiment %q registered twice", e.Name))
	}
	byName[e.Name] = len(registry)
	registry = append(registry, e)
}

// List returns every registered experiment in registration order —
// the canonical artifact order (tables, then figures, then studies,
// then the campaign).
func List() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Experiment(nil), registry...)
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := byName[name]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Run dispatches the named experiment under the spec. Unknown names
// fail listing the valid registry keys (sorted, so the message is
// stable); experiment failures — including ctx cancellation mid-sweep
// — propagate to the caller.
func Run(ctx context.Context, name string, spec Spec) (*Report, error) {
	e, ok := Get(name)
	if !ok {
		valid := Names()
		sort.Strings(valid)
		return nil, fmt.Errorf("report: unknown experiment %q (valid: %s)",
			name, strings.Join(valid, ", "))
	}
	rep, err := e.Run(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("report: experiment %q: %w", name, err)
	}
	if rep.Name == "" {
		rep.Name = e.Name
	}
	if rep.Title == "" {
		rep.Title = e.Title
	}
	return rep, nil
}

// BaseParams records the execution knobs shared by every experiment
// on a report, in a stable order. Builders call it before adding
// experiment-specific params.
func BaseParams(r *Report, spec Spec) *Report {
	r.AddParam("sample_cap", spec.SampleCap)
	r.AddParam("seed", spec.Seed)
	if spec.ShardSize != 0 {
		r.AddParam("shard_size", spec.ShardSize)
	}
	return r
}
