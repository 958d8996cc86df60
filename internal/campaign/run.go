package campaign

import (
	"context"

	"crosslayer/internal/core"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/pool"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
	"crosslayer/internal/sim"
	"crosslayer/internal/stats"
)

// CellResult is the measured outcome of one cross-product cell over
// its trials.
type CellResult struct {
	// Method/Victim/Profile/Defense/Depth/Placement/Transport are the
	// cell's registry keys; Defense is the canonical defense-set key
	// ("none", "0x20", "0x20+shuffle", ...).
	Method, Victim, Profile, Defense, Depth, Placement, Transport string
	// Deployment is the deployment-dataset key the cell's worlds were
	// sampled from. Empty (results decoded from a pre-axis
	// checkpoint) means canonical.
	Deployment string `json:",omitempty"`
	// Trials is the per-cell sample size.
	Trials int
	// Poisoned counts trials whose attack actually planted the
	// malicious record (cache ground truth, not the method's own
	// success claim).
	Poisoned stats.Counter
	// Impact counts trials whose application exercise produced the
	// outcome the Table 1 row promises for this victim.
	Impact stats.Counter
	// Iterations/Packets/Seconds are per-trial cost samples: attack
	// rounds, attacker packets sent, and elapsed virtual seconds.
	Iterations *stats.CDF
	Packets    *stats.CDF
	Seconds    *stats.CDF
}

// RunContext executes the (filtered) cross-product on the experiment
// engine: every cell is one shard, every trial inside a cell plays on
// a world seeded from the cell's identity. Results come back in cell
// order regardless of scheduling. A long sweep aborts at the next cell
// boundary once ctx is cancelled, returning the context's error
// instead of a partial matrix.
func RunContext(ctx context.Context, cfg Config) ([]CellResult, error) {
	cells, err := CellsAtRank(cfg.Filter, cfg.LatticeRank)
	if err != nil {
		return nil, err
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = DefaultTrials
	}
	if cfg.Exec.SampleCap > 0 && trials > cfg.Exec.SampleCap {
		trials = cfg.Exec.SampleCap
	}
	job := engine.Job{
		Name:        "campaign",
		Items:       len(cells),
		ShardSize:   1,
		Seed:        cfg.Exec.Seed,
		Parallelism: cfg.Exec.Parallelism,
	}
	cfg.Exec.WireProgress(&job, "campaign", len(cells))
	var l lease
	defer l.release()
	return engine.RunWorkersCtx(ctx, job, l.get, func(w *trialWorker, sh engine.Shard) CellResult {
		// One shard == one cell (ShardSize 1, so sh.Start indexes the
		// plan). The shard's positional seed is deliberately unused:
		// the cell's trials derive from its identity key instead, so
		// filtering the sweep never reseeds surviving cells.
		c := cells[sh.Start]
		var key string
		if cfg.Cache != nil {
			// Trial seeds are shared between the plain and the
			// downgraded condition (paired experiments), measured
			// results are not.
			key = CellKey(cfg.Exec.Seed, trials, c)
			if cfg.Downgrade {
				key += "/downgrade"
			}
			if r, ok := cfg.Cache.Lookup(key); ok {
				return r
			}
		}
		r := runCell(w, c, cfg.Exec.Seed, trials, cfg.Downgrade, cfg.forceFreshBuild)
		if cfg.Cache != nil {
			cfg.Cache.Store(key, r)
		}
		return r
	})
}

// trialWorker is the scratch one campaign worker reuses across every
// cell it runs, and across runs once parked: the wire-buffer arena its
// trials' networks recycle payloads through, the clock-event and
// delivery-node freelists those simulations run on, the memoized
// scenario build artifacts (scenario.Proto), and the per-cell
// cost-sample slices. Warmed capacity carries across cells; recorded
// results never alias it (stats.NewCDF copies its samples), so reuse
// cannot change output.
type trialWorker struct {
	wire   pool.Wire
	events sim.EventPool
	deliv  netsim.DeliveryPool
	proto  scenario.Proto
	iters  []float64
	pkts   []float64
	secs   []float64
}

// cellConfig assembles the cell's scenario configuration — everything
// but the seed: transports stamped (chain copied once per cell, not
// per trial), placement, the worker's shared pools, the method's
// Prepare overrides, and the defense stack.
func (w *trialWorker) cellConfig(c Cell) scenario.Config {
	scfg := scenario.Config{Profile: c.Profile.Profile}
	scfg.Profile.Transport = c.Transport.Resolver
	scfg.Profile.Opportunistic = c.Transport.Opportunistic
	scfg.ForwarderChain = c.Depth.Chain
	if len(c.Depth.Chain) > 0 && (c.Transport.Forwarder != resolver.TransportUDP || c.Transport.Opportunistic) {
		// The registry's chain specs are shared across cells; copy
		// before stamping this cell's per-hop transport onto them.
		chain := make([]scenario.ForwarderSpec, len(c.Depth.Chain))
		copy(chain, c.Depth.Chain)
		for i := range chain {
			chain[i].Transport = c.Transport.Forwarder
			chain[i].Opportunistic = c.Transport.Opportunistic
		}
		scfg.ForwarderChain = chain
	}
	scfg.Placement = c.Placement.Placement
	scfg.Deployment = c.Deployment.Dataset
	scfg.WirePool = &w.wire
	scfg.EventPool = &w.events
	scfg.DeliveryPool = &w.deliv
	c.Method.Prepare(&scfg)
	scfg.Defenses = c.Defenses.Specs
	return scfg
}

// runCell executes the cell's trials and folds them into a CellResult.
// The default lifecycle builds the cell's world ONCE as a prototype
// (config, defenses and chain stamping applied once instead of trials
// times), runs trial 0 on the fresh build, and rewinds the world with
// scenario.S.Reset between trials. Building with trial 0's own seed —
// rather than Resetting before every trial — makes the fresh build
// trial 0's world, so a cell pays one Reset per trial after the first
// and a 1-trial sweep pays none. fresh forces the legacy build-per-trial
// lifecycle; the differential suite uses it to prove both lifecycles
// produce byte-identical results.
func runCell(w *trialWorker, c Cell, baseSeed int64, trials int, downgrade, fresh bool) CellResult {
	// The worker may come from another cell or run: keep only the
	// sample slices' capacity.
	w.iters, w.pkts, w.secs = w.iters[:0], w.pkts[:0], w.secs[:0]
	res := CellResult{
		Method: c.Method.Key, Victim: c.Victim.Key,
		Profile: c.Profile.Key, Defense: c.Defenses.Key,
		Depth: c.Depth.Key, Placement: c.Placement.Key,
		Transport: c.Transport.Key, Deployment: c.Deployment.Key,
		Trials: trials,
	}
	cellSeed := engine.DeriveSeedKey(baseSeed, c.Key())
	var s *scenario.S
	if !fresh {
		scfg := w.cellConfig(c)
		// Cross-cell memoization only joins the reset lifecycle: the
		// memoized RIB relies on New/Reset restoring its baseline.
		scfg.Proto = &w.proto
		scfg.Seed = engine.DeriveSeed(cellSeed, 0)
		s = scenario.New(scfg)
		s.Snapshot() // post-New, pre-attack: the state Reset rewinds to
	}
	for t := 0; t < trials; t++ {
		seed := engine.DeriveSeed(cellSeed, t)
		var poisoned, impact bool
		var r core.Result
		if fresh {
			scfg := w.cellConfig(c)
			scfg.Seed = seed
			poisoned, impact, r = runTrial(scenario.New(scfg), c, downgrade)
		} else {
			if t > 0 {
				s.Reset(seed)
			}
			poisoned, impact, r = runTrial(s, c, downgrade)
		}
		res.Poisoned.Observe(poisoned)
		res.Impact.Observe(impact)
		w.iters = append(w.iters, float64(r.Iterations))
		w.pkts = append(w.pkts, float64(r.AttackerPackets))
		w.secs = append(w.secs, r.Duration.Seconds())
	}
	res.Iterations = stats.NewCDF(w.iters)
	res.Packets = stats.NewCDF(w.pkts)
	res.Seconds = stats.NewCDF(w.secs)
	return res
}

// runTrial plays one trial end to end on an assembled (fresh or
// freshly Reset) world: deploy the victim, run the attack against the
// victim's query name (triggered through the cell's forwarder chain),
// read the chain's cache ground truth, then exercise the application.
// The cell's defense stack rode scenario.Config.Defenses at build
// time, after the method's Prepare — defenses always get the last
// word.
func runTrial(s *scenario.S, c Cell, downgrade bool) (poisoned, impact bool, r core.Result) {
	exercise := c.Victim.Deploy(s)
	var atk core.Attack
	if downgrade {
		// Target selection must happen AFTER the downgrade lands, so
		// the inner attack is built lazily inside core.Downgrade.
		atk = &core.Downgrade{Attacker: s.Attacker, Hops: s.Hops(),
			Build: func() core.Attack { return c.Method.New(s, c.Victim.QName) }}
	} else {
		atk = c.Method.New(s, c.Victim.QName)
	}
	r = atk.Run(s.Trigger(c.Victim.QName))
	poisoned = s.ChainPoisoned(c.Victim.QName, dnswire.TypeA)
	impact = exercise() == c.Victim.AttackOutcome
	return poisoned, impact, r
}
