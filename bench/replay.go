package main

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"time"

	"crosslayer/internal/campaign"
	"crosslayer/internal/core"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/measure"
	"crosslayer/internal/netsim"
	"crosslayer/internal/pool"
	"crosslayer/internal/report"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
	"crosslayer/internal/sim"
	"crosslayer/internal/stats"
)

// The replays re-run a job from the exported pieces the real call is
// built from, with a span around each call into a layer and the
// layers' public counters read around each trial or shard. Campaign
// internals cannot be timed from outside campaign.RunContext, so this
// is how the traced run sees them. A replay must reproduce the real
// call's result exactly; a mismatch fails the job.

// replayCampaign re-runs campaign.RunContext: plan the cells, run one
// engine shard per cell on per-worker state, and play each cell's
// trials on one world built once and Reset between trials.
func replayCampaign(ctx context.Context, spec report.Spec, real jobOut, tr *tracer, c *counts) error {
	cfg := campaign.ConfigFromSpec(spec)
	cells, err := campaign.CellsAtRank(cfg.Filter, cfg.LatticeRank)
	if err != nil {
		return err
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = campaign.DefaultTrials
	}
	if cfg.Exec.SampleCap > 0 && trials > cfg.Exec.SampleCap {
		trials = cfg.Exec.SampleCap
	}
	job := engine.Job{Name: "campaign", Items: len(cells), ShardSize: 1,
		Seed: cfg.Exec.Seed, Parallelism: cfg.Exec.Parallelism}
	m := tr.main()
	eng := m.begin(kEngine, -1)
	var mu sync.Mutex
	var workers []*cellWorker
	got, err := engine.RunWorkersCtx(ctx, job, func() *cellWorker {
		w := &cellWorker{buf: tr.worker(eng)}
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		return w
	}, func(w *cellWorker, sh engine.Shard) campaign.CellResult {
		return w.runCell(cells[sh.Start], cfg.Exec.Seed, trials)
	})
	m.end(eng)
	if err != nil {
		return err
	}
	for _, w := range workers {
		c.add(w.counts)
	}
	if !reflect.DeepEqual(got, real.cells) {
		return fmt.Errorf("replay cells differ from campaign.RunContext")
	}
	return nil
}

// cellWorker is one engine worker's replay state: the pools and
// prototypes campaign's own trial worker keeps, its span buffer, and
// its counters.
type cellWorker struct {
	wire   pool.Wire
	events sim.EventPool
	deliv  netsim.DeliveryPool
	proto  scenario.Proto
	buf    *spanBuf
	counts counts
}

// cellConfig is the cell's scenario configuration as campaign builds it.
func (w *cellWorker) cellConfig(c campaign.Cell) scenario.Config {
	scfg := scenario.Config{Profile: c.Profile.Profile, ServerCfg: dnssrv.DefaultConfig()}
	scfg.Profile.Transport = c.Transport.Resolver
	scfg.Profile.Opportunistic = c.Transport.Opportunistic
	scfg.ForwarderChain = c.Depth.Chain
	if len(c.Depth.Chain) > 0 && (c.Transport.Forwarder != resolver.TransportUDP || c.Transport.Opportunistic) {
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
	scfg.Proto = &w.proto
	return scfg
}

var attackKind = map[string]spanKind{"hijack": kAttackHijack, "saddns": kAttackSadDNS, "frag": kAttackFrag}

func (w *cellWorker) runCell(c campaign.Cell, baseSeed int64, trials int) campaign.CellResult {
	b := w.buf
	sh := b.begin(kShard, -1)
	res := campaign.CellResult{
		Method: c.Method.Key, Victim: c.Victim.Key,
		Profile: c.Profile.Key, Defense: c.Defenses.Key,
		Depth: c.Depth.Key, Placement: c.Placement.Key,
		Transport: c.Transport.Key, Deployment: c.Deployment.Key,
		Trials: trials,
	}
	cellSeed := engine.DeriveSeedKey(baseSeed, c.Key())
	scfg := w.cellConfig(c)
	scfg.Seed = engine.DeriveSeed(cellSeed, 0)
	iters := make([]float64, 0, trials)
	pkts := make([]float64, 0, trials)
	secs := make([]float64, 0, trials)
	var s *scenario.S
	for t := 0; t < trials; t++ {
		tri := b.begin(kTrial, sh)
		if t == 0 {
			k := b.begin(kBuild, tri)
			s = scenario.New(scfg)
			b.end(k)
			k = b.begin(kSnapshot, tri)
			s.Snapshot()
			b.end(k)
			w.counts.builds++
		} else {
			k := b.begin(kReset, tri)
			s.Reset(engine.DeriveSeed(cellSeed, t))
			b.end(k)
			w.counts.resets++
		}
		before := w.read(s)

		k := b.begin(kDeploy, tri)
		exercise := c.Victim.Deploy(s)
		b.end(k)
		k = b.begin(attackKind[c.Method.Key], tri)
		r := c.Method.New(s, c.Victim.QName).Run(core.TriggerDirect(s.ClientHost, s.DNSAddr(), c.Victim.QName, dnswire.TypeA))
		b.end(k)
		k = b.begin(kVerify, tri)
		poisoned := s.ChainPoisoned(c.Victim.QName, dnswire.TypeA)
		b.end(k)
		k = b.begin(kExercise, tri)
		impact := exercise() == c.Victim.AttackOutcome
		b.end(k)

		w.counts.addTrial(before, w.read(s), r, poisoned)
		res.Poisoned.Observe(poisoned)
		res.Impact.Observe(impact)
		iters = append(iters, float64(r.Iterations))
		pkts = append(pkts, float64(r.AttackerPackets))
		secs = append(secs, r.Duration.Seconds())
		b.end(tri)
	}
	res.Iterations = stats.NewCDF(iters)
	res.Packets = stats.NewCDF(pkts)
	res.Seconds = stats.NewCDF(secs)
	w.counts.shards++
	b.end(sh)
	return res
}

// probe is a reading of a world's public counters.
type probe struct {
	now                                                 time.Duration
	delivered, dropped, icmpSent, icmpSuppressed        uint64
	wireGets, wireMisses                                uint64
	upstream, accepted, spoofRejected, timeouts, tcpFbs uint64
	fwdForwarded, fwdCacheHits                          uint64
}

func (w *cellWorker) read(s *scenario.S) probe {
	p := probe{
		now: s.Clock.Now(), delivered: s.Net.Delivered, dropped: s.Net.Dropped,
		wireGets: w.wire.Gets, wireMisses: w.wire.Misses,
		upstream: s.Resolver.UpstreamQueries, accepted: s.Resolver.Accepted,
		spoofRejected: s.Resolver.SpoofRejected, timeouts: s.Resolver.Timeouts,
		tcpFbs: s.Resolver.TCPFallbacks,
	}
	hosts := []*netsim.Host{s.ResolverHost, s.ServiceHost, s.ClientHost, s.NSHost,
		s.WWWHost, s.MailHost, s.Attacker, s.AtkNSHost}
	for _, f := range s.Forwarders {
		hosts = append(hosts, f.Host)
		p.fwdForwarded += f.Forwarded
		p.fwdCacheHits += f.CacheHits
	}
	for _, h := range hosts {
		p.icmpSent += h.ICMPSent
		p.icmpSuppressed += h.ICMPSuppressed
	}
	return p
}

func (c *counts) addTrial(before, after probe, r core.Result, poisoned bool) {
	c.items++
	c.trials++
	if poisoned {
		c.poisoned++
	}
	c.pkts += r.AttackerPackets
	c.iters += uint64(r.Iterations)
	c.queries += uint64(r.QueriesTriggered)
	c.virtual += after.now - before.now
	c.delivered += after.delivered - before.delivered
	c.dropped += after.dropped - before.dropped
	c.icmpSent += after.icmpSent - before.icmpSent
	c.icmpSuppressed += after.icmpSuppressed - before.icmpSuppressed
	c.wireGets += after.wireGets - before.wireGets
	c.wireMisses += after.wireMisses - before.wireMisses
	c.upstream += after.upstream - before.upstream
	c.accepted += after.accepted - before.accepted
	c.spoofRejected += after.spoofRejected - before.spoofRejected
	c.timeouts += after.timeouts - before.timeouts
	c.tcpFallbacks += after.tcpFbs - before.tcpFbs
	c.fwdForwarded += after.fwdForwarded - before.fwdForwarded
	c.fwdCacheHits += after.fwdCacheHits - before.fwdCacheHits
}

// fleetWorker is one engine worker's state in a fleet replay.
type fleetWorker struct {
	buf    *spanBuf
	counts counts
}

// resolverShard builds and scans one Table 3 fleet shard under spans
// and returns its membership bits.
func (w *fleetWorker) resolverShard(ds measure.ResolverDatasetSpec, sh engine.Shard) []uint8 {
	s := w.buf.begin(kShard, -1)
	k := w.buf.begin(kResolverBuild, s)
	f := measure.NewResolverFleetShard(ds, sh)
	w.buf.end(k)
	k = w.buf.begin(kResolverScan, s)
	r := measure.ScanResolverFleet(f)
	w.buf.end(k)
	w.buf.end(s)
	w.count(f.Net, r.Scanned)
	return r.Membership
}

// domainShard is resolverShard for a Table 4 domain fleet shard.
func (w *fleetWorker) domainShard(ds measure.DomainDatasetSpec, sh engine.Shard) []uint8 {
	s := w.buf.begin(kShard, -1)
	k := w.buf.begin(kDomainBuild, s)
	f := measure.NewDomainFleetShard(ds, sh)
	w.buf.end(k)
	k = w.buf.begin(kDomainScan, s)
	r := measure.ScanDomainFleet(f)
	w.buf.end(k)
	w.buf.end(s)
	w.count(f.Net, r.Scanned)
	return r.Membership
}

// count folds one scanned shard's network counters into the worker's.
func (w *fleetWorker) count(n *netsim.Network, scanned int) {
	w.counts.shards++
	w.counts.items += scanned
	w.counts.scanned += scanned
	w.counts.delivered += n.Delivered
	w.counts.dropped += n.Dropped
	w.counts.wireGets += n.WirePool().Gets
	w.counts.wireMisses += n.WirePool().Misses
}

// runFleet replays one dataset's engine call and returns the Venn
// regions of its scanned items.
func runFleet(ctx context.Context, tr *tracer, job engine.Job, c *counts, scan func(*fleetWorker, engine.Shard) []uint8) (stats.Venn3, error) {
	m := tr.main()
	eng := m.begin(kEngine, -1)
	var mu sync.Mutex
	var workers []*fleetWorker
	parts, err := engine.RunWorkersCtx(ctx, job, func() *fleetWorker {
		w := &fleetWorker{buf: tr.worker(eng)}
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		return w
	}, scan)
	m.end(eng)
	var v stats.Venn3
	for _, w := range workers {
		c.add(w.counts)
	}
	for _, p := range parts {
		v = v.Merge(stats.NewVenn3(v.Labels, p))
	}
	return v, err
}

// replayFleet re-runs measure.Figure5Run shard by shard: every Table 3
// dataset through NewResolverFleetShard/ScanResolverFleet and every
// Table 4 dataset through NewDomainFleetShard/ScanDomainFleet. The Venn
// regions must equal the real report's.
func replayFleet(ctx context.Context, id jobID, real jobOut, tr *tracer, c *counts) error {
	spec := fleetSpec(id)
	sets := fleetDatasets(spec.Seed)
	var rv, dv stats.Venn3
	for i, ds := range measure.Table3Datasets() {
		v, err := runFleet(ctx, tr, fleetJob(spec, sets[i]), c, func(w *fleetWorker, sh engine.Shard) []uint8 {
			return w.resolverShard(ds, sh)
		})
		if err != nil {
			return err
		}
		rv = rv.Merge(v)
	}
	off := len(measure.Table3Datasets())
	for i, ds := range measure.Table4Datasets() {
		v, err := runFleet(ctx, tr, fleetJob(spec, sets[off+i]), c, func(w *fleetWorker, sh engine.Shard) []uint8 {
			return w.domainShard(ds, sh)
		})
		if err != nil {
			return err
		}
		dv = dv.Merge(v)
	}
	want, err := vennCounts(real.rep)
	if err != nil {
		return err
	}
	var got []int
	for _, v := range []stats.Venn3{rv, dv} {
		got = append(got, v.OnlyA, v.OnlyB, v.OnlyC, v.AB, v.AC, v.BC, v.ABC, v.Total())
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replay Venn regions %v differ from fig5 report %v", got, want)
	}
	return nil
}

// vennCounts reads the region counts of a Figure 5 report in row
// order: both panels, seven regions and the union each.
func vennCounts(rep *report.Report) ([]int, error) {
	if len(rep.Sections) != 1 {
		return nil, fmt.Errorf("fig5 report has %d sections, want 1", len(rep.Sections))
	}
	var out []int
	for _, row := range rep.Sections[0].Rows {
		n, err := strconv.Atoi(fmt.Sprint(row[len(row)-1]))
		if err != nil {
			return nil, fmt.Errorf("fig5 count %v: %w", row[len(row)-1], err)
		}
		out = append(out, n)
	}
	return out, nil
}
