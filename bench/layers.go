package main

import "time"

// counts are the deterministic work counters the replays read, as
// deltas around each campaign trial or fleet shard, from the program's
// public counters. items is the unit every *_per_trial metric divides
// by: campaign trials plus resolvers and domains scanned.
type counts struct {
	jobs, shards, items, builds, resets int
	trials, poisoned, scanned           int
	pkts, iters, queries                uint64
	virtual                             time.Duration
	delivered, dropped                  uint64
	icmpSent, icmpSuppressed            uint64
	wireGets, wireMisses                uint64
	upstream, accepted, spoofRejected   uint64
	timeouts, tcpFallbacks              uint64
	fwdForwarded, fwdCacheHits          uint64
}

func (c *counts) add(o counts) {
	c.jobs += o.jobs
	c.shards += o.shards
	c.items += o.items
	c.builds += o.builds
	c.resets += o.resets
	c.trials += o.trials
	c.scanned += o.scanned
	c.poisoned += o.poisoned
	c.pkts += o.pkts
	c.iters += o.iters
	c.queries += o.queries
	c.virtual += o.virtual
	c.delivered += o.delivered
	c.dropped += o.dropped
	c.icmpSent += o.icmpSent
	c.icmpSuppressed += o.icmpSuppressed
	c.wireGets += o.wireGets
	c.wireMisses += o.wireMisses
	c.upstream += o.upstream
	c.accepted += o.accepted
	c.spoofRejected += o.spoofRejected
	c.timeouts += o.timeouts
	c.tcpFallbacks += o.tcpFallbacks
	c.fwdForwarded += o.fwdForwarded
	c.fwdCacheHits += o.fwdCacheHits
}

// exactJobs is how many leading jobs of a run the exact counters and
// the result digest cover. Closed-loop runs complete a number of jobs
// that depends on machine speed; a fixed prefix makes both repeat bit
// for bit for a given seed.
const exactJobs = 16

// layerAcc accumulates a traced run into the per-layer metrics.
type layerAcc struct {
	workers int
	jobs    int
	// all covers every traced job; prefix the first exactJobs.
	all, prefix counts

	durs [numKinds][]float64 // span durations, µs
	sum  [numKinds]time.Duration
	// shardTime is the summed duration of engine shards, engineTime of
	// engine calls; campaignSelf is the self time of campaign cells and
	// trials (cell config, seed derivation, CDF folding).
	shardTime, engineTime, campaignSelf time.Duration
	tailMs                              []float64

	rt                   runtimeAcc
	realWall, replayWall time.Duration

	// serve-overlap only.
	genLate             time.Duration
	cacheHits, cacheMis uint64
	events, respBytes   int
	hitMs, coldMs       []float64
}

// endJob folds one traced job: its spans and its counters.
func (a *layerAcc) endJob(spans []span, c counts) {
	c.jobs = 1
	a.all.add(c)
	if a.jobs < exactJobs {
		a.prefix.add(c)
	}
	a.jobs++
	self := selfTimes(spans)
	campaignCell := make(map[int32]bool)
	for _, s := range spans {
		if s.kind == kTrial {
			campaignCell[s.parent] = true
		}
	}
	var tail time.Duration
	for i, s := range spans {
		d := s.dur()
		a.durs[s.kind] = append(a.durs[s.kind], us(d))
		a.sum[s.kind] += d
		switch s.kind {
		case kShard:
			a.shardTime += d
			if campaignCell[int32(i)] {
				a.campaignSelf += self[i]
			}
		case kTrial:
			a.campaignSelf += self[i]
		case kEngine:
			a.engineTime += d
			tail += engineTail(spans, int32(i), a.workers)
		}
	}
	if a.sum[kEngine] > 0 {
		a.tailMs = append(a.tailMs, ms(tail))
	}
}

// engineTail is the time from the first worker going idle to the end of
// engine call e: the wait on stragglers. A worker that never got a
// shard is idle from the start.
func engineTail(spans []span, e int32, workers int) time.Duration {
	last := map[int32]time.Duration{}
	for _, s := range spans {
		if s.kind == kShard && s.parent == e && s.end > last[s.buf] {
			last[s.buf] = s.end
		}
	}
	firstIdle := spans[e].start
	if len(last) >= workers {
		firstIdle = spans[e].end
		for _, t := range last {
			firstIdle = min(firstIdle, t)
		}
	}
	return spans[e].end - firstIdle
}

// values computes every per-layer metric. Exact counters use the
// prefix jobs; times, shares and ratios use every traced job.
func (a *layerAcc) values() map[string]float64 {
	p, all := a.prefix, a.all
	items, pjobs := float64(p.items), float64(p.jobs)
	perItem := func(x uint64) float64 { return ratio(float64(x), items) }
	p50 := func(k spanKind) float64 { return percentile(a.durs[k], 0.5) }
	share := func(ks ...spanKind) float64 {
		var t time.Duration
		for _, k := range ks {
			t += a.sum[k]
		}
		return ratio(float64(t), float64(a.shardTime))
	}
	attack := a.sum[kAttackHijack] + a.sum[kAttackSadDNS] + a.sum[kAttackFrag]
	scan := a.sum[kResolverScan] + a.sum[kDomainScan]
	build := a.sum[kResolverBuild] + a.sum[kDomainBuild]
	njobs := float64(a.jobs)
	return map[string]float64{
		"engine.shards_per_job": ratio(float64(p.shards), pjobs),
		"engine.busy_frac":      ratio(float64(a.shardTime), float64(a.workers)*float64(a.engineTime)),
		"engine.tail_ms_p50":    percentile(a.tailMs, 0.5),

		"campaign.trial_us_p50": p50(kTrial),
		"campaign.trial_us_p90": percentile(a.durs[kTrial], 0.9),
		"campaign.self_share":   ratio(float64(a.campaignSelf), float64(a.shardTime)),

		"scenario.build_us_p50":        p50(kBuild),
		"scenario.build_calls_per_job": ratio(float64(p.builds), pjobs),
		"scenario.reset_us_p50":        p50(kReset),
		"scenario.reset_calls_per_job": ratio(float64(p.resets), pjobs),
		"scenario.snapshot_us_p50":     p50(kSnapshot),
		"scenario.verify_us_p50":       p50(kVerify),
		"scenario.share":               share(kBuild, kSnapshot, kReset, kVerify),

		"apps.deploy_us_p50":   p50(kDeploy),
		"apps.exercise_us_p50": p50(kExercise),
		"apps.share":           share(kDeploy, kExercise),

		"core.attack_us_p50.hijack":    p50(kAttackHijack),
		"core.attack_us_p50.saddns":    p50(kAttackSadDNS),
		"core.attack_us_p90.saddns":    percentile(a.durs[kAttackSadDNS], 0.9),
		"core.attack_us_p50.frag":      p50(kAttackFrag),
		"core.share":                   share(kAttackHijack, kAttackSadDNS, kAttackFrag),
		"core.attacker_pkts_per_trial": perItem(p.pkts),
		"core.iterations_per_trial":    perItem(p.iters),
		"core.queries_per_trial":       perItem(p.queries),
		"core.poison_ratio":            ratio(float64(p.poisoned), float64(p.trials)),

		"sim.virtual_s_per_trial":          ratio(p.virtual.Seconds(), items),
		"sim.host_us_per_virtual_s":        ratio(us(a.sum[kTrial]), all.virtual.Seconds()),
		"netsim.delivered_per_trial":       perItem(p.delivered),
		"netsim.dropped_per_trial":         perItem(p.dropped),
		"netsim.icmp_sent_per_trial":       perItem(p.icmpSent),
		"netsim.icmp_suppressed_per_trial": perItem(p.icmpSuppressed),
		"netsim.ns_per_delivery":           ratio(float64(attack), float64(all.delivered)),

		"pool.wire_gets_per_trial": perItem(p.wireGets),
		"pool.wire_hit_ratio":      ratio(float64(all.wireGets-all.wireMisses), float64(all.wireGets)),

		"resolver.upstream_per_trial":       perItem(p.upstream),
		"resolver.accepted_per_trial":       perItem(p.accepted),
		"resolver.spoof_rejected_per_trial": perItem(p.spoofRejected),
		"resolver.timeouts_per_trial":       perItem(p.timeouts),
		"resolver.tcp_fallbacks_per_trial":  perItem(p.tcpFallbacks),
		"resolver.fwd_forwarded_per_trial":  perItem(p.fwdForwarded),
		"resolver.fwd_cache_hits_per_trial": perItem(p.fwdCacheHits),

		"measure.resolver_build_us_p50": p50(kResolverBuild),
		"measure.resolver_scan_us_p50":  p50(kResolverScan),
		"measure.domain_build_us_p50":   p50(kDomainBuild),
		"measure.domain_scan_us_p50":    p50(kDomainScan),
		"measure.build_share":           ratio(float64(build), float64(build+scan)),
		"measure.scan_us_per_item":      ratio(us(scan), float64(all.scanned)),
		"measure.items_per_job":         ratio(float64(p.scanned), pjobs),

		"report.json_us_p50": p50(kReportJSON),
		"report.text_us_p50": p50(kReportText),

		"serve.cache_hit_ratio":      ratio(float64(a.cacheHits), float64(a.cacheHits+a.cacheMis)),
		"serve.hit_job_ms_p50":       percentile(a.hitMs, 0.5),
		"serve.cold_job_ms_p50":      percentile(a.coldMs, 0.5),
		"serve.events_per_job":       ratio(float64(a.events), njobs),
		"serve.response_kb_per_job":  ratio(float64(a.respBytes)/1024, njobs),
		"serve.client_decode_us_p50": p50(kServeDecode),
		"serve.first_line_ms_p50":    p50(kServeFirst) / 1000,

		"runtime.alloc_bytes_per_job": ratio(a.rt.allocBytes, njobs),
		"runtime.allocs_per_job":      ratio(a.rt.allocs, njobs),
		"runtime.gc_cycles_per_job":   ratio(a.rt.gcCycles, njobs),
		"runtime.gc_cpu_frac":         ratio(a.rt.gcCPU, a.rt.totalCPU),
		"runtime.heap_peak_mb":        a.rt.heapPeak / (1 << 20),

		"bench.trace_overhead_pct": 100 * ratio(float64(a.replayWall-a.realWall), float64(a.realWall)),
		"bench.gen_late_ms_max":    ms(a.genLate),
	}
}
