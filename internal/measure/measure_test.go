package measure

import (
	"context"
	"strings"
	"testing"

	"crosslayer/internal/engine"
	"crosslayer/internal/report"
)

// TestScannersRecoverGroundTruth validates the heart of the §5
// methodology: the packet-level probes must re-measure exactly the
// properties the population was synthesized with, resolver by
// resolver.
func TestScannersRecoverGroundTruth(t *testing.T) {
	spec := Table3Datasets()[7] // open resolvers: 74/12/31
	f := NewResolverFleetShard(spec, engine.Shard{Count: 150, Seed: 1})
	r := ScanResolverFleet(f)
	if r.Scanned != 150 {
		t.Fatalf("scanned %d", r.Scanned)
	}
	for i, sr := range f.Resolvers {
		bits := r.Membership[i]
		if sr.TruthSubPrefix != (bits&1 != 0) {
			t.Errorf("resolver %d: sub-prefix truth %v measured %v", i, sr.TruthSubPrefix, bits&1 != 0)
		}
		if sr.TruthSadDNS != (bits&2 != 0) {
			t.Errorf("resolver %d: saddns truth %v measured %v", i, sr.TruthSadDNS, bits&2 != 0)
		}
		if sr.TruthFrag != (bits&4 != 0) {
			t.Errorf("resolver %d: frag truth %v measured %v", i, sr.TruthFrag, bits&4 != 0)
		}
	}
}

func TestDomainScannersRecoverGroundTruth(t *testing.T) {
	spec := Table4Datasets()[0] // eduroam: highest rates, best signal
	f := NewDomainFleetShard(spec, engine.Shard{Count: 120, Seed: 2})
	r := ScanDomainFleet(f)
	fragGlobalTruth := 0
	for i, d := range f.Domains {
		bits := r.Membership[i]
		if d.TruthSubPrefix != (bits&1 != 0) {
			t.Errorf("domain %d: sub truth %v measured %v", i, d.TruthSubPrefix, bits&1 != 0)
		}
		if d.TruthRateLimit != (bits&2 != 0) {
			t.Errorf("domain %d: rrl truth %v measured %v", i, d.TruthRateLimit, bits&2 != 0)
		}
		if d.TruthFragAny != (bits&4 != 0) {
			t.Errorf("domain %d: frag truth %v measured %v", i, d.TruthFragAny, bits&4 != 0)
		}
		if d.TruthFragGlobal {
			fragGlobalTruth++
		}
	}
	if r.FragGlobal.Hits != fragGlobalTruth {
		t.Errorf("frag-global measured %d, truth %d", r.FragGlobal.Hits, fragGlobalTruth)
	}
	if r.DNSSEC.Hits == 0 {
		t.Error("DNSSEC scan found nothing in a 10-percent-signed population")
	}
}

// TestTable3RatesMatchPaperShape checks the measured rates stay within
// sampling noise of the paper's reported marginals.
func TestTable3RatesMatchPaperShape(t *testing.T) {
	tbl, results, err := Table3Run(context.Background(), Config{SampleCap: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("%d datasets", len(results))
	}
	out := tbl.String()
	if !strings.Contains(out, "Open resolvers") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	for _, r := range results {
		if r.Scanned >= 100 {
			within := func(meas int, rate float64, label string) {
				got := float64(meas) / float64(r.Scanned)
				if got < rate-0.15 || got > rate+0.15 {
					t.Errorf("%s/%s: measured %.2f, paper %.2f", r.Spec.Name, label, got, rate)
				}
			}
			within(r.SubPrefix.Hits, r.Spec.SubPrefixRate, "sub-prefix")
			within(r.SadDNS.Hits, r.Spec.SadDNSRate, "saddns")
			within(r.Frag.Hits, r.Spec.FragRate, "frag")
		}
	}
}

func TestTable4RatesMatchPaperShape(t *testing.T) {
	_, results, err := Table4Run(context.Background(), Config{SampleCap: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("%d datasets", len(results))
	}
	for _, r := range results {
		if r.Scanned >= 100 {
			got := float64(r.SubPrefix.Hits) / float64(r.Scanned)
			if got < r.Spec.SubPrefixRate-0.15 || got > r.Spec.SubPrefixRate+0.15 {
				t.Errorf("%s sub-prefix: measured %.2f, paper %.2f", r.Spec.Name, got, r.Spec.SubPrefixRate)
			}
		}
	}
}

func TestComparisonTable6Shape(t *testing.T) {
	cmp, err := RunComparison(context.Background(), Config{Seed: 5}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Hijack.Success || !cmp.SadDNS.Success || !cmp.FragGlobal.Success {
		t.Fatalf("attacks failed: %+v %+v %+v", cmp.Hijack, cmp.SadDNS, cmp.FragGlobal)
	}
	// Table 6 orderings: traffic Hijack << FragGlobal << SadDNS;
	// queries Hijack = 1, SadDNS >= 1.
	if cmp.Hijack.AttackerPackets > 5 {
		t.Errorf("hijack traffic %d, want ~2", cmp.Hijack.AttackerPackets)
	}
	if cmp.FragGlobal.AttackerPackets <= cmp.Hijack.AttackerPackets {
		t.Error("frag should cost more than hijack")
	}
	if cmp.SadDNS.AttackerPackets <= cmp.FragGlobal.AttackerPackets*10 {
		t.Errorf("saddns traffic %d should dwarf frag %d", cmp.SadDNS.AttackerPackets, cmp.FragGlobal.AttackerPackets)
	}
	// Same-prefix interception in the paper's band (~80%).
	if cmp.SamePrefixRate < 0.5 || cmp.SamePrefixRate > 0.95 {
		t.Errorf("same-prefix rate %.2f outside band", cmp.SamePrefixRate)
	}
	tbl := Table6(cmp, [3]float64{0.70, 0.11, 0.91}, [3]float64{0.53, 0.12, 0.04})
	if !strings.Contains(tbl.String(), "Total traffic") {
		t.Fatal("table 6 render broken")
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	_, res, err := Table5Run(context.Background(), Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BIND 9.14.0": true, "Unbound 1.9.1": false,
		"PowerDNS Recursor 4.3.0": true, "systemd resolved 245": true,
		"dnsmasq-2.79": false,
	}
	for k, v := range want {
		if res[k] != v {
			t.Errorf("%s = %v, want %v", k, res[k], v)
		}
	}
}

func TestTable1RowsCoverPaperMatrix(t *testing.T) {
	rows := Table1Rows()
	if len(rows) != 20 {
		t.Fatalf("Table 1 has %d rows, want 20", len(rows))
	}
	categories := map[string]bool{}
	hijackAll := true
	for _, r := range rows {
		categories[r.Category] = true
		if !r.Hijack {
			hijackAll = false
		}
		if r.Impact == "" || r.DemoName == "" {
			t.Errorf("row %s/%s missing impact/demo", r.Category, r.Protocol)
		}
	}
	// Nine categories as in the paper.
	if len(categories) != 9 {
		t.Fatalf("%d categories, want 9", len(categories))
	}
	// HijackDNS applies to every application (Table 1's Hijack column
	// is all checkmarks).
	if !hijackAll {
		t.Fatal("HijackDNS column should be all-applicable")
	}
	if !strings.Contains(Table1().String(), "fraud. certificate") {
		t.Fatal("render broken")
	}
}

func TestFigure3Shapes(t *testing.T) {
	rep, curves, err := Figure3Run(context.Background(), Config{SampleCap: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.String(); !strings.Contains(out, "Nameservers: Alexa") {
		t.Fatalf("figure 3 output:\n%s", out)
	}
	for label, c := range curves {
		if c.Len() == 0 {
			t.Errorf("curve %s empty", label)
		}
		// All prefixes in /11../24.
		if c.Quantile(0) < 11 || c.Quantile(1) > 24 {
			t.Errorf("curve %s range [%v,%v]", label, c.Quantile(0), c.Quantile(1))
		}
	}
}

func TestFigure4Shapes(t *testing.T) {
	_, edns, frag, err := Figure4Run(context.Background(), Config{SampleCap: 150, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// ~40% of resolvers at 512 bytes (Figure 4's left partition).
	at512 := edns.At(512)
	if at512 < 0.2 || at512 > 0.6 {
		t.Errorf("EDNS<=512 fraction %.2f outside band", at512)
	}
	// Most fragmenting nameservers reach 548 bytes.
	if frag.Len() > 10 {
		at548 := frag.At(560)
		if at548 < 0.6 {
			t.Errorf("frag<=560 fraction %.2f; paper says 83%% reach 548", at548)
		}
	}
}

func TestFigure5VennConsistency(t *testing.T) {
	rep, rv, dv, err := Figure5Run(context.Background(), Config{SampleCap: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "Figure 5a") {
		t.Fatal("render broken")
	}
	// HijackDNS must dominate both unions (paper: "the number of
	// resolvers and domains vulnerable to HijackDNS is by far the
	// highest").
	if rv.InA() <= rv.InB() || rv.InA() <= rv.InC() {
		t.Errorf("resolver venn: hijack %d saddns %d frag %d", rv.InA(), rv.InB(), rv.InC())
	}
	if dv.InA() <= dv.InB() || dv.InA() <= dv.InC() {
		t.Errorf("domain venn: hijack %d saddns %d frag %d", dv.InA(), dv.InB(), dv.InC())
	}
}

func TestForwarderStudyBands(t *testing.T) {
	reach, shared := ForwarderStudy(5000, 10)
	if reach < 0.75 || reach > 0.83 {
		t.Errorf("forwarder reachability %.2f, paper 0.79", reach)
	}
	if shared < 0.6 || shared > 0.78 {
		t.Errorf("cache sharing %.2f, paper 0.69", shared)
	}
	if !VerifyForwarderChain(12, 3) {
		t.Fatal("depth-3 forwarder chain did not resolve and cache end-to-end")
	}
	if !VerifyForwarderPath(11) {
		t.Error("dynamic forwarder path verification failed")
	}
}

// TestForwardersRecordsSampleCap: with no cap the forwarder study runs
// 10,000 items, and its report must record the cap it ran at.
func TestForwardersRecordsSampleCap(t *testing.T) {
	rep, err := report.Run(context.Background(), "forwarders", report.Spec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Params {
		if p.Name == "sample_cap" {
			if p.Value != "10000" {
				t.Fatalf("sample_cap %s, want 10000", p.Value)
			}
			return
		}
	}
	t.Fatalf("no sample_cap param in %v", rep.Params)
}
