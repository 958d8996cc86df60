package apps_test

import (
	"net/netip"
	"testing"
	"time"

	"crosslayer/internal/apps"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/scenario"
)

// poison plants a malicious record in the victim resolver's cache,
// standing in for a successful §3 methodology (the chains themselves
// are tested in internal/core).
func poison(s *scenario.S, name string, typ dnswire.Type, rrs ...*dnswire.RR) {
	s.Resolver.Cache.Put(name, typ, rrs)
}

func poisonA(s *scenario.S, name string) {
	poison(s, name, dnswire.TypeA, dnswire.NewA(name, 300, scenario.AttackerIP))
}

// --- SMTP / anti-spam ---

func TestSMTPBounceStealsMailViaPoisonedMX(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 61})
	ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
	sink := apps.NewMailSink(s.Attacker)

	// Normal: bounce to vict.im goes to the genuine mail host.
	genuine := apps.NewMailSink(s.MailHost)
	var out apps.Outcome
	ms.Deliver(apps.Mail{From: "alice@vict.im", To: "ghost@victim-net.example.", Body: "secret", SenderIP: scenario.VictimMail}, func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeOK || len(genuine.Received) != 1 || len(sink.Received) != 0 {
		t.Fatalf("normal bounce: out=%v genuine=%d sink=%d", out, len(genuine.Received), len(sink.Received))
	}

	// Poison vict.im MX -> mail.atk.example (resolved via atk zone).
	poison(s, "vict.im.", dnswire.TypeMX, dnswire.NewMX("vict.im.", 300, 5, "mail.atk.example."))
	ms.Deliver(apps.Mail{From: "alice@vict.im", To: "ghost@victim-net.example.", Body: "password reset link", SenderIP: scenario.VictimMail}, func(apps.Outcome) {})
	s.Run()
	if len(sink.Received) != 1 {
		t.Fatalf("attacker received %d bounces, want 1", len(sink.Received))
	}
}

func TestSPFDowngradeViaPoisonedTXT(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 62})
	ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
	ms.LocalUsers["bob"] = true

	// Normal: mail claiming to be from vict.im but sent from the
	// attacker IP fails SPF (policy allows only 123.0.0.0/22).
	ms.Deliver(apps.Mail{From: "ceo@vict.im", To: "bob@victim-net.example.", Body: "wire money", SenderIP: scenario.AttackerIP}, nil)
	s.Run()
	if len(ms.Spam) != 1 || len(ms.Inbox) != 0 {
		t.Fatalf("SPF did not reject spoofed mail: spam=%d inbox=%d", len(ms.Spam), len(ms.Inbox))
	}

	// Attack 1: poison the SPF TXT with an attacker-friendly policy.
	poison(s, "vict.im.", dnswire.TypeTXT, dnswire.NewTXT("vict.im.", 300, "v=spf1 ip4:6.6.6.0/24 -all"))
	ms.Deliver(apps.Mail{From: "ceo@vict.im", To: "bob@victim-net.example.", Body: "wire money v2", SenderIP: scenario.AttackerIP}, nil)
	s.Run()
	if len(ms.Inbox) != 1 {
		t.Fatalf("poisoned SPF should let phishing through: inbox=%d", len(ms.Inbox))
	}
}

func TestSPFFailOpenWhenLookupBlocked(t *testing.T) {
	// Attack 2 (downgrade by DoS): NXDOMAIN-poisoning the TXT makes
	// the server fail open.
	s := scenario.New(scenario.Config{Seed: 63})
	ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
	ms.LocalUsers["bob"] = true
	s.Resolver.Cache.PutNegative("vict.im.", dnswire.TypeTXT, 300)
	ms.Deliver(apps.Mail{From: "ceo@vict.im", To: "bob@victim-net.example.", Body: "attach.exe", SenderIP: scenario.AttackerIP}, func(apps.Outcome) {})
	s.Run()
	if len(ms.Inbox) != 1 || ms.SPFFailedOpen != 1 {
		t.Fatalf("fail-open downgrade: inbox=%d failedOpen=%d", len(ms.Inbox), ms.SPFFailedOpen)
	}
}

func TestDKIMDowngrade(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 64})
	ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
	ms.LocalUsers["bob"] = true
	// Signed mail with a key that does NOT match the published DKIM
	// record: rejected normally.
	m := apps.Mail{From: "ceo@vict.im", To: "bob@victim-net.example.", Body: "x",
		SenderIP: scenario.VictimMail, DKIMSignedBy: "vict.im.", DKIMValidKey: "ATTACKERKEY"}
	ms.Deliver(m, nil)
	s.Run()
	if len(ms.Spam) != 1 {
		t.Fatalf("bad DKIM signature accepted: spam=%d", len(ms.Spam))
	}
	// Poisoned key record makes the attacker's signature "valid".
	poison(s, "sel1._domainkey.vict.im.", dnswire.TypeTXT,
		dnswire.NewTXT("sel1._domainkey.vict.im.", 300, "v=DKIM1; p=ATTACKERKEY"))
	ms.Deliver(m, nil)
	s.Run()
	if len(ms.Inbox) != 1 {
		t.Fatalf("poisoned DKIM key not accepted: inbox=%d", len(ms.Inbox))
	}
}

// --- Web / proxy / password recovery ---

func TestWebHijackPlainHTTP(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 65})
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "genuine"
	apps.NewWebServer(s.Attacker, apps.SelfSigned("www.vict.im.")).Pages["/"] = "evil"
	wc := &apps.WebClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP}
	var res apps.FetchResult
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.Err != nil || res.Body != "genuine" {
		t.Fatalf("normal fetch: %+v", res)
	}
	poisonA(s, "www.vict.im.")
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.Body != "evil" || res.ServerAddr != scenario.AttackerIP {
		t.Fatalf("plain-HTTP hijack failed: %+v", res)
	}
}

func TestWebTLSBlocksHijackUntilFraudulentCert(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 66})
	evil := apps.NewWebServer(s.Attacker, apps.SelfSigned("www.vict.im."))
	evil.Pages["/"] = "evil"
	wc := &apps.WebClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP, VerifyTLS: true}
	poisonA(s, "www.vict.im.")
	var res apps.FetchResult
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.Err == nil {
		t.Fatal("TLS client accepted self-signed impersonation")
	}
	// Now the attacker obtains a fraudulent certificate via the DV
	// attack (tested below) and impersonation becomes invisible.
	evil.Ident = apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.Err != nil || res.Body != "evil" {
		t.Fatalf("fraudulent cert should enable silent hijack: %+v", res)
	}
}

func TestProxyTriggersQueriesOnItsResolver(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 67})
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "page"
	p := apps.NewProxy(s.ServiceHost, scenario.ResolverIP)
	before := s.Resolver.ClientQueries
	var res apps.FetchResult
	p.Fetch("www.vict.im.", "/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.Err != nil || res.Body != "page" {
		t.Fatalf("proxied fetch: %+v", res)
	}
	if s.Resolver.ClientQueries == before {
		t.Fatal("proxy did not trigger a resolver query")
	}
}

func TestPasswordRecoveryAccountTakeover(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 68})
	apps.NewMailSink(s.MailHost)
	sink := apps.NewMailSink(s.Attacker)
	pr := &apps.PasswordRecovery{Host: s.ServiceHost, ResolverAddr: scenario.ResolverIP, ServiceName: "rir.example."}
	var to netip.Addr
	pr.Recover("lir-admin@vict.im", "TOKEN-1", func(addr netip.Addr, err error) { to = addr })
	s.Run()
	if to != scenario.VictimMail {
		t.Fatalf("normal recovery went to %v", to)
	}
	poison(s, "vict.im.", dnswire.TypeMX, dnswire.NewMX("vict.im.", 300, 5, "mail.atk.example."))
	pr.Recover("lir-admin@vict.im", "TOKEN-2", func(addr netip.Addr, err error) { to = addr })
	s.Run()
	if to != scenario.AttackerIP {
		t.Fatalf("poisoned recovery went to %v", to)
	}
	if len(sink.Received) != 1 {
		t.Fatal("attacker did not capture the reset token")
	}
}

// --- NTP ---

func TestNTPTimeShift(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 69})
	apps.NewNTPServer(s.WWWHost, 0)                    // honest ntp.vict.im
	apps.NewNTPServer(s.Attacker, 10*365*24*time.Hour) // attacker: +10 years
	c := apps.NewNTPClient(s.ClientHost, scenario.ResolverIP, "ntp.vict.im.")
	var out apps.Outcome
	c.SyncOnce(func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeOK || c.Syncs != 1 {
		t.Fatalf("normal sync: %v syncs=%d", out, c.Syncs)
	}
	poisonA(s, "ntp.vict.im.")
	c.SyncOnce(func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeHijack {
		t.Fatalf("poisoned sync outcome = %v, want hijack", out)
	}
	if c.ClockOffset < 9*365*24*time.Hour {
		t.Fatalf("clock not shifted: %v", c.ClockOffset)
	}
}

// --- RADIUS / XMPP ---

func TestRadiusDoS(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 70})
	apps.NewFederationServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA})
	apps.NewFederationServer(s.Attacker, apps.SelfSigned("www.vict.im."))
	rc := &apps.RadiusClient{Host: s.ServiceHost, ResolverAddr: scenario.ResolverIP}
	var out apps.Outcome
	rc.Authenticate("student@vict.im", func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeOK {
		t.Fatalf("normal eduroam auth: %v", out)
	}
	// Poison the discovery A record: the attacker cannot present a
	// valid certificate, so the student simply cannot log in.
	poisonA(s, "www.vict.im.")
	rc.Authenticate("student@vict.im", func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeDoS || rc.AuthFailures != 1 {
		t.Fatalf("poisoned eduroam auth = %v failures=%d, want DoS", out, rc.AuthFailures)
	}
}

func TestXMPPEavesdropping(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 71})
	apps.NewFederationServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA})
	evil := apps.NewFederationServer(s.Attacker, apps.SelfSigned("www.vict.im."))
	xp := &apps.XMPPServerPeer{Host: s.ServiceHost, ResolverAddr: scenario.ResolverIP}
	var at netip.Addr
	xp.SendMessage("friend@vict.im", "hello", func(o apps.Outcome, addr netip.Addr) { at = addr })
	s.Run()
	if at != scenario.VictimWWW {
		t.Fatalf("normal federation went to %v", at)
	}
	poisonA(s, "www.vict.im.")
	xp.SendMessage("friend@vict.im", "my secret", func(o apps.Outcome, addr netip.Addr) { at = addr })
	s.Run()
	if at != scenario.AttackerIP || len(evil.Transcript) != 1 {
		t.Fatalf("eavesdropping failed: at=%v transcript=%d", at, len(evil.Transcript))
	}
}

// --- VPN ---

func TestVPNDoSAndOpportunisticIPsecHijack(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 72})
	apps.NewVPNServer(s.WWWHost, apps.Identity{Subject: "vpn.vict.im.", Issuer: apps.TrustedCA})
	apps.NewVPNServer(s.Attacker, apps.SelfSigned("vpn.vict.im."))
	vc := &apps.VPNClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP, Gateway: "vpn.vict.im."}
	var out apps.Outcome
	vc.Connect(func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeOK {
		t.Fatalf("normal VPN connect: %v", out)
	}
	poisonA(s, "vpn.vict.im.")
	vc.Connect(func(o apps.Outcome) { out = o })
	s.Run()
	if out != apps.OutcomeDoS {
		t.Fatalf("poisoned VPN connect = %v, want DoS (cert mismatch)", out)
	}

	// Opportunistic IPsec has no cert check: a poisoned IPSECKEY is a
	// silent eavesdropping hijack.
	s.VictimZone.Add(&dnswire.RR{
		Name: "peer.vict.im.", Type: dnswire.TypeIPSECKEY, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.IPSECKEYData{Precedence: 10, GatewayType: 1, Algorithm: 2,
			GatewayIP: scenario.VictimWWW, PublicKey: []byte("GENUINE")},
	})
	oi := &apps.OpportunisticIPsec{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP}
	var cfg apps.PeerConfig
	oi.Discover("peer.vict.im.", func(c apps.PeerConfig, err error) { cfg = c })
	s.Run()
	if cfg.Gateway != scenario.VictimWWW {
		t.Fatalf("normal IPSECKEY gateway %v", cfg.Gateway)
	}
	poison(s, "peer.vict.im.", dnswire.TypeIPSECKEY, &dnswire.RR{
		Name: "peer.vict.im.", Type: dnswire.TypeIPSECKEY, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.IPSECKEYData{Precedence: 10, GatewayType: 1, Algorithm: 2,
			GatewayIP: scenario.AttackerIP, PublicKey: []byte("EVIL")},
	})
	oi.Discover("peer.vict.im.", func(c apps.PeerConfig, err error) { cfg = c })
	s.Run()
	if cfg.Gateway != scenario.AttackerIP || string(cfg.Key) != "EVIL" {
		t.Fatalf("poisoned IPSECKEY not adopted: %+v", cfg)
	}
}

// --- Bitcoin ---

func TestBitcoinEclipse(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 73})
	apps.NewBitcoinNode(s.WWWHost, "block-800000-genuine")
	apps.NewBitcoinNode(s.Attacker, "block-799000-fake")
	bc := &apps.BitcoinClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP, SeedName: "seed.vict.im."}
	bc.Bootstrap(func(apps.Outcome) {})
	s.Run()
	if bc.AdoptedTip != "block-800000-genuine" {
		t.Fatalf("normal bootstrap adopted %q", bc.AdoptedTip)
	}
	poisonA(s, "seed.vict.im.")
	bc2 := &apps.BitcoinClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP, SeedName: "seed.vict.im."}
	bc2.Bootstrap(func(apps.Outcome) {})
	s.Run()
	if !bc2.Eclipsed("block-799000-fake") {
		t.Fatalf("eclipse failed: adopted %q", bc2.AdoptedTip)
	}
}

// --- PKI: DV and OCSP ---

func TestFraudulentCertificateViaPoisonedCAResolver(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 74})
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA})
	evil := apps.NewWebServer(s.Attacker, apps.SelfSigned("attacker"))
	evil.Pages["/.well-known/acme"] = "token-ATTACK"
	ca := &apps.CertificateAuthority{Host: s.ServiceHost, ResolverAddr: scenario.ResolverIP}

	// Without poisoning the CA validates against the genuine host and
	// refuses (the attacker's token is not there).
	var issueErr error
	ca.RequestCertificate("www.vict.im.", "token-ATTACK", func(_ apps.Identity, err error) { issueErr = err })
	s.Run()
	if issueErr == nil {
		t.Fatal("CA issued without control of the domain")
	}
	// Poison the CA's resolver: DV now runs against the attacker.
	poisonA(s, "www.vict.im.")
	var cert apps.Identity
	ca.RequestCertificate("www.vict.im.", "token-ATTACK", func(id apps.Identity, err error) { cert, issueErr = id, err })
	s.Run()
	if issueErr != nil {
		t.Fatalf("DV attack failed: %v", issueErr)
	}
	if cert.VerifyFor("www.vict.im.") != nil {
		t.Fatal("fraudulent certificate does not verify — it should (that is the problem)")
	}
}

func TestOCSPSoftFailDowngrade(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 75})
	responder := apps.NewOCSPResponder(s.WWWHost)
	revoked := apps.Identity{Subject: "compromised.vict.im.", Issuer: apps.TrustedCA}
	responder.Revoked["compromised.vict.im."] = true
	oc := &apps.OCSPClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP, ResponderName: "ocsp.vict.im."}
	var accept bool
	var out apps.Outcome
	oc.CheckRevocation(revoked, func(a bool, o apps.Outcome) { accept, out = a, o })
	s.Run()
	if accept {
		t.Fatal("revoked certificate accepted with working OCSP")
	}
	// Poison the responder name to a black hole (attacker IP with no
	// OCSP service): soft-fail accepts the revoked certificate.
	poisonA(s, "ocsp.vict.im.")
	oc.CheckRevocation(revoked, func(a bool, o apps.Outcome) { accept, out = a, o })
	s.Run()
	if !accept || out != apps.OutcomeDowngrade {
		t.Fatalf("soft-fail downgrade: accept=%v out=%v", accept, out)
	}
}

// --- Middleboxes (Table 2) ---

func TestMiddleboxTimerRefresh(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 76})
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "backend"
	prof := apps.Table2Profiles()[0] // pfSense, 500s timer
	mb := apps.NewMiddlebox(s.ServiceHost, scenario.ResolverIP, prof, "www.vict.im.")
	mb.Start()
	s.Clock.RunUntil(1600 * time.Second)
	if mb.Refreshes < 3 || mb.Refreshes > 5 {
		t.Fatalf("timer refreshes = %d over 1600s at 500s period", mb.Refreshes)
	}
	if mb.Backend != scenario.VictimWWW {
		t.Fatalf("backend = %v", mb.Backend)
	}
}

func TestMiddleboxOnDemandIsAttackerTriggerable(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 77})
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "backend"
	apps.NewWebServer(s.Attacker, apps.SelfSigned("cdn")).Pages["/"] = "evil-backend"
	prof := apps.Table2Profiles()[6] // AWS CDN, on-demand
	mb := apps.NewMiddlebox(s.ServiceHost, scenario.ResolverIP, prof, "www.vict.im.")
	var res apps.FetchResult
	mb.HandleClientRequest("/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.ServerAddr != scenario.VictimWWW {
		t.Fatalf("CDN forwarded to %v", res.ServerAddr)
	}
	// After the record TTL expires and the cache is poisoned, the next
	// client request re-resolves and reaches the attacker: on-demand
	// devices hand the attacker the query trigger.
	s.Clock.RunUntil(s.Clock.Now() + 301*time.Second)
	poisonA(s, "www.vict.im.")
	mb.HandleClientRequest("/", func(r apps.FetchResult) { res = r })
	s.Run()
	if res.ServerAddr != scenario.AttackerIP {
		t.Fatalf("poisoned CDN forwarded to %v", res.ServerAddr)
	}
}

func TestTable2ProfilesComplete(t *testing.T) {
	profs := apps.Table2Profiles()
	if len(profs) != 12 {
		t.Fatalf("Table 2 has %d rows, want 12", len(profs))
	}
	var onDemand, timer int
	for _, p := range profs {
		switch p.Trigger {
		case apps.TriggerOnDemand:
			onDemand++
		case apps.TriggerTimer:
			timer++
		}
	}
	if onDemand != 6 || timer != 6 {
		t.Fatalf("trigger split %d/%d, want 6/6", onDemand, timer)
	}
}

// --- Identity primitives ---

func TestIdentityVerification(t *testing.T) {
	good := apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}
	if err := good.VerifyFor("WWW.VICT.IM"); err != nil {
		t.Fatalf("case-insensitive subject match failed: %v", err)
	}
	if err := apps.SelfSigned("www.vict.im.").VerifyFor("www.vict.im."); err == nil {
		t.Fatal("self-signed accepted")
	}
	if err := good.VerifyFor("other.example."); err == nil {
		t.Fatal("wrong subject accepted")
	}
}
