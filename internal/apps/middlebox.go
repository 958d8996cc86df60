package apps

import (
	"errors"
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
)

// TriggerMode is how a middlebox refreshes its DNS-derived state
// (Table 2's "Trigger query" column).
type TriggerMode string

// TriggerMode values.
const (
	TriggerTimer    TriggerMode = "timer"
	TriggerOnDemand TriggerMode = "on-demand"
)

// MiddleboxProfile describes one Table 2 appliance.
type MiddleboxProfile struct {
	Type     string
	Provider string
	Trigger  TriggerMode
	// CacheTime is the refresh period for timer devices, or the
	// special value 0 for "honours record TTL".
	CacheTime time.Duration
	// AlexaSites is the number of 100K-top Alexa sites using the
	// provider (Table 2's last column; 0 = not reported).
	AlexaSites int
}

// Table2Profiles reproduces the paper's middlebox survey rows.
func Table2Profiles() []MiddleboxProfile {
	return []MiddleboxProfile{
		{"Firewall", "pfSense", TriggerTimer, 500 * time.Second, 0},
		{"Firewall", "Sophos UTM", TriggerTimer, 240 * time.Second, 0},
		{"Load balancer", "Kemp Technologies", TriggerTimer, time.Hour, 0},
		{"Load balancer", "F5 Networks", TriggerTimer, time.Hour, 0},
		{"CDN", "Stackpath", TriggerOnDemand, 0, 79},
		{"CDN", "Fastly", TriggerTimer, 0, 1143},
		{"CDN", "AWS", TriggerOnDemand, 0, 11057},
		{"CDN", "Cloudflare", TriggerOnDemand, 0, 17393},
		{"Managed DNS (ALIAS)", "DNSimple", TriggerOnDemand, 0, 248},
		{"Managed DNS (ALIAS)", "DNS Made Easy", TriggerTimer, 35 * time.Minute, 1192},
		{"Managed DNS (ALIAS)", "Oracle Cloud", TriggerOnDemand, 0, 1382},
		{"Managed DNS (ALIAS)", "Cloudflare", TriggerOnDemand, 0, 20027},
	}
}

// Middlebox is a DNS-consuming appliance: it keeps a backend address
// derived from a configured name, refreshed per its profile. For the
// attacker the profile decides trigger predictability: on-demand
// devices re-query whenever a client request arrives (attacker
// controlled), timer devices on a fixed schedule (attacker
// predictable).
type Middlebox struct {
	Host         *netsim.Host
	ResolverAddr netip.Addr
	Profile      MiddleboxProfile
	BackendName  string

	Backend    netip.Addr
	Refreshes  uint64
	LastTTL    uint32
	refreshing bool
}

// NewMiddlebox creates the appliance; call Start for timer devices.
func NewMiddlebox(host *netsim.Host, resolverAddr netip.Addr, profile MiddleboxProfile, backendName string) *Middlebox {
	return &Middlebox{
		Host: host, ResolverAddr: resolverAddr, Profile: profile,
		BackendName: dnswire.CanonicalName(backendName),
	}
}

// Refresh re-resolves the backend name once.
func (mb *Middlebox) Refresh(done func()) {
	if mb.refreshing {
		if done != nil {
			done()
		}
		return
	}
	mb.refreshing = true
	lookupA(mb.Host, mb.ResolverAddr, mb.BackendName, func(addr netip.Addr, err error) {
		mb.refreshing = false
		if err == nil {
			mb.Backend = addr
			mb.Refreshes++
		}
		if done != nil {
			done()
		}
	})
}

// Start schedules timer-driven refreshes per the profile.
func (mb *Middlebox) Start() {
	if mb.Profile.Trigger != TriggerTimer {
		return
	}
	period := mb.Profile.CacheTime
	if period == 0 {
		period = 5 * time.Minute
	}
	clock := mb.Host.Network().Clock
	var tick func()
	tick = func() {
		mb.Refresh(nil)
		clock.After(period, tick)
	}
	clock.After(0, tick)
}

// HandleClientRequest models a front-end request hitting the device:
// on-demand appliances re-resolve (if their cached entry expired)
// before forwarding — this is the attacker's trigger.
func (mb *Middlebox) HandleClientRequest(path string, cb func(FetchResult)) {
	forward := func() {
		if !mb.Backend.IsValid() {
			cb(FetchResult{Err: errNoBackend})
			return
		}
		mb.Host.CallTCP(mb.Backend, HTTPPort, []byte(path), func(resp []byte) {
			cb(FetchResult{Body: string(resp), ServerAddr: mb.Backend})
		})
	}
	if mb.Profile.Trigger == TriggerOnDemand {
		mb.Refresh(forward)
		return
	}
	forward()
}

var errNoBackend = errors.New("apps: middlebox has no resolved backend")
