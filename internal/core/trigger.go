package core

import (
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// TriggerDirect makes a client host issue the target query straight to
// the victim resolver — the "direct" trigger of §4.3.1 (a lured web
// client, a script, an application under attacker influence).
func TriggerDirect(client *netsim.Host, resolverAddr netip.Addr, name string, typ dnswire.Type) Trigger {
	return func(done func()) {
		resolver.StubLookup(client, resolverAddr, name, typ, 30*time.Second,
			func([]*dnswire.RR, error) { done() })
	}
}

// TriggerFunc adapts any niladic function (e.g. an application action
// like "send an email that bounces") into a Trigger.
func TriggerFunc(fn func()) Trigger {
	return func(done func()) {
		fn()
		done()
	}
}
