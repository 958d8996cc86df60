package apps

import (
	"net/netip"
	"strings"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// BitcoinPort is the peer-to-peer port.
const BitcoinPort = 8333

// BitcoinNode serves a chain tip to connecting peers; an attacker node
// serves a fake chain ("Hijack: fake blockchain", Table 1).
type BitcoinNode struct {
	Host     *netsim.Host
	ChainTip string
	Peers    uint64
}

// NewBitcoinNode binds a P2P endpoint on host.
func NewBitcoinNode(host *netsim.Host, chainTip string) *BitcoinNode {
	n := &BitcoinNode{Host: host, ChainTip: chainTip}
	host.BindTCP(BitcoinPort, func(_ netip.Addr, req []byte) []byte {
		n.Peers++
		return []byte("tip=" + n.ChainTip)
	})
	return n
}

// BitcoinClient bootstraps by resolving hard-coded DNS seeds ("known"
// query name, trigger by waiting for a node restart) and adopts the
// chain tip the majority of its peers report. If every A record of
// the seed is poisoned, all peers are the attacker's and the node is
// eclipsed onto a fake chain.
type BitcoinClient struct {
	Host         *netsim.Host
	ResolverAddr netip.Addr
	SeedName     string

	AdoptedTip string
	PeerAddrs  []netip.Addr
}

// Bootstrap resolves the seed and syncs with up to 8 peers.
func (bc *BitcoinClient) Bootstrap(cb func(Outcome)) {
	seed := dnswire.CanonicalName(bc.SeedName)
	resolver.StubLookup(bc.Host, bc.ResolverAddr, seed, dnswire.TypeA, 8*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil || len(rrs) == 0 {
				cb(OutcomeDoS)
				return
			}
			var addrs []netip.Addr
			for _, rr := range rrs {
				if a, ok := rr.Data.(*dnswire.AData); ok {
					addrs = append(addrs, a.Addr)
				}
				if len(addrs) == 8 {
					break
				}
			}
			bc.PeerAddrs = addrs
			tips := map[string]int{}
			remaining := len(addrs)
			for _, addr := range addrs {
				bc.Host.CallTCP(addr, BitcoinPort, []byte("getheaders"), func(resp []byte) {
					remaining--
					if resp != nil {
						tips[string(resp)]++
					}
					if remaining == 0 {
						bc.finish(tips, cb)
					}
				})
			}
			if len(addrs) == 0 {
				cb(OutcomeDoS)
			}
		})
}

func (bc *BitcoinClient) finish(tips map[string]int, cb func(Outcome)) {
	best, n := "", 0
	for tip, c := range tips {
		if c > n {
			best, n = tip, c
		}
	}
	if best == "" {
		cb(OutcomeDoS)
		return
	}
	bc.AdoptedTip = strings.TrimPrefix(best, "tip=")
	cb(OutcomeOK)
}

// Eclipsed reports whether the node's view of the chain matches the
// attacker's fake tip.
func (bc *BitcoinClient) Eclipsed(fakeTip string) bool { return bc.AdoptedTip == fakeTip }
