package crypto

import (
	"sync"

	"rbft/internal/types"
)

// pairRef identifies one (a, b) principal pair in normalised order (a <= b).
type pairRef struct{ a, b principal }

// keyCache memoises the keyed MAC state of each principal pair. Deriving a
// pair key costs one HMAC invocation and expanding it two SHA-256
// compressions; on the ingress hot path every MAC would pay both again, so
// the ring caches the expanded state. The cache is concurrency-safe because
// verifier worker goroutines share one ring.
type keyCache struct {
	mu   sync.RWMutex
	keys map[pairRef]*macKey
}

// macKeyFor returns the keyed MAC state this ring shares with peer, deriving
// and caching it on first use.
func (r *KeyRing) macKeyFor(peer principal) *macKey {
	ref := pairRef{r.self, peer}
	if ref.a > ref.b {
		ref.a, ref.b = ref.b, ref.a
	}
	c := &r.cache
	c.mu.RLock()
	k := c.keys[ref]
	c.mu.RUnlock()
	if k != nil {
		return k
	}
	k = newMACKey(pairKey(r.secret, ref.a, ref.b))
	c.mu.Lock()
	if c.keys == nil {
		c.keys = make(map[pairRef]*macKey)
	}
	c.keys[ref] = k
	c.mu.Unlock()
	return k
}

// WarmPairKeys derives and caches this ring's keyed MAC states with the n
// nodes and maxClients clients of the cluster, so the ingress pipeline never
// pays key derivation under load. Safe to call concurrently and more than
// once.
func (r *KeyRing) WarmPairKeys(n, maxClients int) {
	if r.fast {
		return // fast mode derives nothing per pair
	}
	for i := 0; i < n; i++ {
		r.macKeyFor(nodePrincipal(types.NodeID(i)))
	}
	for i := 0; i < maxClients; i++ {
		r.macKeyFor(clientPrincipal(types.ClientID(i)))
	}
}
