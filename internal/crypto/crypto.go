// Package crypto provides the authentication primitives RBFT uses on the
// wire: pairwise HMAC-SHA256 message authentication codes, MAC authenticators
// (one MAC per receiving node), Ed25519 request signatures, and SHA-256
// digests.
//
// The paper's layering is preserved: client requests carry a signature (for
// non-repudiation, because requests are forwarded node-to-node during the
// PROPAGATE phase) wrapped in a MAC authenticator (so that a flood of bogus
// requests is rejected at MAC cost, an order of magnitude cheaper than
// signature verification).
//
// Callers authenticate short preimages (internal/message lets a payload in
// only through its digest), so this package makes those cheap: each pair's
// HMAC key is expanded once into its two keyed SHA-256 states (batch.go), a
// MAC restores them on a pooled Hasher and allocates nothing, and an
// authenticator is one pass over the peer set. A signature by a key checked
// before is checked against a table of the key's multiples (keytable.go).
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"rbft/internal/types"
)

// MACSize is the byte length of a single truncated HMAC-SHA256 tag.
const MACSize = 16

// MAC is a single pairwise authentication tag.
type MAC [MACSize]byte

// Errors returned by verification.
var (
	ErrBadMAC       = errors.New("crypto: MAC verification failed")
	ErrBadSignature = errors.New("crypto: signature verification failed")
	ErrUnknownPeer  = errors.New("crypto: no key material for peer")
)

// Digest hashes a payload with SHA-256.
func Digest(data []byte) types.Digest {
	return sha256.Sum256(data)
}

// Hasher is a pooled streaming SHA-256: it digests a payload that arrives in
// pieces without a concatenation buffer. NewHasher takes one from the pool,
// Sum returns it.
type Hasher struct {
	h     hash.Hash
	state encoding.BinaryUnmarshaler // h's state setter, for keyed MAC states
	// buf stages short inputs and hash outputs: bytes handed to a hash.Hash
	// escape to the heap, staged ones let the caller's buffer stay on its
	// stack — which is what makes short-preimage MACs allocation-free.
	buf [128]byte
}

var hasherPool = sync.Pool{New: func() interface{} {
	h := sha256.New()
	return &Hasher{h: h, state: h.(encoding.BinaryUnmarshaler)}
}}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher {
	s := hasherPool.Get().(*Hasher)
	s.h.Reset()
	return s
}

// Write absorbs p directly; p escapes to the heap, so this is for payloads
// that already live there.
func (s *Hasher) Write(p []byte) { s.h.Write(p) }

// WriteLocal absorbs a short p through the staging buffer, so p may live on
// the caller's stack.
func (s *Hasher) WriteLocal(p []byte) {
	for len(p) > 0 {
		n := copy(s.buf[:], p)
		s.h.Write(s.buf[:n])
		p = p[n:]
	}
}

// Sum returns the digest of everything written and releases the Hasher.
func (s *Hasher) Sum() types.Digest {
	var d types.Digest
	copy(d[:], s.h.Sum(s.buf[:0]))
	hasherPool.Put(s)
	return d
}

// principal is an internal identity in the MAC key space. Nodes and clients
// live in disjoint halves.
type principal int64

func nodePrincipal(n types.NodeID) principal     { return principal(n) }
func clientPrincipal(c types.ClientID) principal { return principal(1<<32) + principal(c) }

// KeyRing holds one principal's secret material: its Ed25519 signing key and
// the symmetric keys it shares with every other principal. In a deployment
// these would come from a PKI plus a key-exchange protocol; here they are
// derived deterministically from a cluster secret, which models the same
// trust assumptions (faulty principals know only their own keys).
type KeyRing struct {
	self    principal
	signKey ed25519.PrivateKey
	store   *KeyStore
	secret  []byte
	fast    bool
	// cache memoises keyed MAC states per pair (see batch.go); verifier
	// goroutines share the ring, so the cache carries its own lock.
	cache keyCache
}

// KeyStore derives key rings for a cluster from a master secret. It is the
// test/simulation stand-in for a key distribution infrastructure.
//
// Public keys are derived lazily: a million-client front door must not pay a
// million Ed25519 key derivations at startup for clients that may never
// appear. Whether a principal is known at all is a pure range check against
// the configured cluster size; the actual public key is derived (and cached
// under mu) only when a signature check first needs it. All rings of one
// store share the cache and the key tables (keytable.go), which verifier
// worker goroutines read without a lock.
type KeyStore struct {
	secret  []byte
	nodes   int
	clients int
	fast    bool

	mu   sync.Mutex
	pubs map[principal]ed25519.PublicKey

	tables [tableSlots]atomic.Pointer[keySlot]
}

// known reports whether a principal is inside the cluster's configured node
// and client ranges — the lazy equivalent of the old eager map's membership.
func (ks *KeyStore) known(p principal) bool {
	if p >= clientPrincipal(0) {
		return p < clientPrincipal(0)+principal(ks.clients)
	}
	return p >= 0 && p < principal(ks.nodes)
}

// pub returns the public key for a known principal, deriving and caching it
// on first use.
func (ks *KeyStore) pub(p principal) ed25519.PublicKey {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if k, ok := ks.pubs[p]; ok {
		return k
	}
	k := deriveSignKey(ks.secret, p).Public().(ed25519.PublicKey)
	if ks.pubs == nil {
		ks.pubs = make(map[principal]ed25519.PublicKey)
	}
	ks.pubs[p] = k
	return k
}

// NewInsecureFastKeyStore creates a key store whose MAC and signature
// operations are cheap non-cryptographic checksums. FOR SIMULATION ONLY:
// the discrete-event simulator charges modelled crypto costs in virtual
// time, so spending real CPU on Ed25519 would only slow the experiments
// down; integrity is still checked (corrupted authenticators fail), but
// nothing here resists a real adversary.
func NewInsecureFastKeyStore(secret []byte, n, maxClients int) *KeyStore {
	ks := NewKeyStore(secret, n, maxClients)
	ks.fast = true
	return ks
}

// NewKeyStore creates a key store for a cluster of n nodes and up to
// maxClients clients, deriving all keys from secret.
func NewKeyStore(secret []byte, n, maxClients int) *KeyStore {
	return &KeyStore{
		secret:  append([]byte(nil), secret...),
		nodes:   n,
		clients: maxClients,
	}
}

// NodeRing returns the key ring for node n.
func (ks *KeyStore) NodeRing(n types.NodeID) *KeyRing {
	return ks.ring(nodePrincipal(n))
}

// ClientRing returns the key ring for client c.
func (ks *KeyStore) ClientRing(c types.ClientID) *KeyRing {
	return ks.ring(clientPrincipal(c))
}

func (ks *KeyStore) ring(self principal) *KeyRing {
	r := &KeyRing{
		self:   self,
		store:  ks,
		secret: ks.secret,
		fast:   ks.fast,
	}
	// Fast (simulation) mode never touches the Ed25519 key: skipping the
	// derivation keeps ring creation cheap enough to mint rings lazily for
	// millions of simulated clients.
	if !ks.fast {
		r.signKey = deriveSignKey(ks.secret, self)
	}
	return r
}

func deriveSignKey(secret []byte, p principal) ed25519.PrivateKey {
	h := hmac.New(sha256.New, secret)
	var buf [9]byte
	buf[0] = 's'
	binary.BigEndian.PutUint64(buf[1:], uint64(p))
	h.Write(buf[:])
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// pairKey derives the symmetric key shared between two principals. The key is
// symmetric in its arguments so both ends derive the same key.
func pairKey(secret []byte, a, b principal) []byte {
	if a > b {
		a, b = b, a
	}
	h := hmac.New(sha256.New, secret)
	var buf [17]byte
	buf[0] = 'm'
	binary.BigEndian.PutUint64(buf[1:9], uint64(a))
	binary.BigEndian.PutUint64(buf[9:17], uint64(b))
	h.Write(buf[:])
	return h.Sum(nil)
}

// macKey is one pair's HMAC-SHA256 key expanded into its two keyed SHA-256
// states (key^ipad and key^opad absorbed), marshaled. Immutable, so
// concurrent verifiers share it without a lock.
type macKey struct{ inner, outer []byte }

func newMACKey(key []byte) *macKey {
	keyed := func(pad byte) []byte {
		var block [sha256.BlockSize]byte
		copy(block[:], key) // pair keys are 32 bytes, never longer than a block
		for i := range block {
			block[i] ^= pad
		}
		h := sha256.New()
		h.Write(block[:])
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("crypto: sha256 state does not marshal: " + err.Error())
		}
		return state
	}
	return &macKey{inner: keyed(0x36), outer: keyed(0x5c)}
}

// mac computes the truncated HMAC-SHA256 of data under k.
func (s *Hasher) mac(k *macKey, data []byte) MAC {
	s.restore(k.inner)
	s.WriteLocal(data)
	sum := s.h.Sum(s.buf[:0])
	s.restore(k.outer)
	s.h.Write(sum)
	var tag MAC
	copy(tag[:], s.h.Sum(s.buf[:0]))
	return tag
}

func (s *Hasher) restore(state []byte) {
	if err := s.state.UnmarshalBinary(state); err != nil {
		panic("crypto: sha256 state does not unmarshal: " + err.Error())
	}
}

// fastSum is the simulation-only body checksum: FNV-1a over the ring secret
// and the data (spelled out: through a hash.Hash, data would escape).
// Computed once per message; per-principal tags mix it with the pair
// identity (see fastMix).
func fastSum(key, data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// fastMix derives a 16-byte tag from a body checksum and a pair/principal
// identity (splitmix64-style finalisers).
func fastMix(sum, extra uint64) [16]byte {
	x := sum ^ (extra * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	y := x ^ 0xD6E8FEB86659FD93
	y ^= y >> 32
	y *= 0xFF51AFD7ED558CCD
	y ^= y >> 29
	var tag [16]byte
	binary.BigEndian.PutUint64(tag[:8], x)
	binary.BigEndian.PutUint64(tag[8:], y)
	return tag
}

// fastTag combines fastSum and fastMix for one-shot callers.
func fastTag(key []byte, extra uint64, data []byte) [16]byte {
	return fastMix(fastSum(key, data), extra)
}

// fastPairTag is the simulation-only pair tag over a body checksum.
func fastPairTag(sum uint64, a, b principal) MAC {
	if a > b {
		a, b = b, a
	}
	return MAC(fastMix(sum, uint64(a)<<20^uint64(b)))
}

// pairMAC computes the MAC this ring shares with peer over data.
func (r *KeyRing) pairMAC(peer principal, data []byte) MAC {
	if r.fast {
		return fastPairTag(fastSum(r.secret, data), r.self, peer)
	}
	s := hasherPool.Get().(*Hasher)
	tag := s.mac(r.macKeyFor(peer), data)
	hasherPool.Put(s)
	return tag
}

// MACForNode authenticates data for a single receiving node.
func (r *KeyRing) MACForNode(to types.NodeID, data []byte) MAC {
	return r.pairMAC(nodePrincipal(to), data)
}

// MACForClient authenticates data for a single receiving client.
func (r *KeyRing) MACForClient(to types.ClientID, data []byte) MAC {
	return r.pairMAC(clientPrincipal(to), data)
}

// VerifyNodeMAC checks a tag allegedly produced by node from over data.
func (r *KeyRing) VerifyNodeMAC(from types.NodeID, data []byte, tag MAC) error {
	return r.verifyMAC(nodePrincipal(from), data, tag[:])
}

// VerifyClientMAC checks a tag allegedly produced by client from over data.
func (r *KeyRing) VerifyClientMAC(from types.ClientID, data []byte, tag MAC) error {
	return r.verifyMAC(clientPrincipal(from), data, tag[:])
}

func (r *KeyRing) verifyMAC(from principal, data, tag []byte) error {
	want := r.pairMAC(from, data)
	if !hmac.Equal(want[:], tag) {
		return ErrBadMAC
	}
	return nil
}

// Authenticator is a MAC authenticator: one MAC per node, concatenated in
// NodeID order. That is also its wire form, so the authenticator of a decoded
// message is a slice of the received frame and costs a receiver nothing per
// node: a sender computes it once; each receiver verifies only its own entry.
type Authenticator []byte

// Entries returns the number of MACs a holds.
func (a Authenticator) Entries() int { return len(a) / MACSize }

// Entry returns node i's MAC. The bytes alias a.
func (a Authenticator) Entry(i int) []byte { return a[i*MACSize : (i+1)*MACSize] }

// AuthenticatorForNodes builds a MAC authenticator over data covering the n
// nodes of the cluster: one pooled Hasher (in fast mode, one body checksum)
// serves every entry. A node's own entry stays zero — nobody verifies it.
func (r *KeyRing) AuthenticatorForNodes(n int, data []byte) Authenticator {
	auth := make(Authenticator, n*MACSize)
	var s *Hasher
	var sum uint64
	if r.fast {
		sum = fastSum(r.secret, data)
	} else {
		s = hasherPool.Get().(*Hasher)
		defer hasherPool.Put(s)
	}
	for i := 0; i < n; i++ {
		peer := nodePrincipal(types.NodeID(i))
		if peer == r.self {
			continue
		}
		var tag MAC
		if r.fast {
			tag = fastPairTag(sum, r.self, peer)
		} else {
			tag = s.mac(r.macKeyFor(peer), data)
		}
		copy(auth.Entry(i), tag[:])
	}
	return auth
}

// VerifyAuthenticatorEntry checks this ring's node entry of an authenticator
// produced by node from. self must be this ring's node identity.
func (r *KeyRing) VerifyAuthenticatorEntry(from types.NodeID, self types.NodeID, data []byte, auth Authenticator) error {
	return r.verifyEntry(nodePrincipal(from), self, data, auth)
}

// VerifyClientAuthenticatorEntry checks this ring's entry of an authenticator
// produced by client from.
func (r *KeyRing) VerifyClientAuthenticatorEntry(from types.ClientID, self types.NodeID, data []byte, auth Authenticator) error {
	return r.verifyEntry(clientPrincipal(from), self, data, auth)
}

func (r *KeyRing) verifyEntry(from principal, self types.NodeID, data []byte, auth Authenticator) error {
	if int(self) >= auth.Entries() || self < 0 {
		return fmt.Errorf("%w: authenticator has %d entries, want entry %d", ErrBadMAC, auth.Entries(), self)
	}
	return r.verifyMAC(from, data, auth.Entry(int(self)))
}

// Sign produces an Ed25519 signature over data (or the simulation-only
// checksum in fast mode).
func (r *KeyRing) Sign(data []byte) []byte {
	if r.fast {
		tag := fastTag(r.secret, uint64(r.self), data)
		sig := make([]byte, ed25519.SignatureSize)
		copy(sig, tag[:])
		return sig
	}
	return ed25519.Sign(r.signKey, data)
}

// VerifyNodeSignature checks a signature allegedly produced by node from.
func (r *KeyRing) VerifyNodeSignature(from types.NodeID, data, sig []byte) error {
	return r.verifySig(nodePrincipal(from), data, sig)
}

// VerifyClientSignature checks a signature allegedly produced by client from.
func (r *KeyRing) VerifyClientSignature(from types.ClientID, data, sig []byte) error {
	return r.verifySig(clientPrincipal(from), data, sig)
}

func (r *KeyRing) verifySig(from principal, data, sig []byte) error {
	if !r.store.known(from) {
		return fmt.Errorf("%w: principal %d", ErrUnknownPeer, from)
	}
	if r.fast {
		want := fastTag(r.secret, uint64(from), data)
		if len(sig) != ed25519.SignatureSize || !hmac.Equal(sig[:16], want[:]) {
			return ErrBadSignature
		}
		return nil
	}
	if len(sig) != ed25519.SignatureSize || !r.store.verify(from, data, sig) {
		return ErrBadSignature
	}
	return nil
}

// SignatureSize is the byte length of request signatures.
const SignatureSize = ed25519.SignatureSize
