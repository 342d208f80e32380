package message

import (
	"errors"
	"fmt"
	"sync"

	"rbft/internal/crypto"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// This file implements the first stage of the two-stage ingress pipeline
// (docs/PIPELINE.md): a pure, node-state-free preverification that decodes a
// frame and checks its authentication material, producing a Verified value
// the deterministic apply stage (core.Node) consumes without re-running any
// crypto. Because the stage reads no node state, drivers may run it on any
// number of goroutines (internal/runtime) or charge it on parallel simulated
// cores (internal/sim).

// FailKind classifies preverification failures: the node's flood-accounting
// and blacklisting reactions depend on it, as does the rejected-frame counter.
type FailKind uint8

// Preverification failure kinds.
const (
	// FailMalformed is an undecodable frame or a message type that cannot
	// arrive on this path (e.g. a REQUEST on the node-to-node NIC).
	FailMalformed FailKind = iota + 1
	// FailWrongSender is a decodable message whose claimed sender field does
	// not match the wire-level sender, or whose instance id is out of range.
	FailWrongSender
	// FailBadMAC is a MAC or MAC-authenticator mismatch.
	FailBadMAC
	// FailBadSig is a signature mismatch (client request or VIEW-CHANGE).
	FailBadSig
)

var failKindNames = [...]string{"unknown", "malformed", "wrong-sender", "bad-mac", "bad-sig"}

// String implements fmt.Stringer.
func (k FailKind) String() string {
	if int(k) >= len(failKindNames) {
		k = 0
	}
	return failKindNames[k]
}

// PreverifyError is a classified preverification failure. FromClient with
// Client, or From, is the origin the transport claimed for the frame, so the
// node can react (core.Node.OnRejected) to the error alone.
type PreverifyError struct {
	Kind       FailKind
	FromClient bool
	Client     types.ClientID
	From       types.NodeID
	Err        error
}

// Error implements error.
func (e *PreverifyError) Error() string {
	return fmt.Sprintf("message: preverify failed (%s): %v", e.Kind, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *PreverifyError) Unwrap() error { return e.Err }

func failKind(kind FailKind, err error) error { return &PreverifyError{Kind: kind, Err: err} }

// Verified is a message that passed the stateless preverify stage. The apply
// stage trusts its authentication material unconditionally; a Verified value
// must therefore only be constructed by Preverifier, from a frame's bytes: a
// certificate or a *PreverifyError is all a frame can turn into.
type Verified struct {
	// Msg is the decoded message.
	Msg Message
	// unchecked marks a REQUEST or PROPAGATE that took Digest and OpDigests
	// from the cache entry of the request it copies, its operations unread.
	unchecked bool
	// FromClient reports whether the frame arrived on the client NIC; Client
	// is then the authenticated client, otherwise From is the authenticated
	// peer node.
	FromClient bool
	Client     types.ClientID
	From       types.NodeID
	// Digest is what the client signed for the request or bundle a REQUEST or
	// PROPAGATE carries (zero otherwise) — a single request's OpDigest, a
	// bundle's BundleDigest: the value both authentication checks were made
	// against, so the apply stage never hashes an operation again.
	Digest types.Digest
	// OpDigests are a bundle's per-request OpDigests in id order; nil for a
	// single request, whose OpDigest is Digest. The slice may be shared — with
	// the node's VerifyCache and every other certificate of the same bundle —
	// and is read-only.
	OpDigests []types.Digest
}

// OpsMatch reports whether the operations of the verified REQUEST or
// PROPAGATE hash to Digest, and so to OpDigests. Preverification hashed them
// unless v is unchecked: then OpsMatch does, once, and a node must call it
// before it keeps, executes or forwards the copy's operations.
func (v *Verified) OpsMatch() bool {
	if v.unchecked {
		req, ok := v.Msg.(*Request)
		if !ok {
			req = &v.Msg.(*Propagate).Req
		}
		if !req.hashesTo(v.Digest) {
			return false
		}
		v.unchecked = false
	}
	return true
}

// OpDigest returns the OpDigest of request i (id ID+i) of the verified
// REQUEST or PROPAGATE.
func (v *Verified) OpDigest(i int) types.Digest {
	if v.OpDigests == nil {
		return v.Digest
	}
	return v.OpDigests[i]
}

// VerifyCache remembers what checking a request's or bundle's client signature
// produced, so that the copies of it that follow cost a node no Ed25519
// verification and no pass over their operations. RBFT delivers every signed
// request to each node n times — from the client, then in a PROPAGATE from
// each other node — and clients retransmit.
//
// An entry is keyed by the client signature. It holds the request's client,
// first id, wire tag and count, its signed digest d, its OpDigests and the
// verdict, and nothing else. A copy whose client, first id, tag and count are
// a verified entry's — client REQUEST or PROPAGATE — takes d and the OpDigests
// without reading its operations and comes back marked unchecked: the node
// binds them to d (Verified.OpsMatch) where it keeps, executes or forwards
// them. The frame's MAC is checked against d first, so a changed header never
// rides a verdict computed for another.
//
// Verdicts are deterministic for fixed bytes, so failures are cached too, but
// a failure never replaces a verified entry under the same signature: a faulty
// node relaying a variant cannot evict the genuine bundle. A copy known to a
// failed entry is hashed, so a forger that got its variant in first cannot
// make the genuine copies that follow fail.
//
// A lookup that finds no entry claims a slot for the signature (single
// flight): a copy of it looked up meanwhile, on another verifier worker,
// waits until the claim lands — a verdict, or the slot emptied when the
// claimant's MAC failed — and looks again, instead of verifying the bundle a
// second time. A claim lasts one hash, one MAC check and at most one Ed25519
// check. The footprint is fixed: capacity entries, evicted FIFO past claimed
// slots, each holding at most MaxBundleOps OpDigests.
type VerifyCache struct {
	mu      sync.Mutex
	landed  sync.Cond                          // on mu; broadcast when a claim lands
	bySig   map[[crypto.SignatureSize]byte]int // guarded by mu; signature -> slot
	entries []cacheEntry                       // guarded by mu; written round-robin
	next    int                                // guarded by mu; the slot the next entry takes

	// hits/misses are nil-safe obs counters; SetCounters swaps in
	// registry-resolved ones.
	hits   *obs.Counter
	misses *obs.Counter
}

// cacheEntry is one signature's verdict and the header and digests it was
// computed for, or, pending, a claim on the signature.
type cacheEntry struct {
	held    bool // false once the entry left
	pending bool // claimed: a copy is verifying the signature
	ok      bool // the signature verified
	tag     Type
	k       int
	client  types.ClientID
	id      types.RequestID
	d       types.Digest
	ops     []types.Digest
	sig     [crypto.SignatureSize]byte
}

// VerifyCacheSize bounds the per-node signature verification cache.
const VerifyCacheSize = 4096

// NewVerifyCache creates a cache of VerifyCacheSize entries.
func NewVerifyCache() *VerifyCache { return newVerifyCache(VerifyCacheSize) }

// newVerifyCache creates a cache of capacity entries; tests size small ones.
func newVerifyCache(capacity int) *VerifyCache {
	c := &VerifyCache{
		bySig:   make(map[[crypto.SignatureSize]byte]int, capacity),
		entries: make([]cacheEntry, capacity),
		hits:    &obs.Counter{},
		misses:  &obs.Counter{},
	}
	c.landed.L = &c.mu
	return c
}

// SetCounters replaces the cache's hit/miss counters, typically with
// registry-resolved ones so the ratio is exported via /metrics.
func (c *VerifyCache) SetCounters(hits, misses *obs.Counter) {
	c.mu.Lock()
	if hits != nil {
		c.hits = hits
	}
	if misses != nil {
		c.misses = misses
	}
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts: verdicts taken from the
// cache, and signatures verified.
func (c *VerifyCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	h, m := c.hits, c.misses
	c.mu.Unlock()
	return h.Value(), m.Value()
}

// count records that a verdict was taken from the cache (hit) or verified.
func (c *VerifyCache) count(hit bool) {
	c.mu.Lock()
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	c.mu.Unlock()
}

// signedDigests is what a request's client signature covers — d, and a
// bundle's OpDigests — and, once known, whether the signature verified.
type signedDigests struct {
	d   types.Digest
	ops []types.Digest
	ok  bool
}

// recall looks req up under its signature, once no claim is on it: known
// reports an entry for req's client, first id, tag and count, whose d,
// OpDigests and verdict s holds. When no entry holds the signature, recall
// claims a slot for it: claim is that slot, which the caller must end with
// store or release, or -1.
func (c *VerifyCache) recall(req *Request) (s signedDigests, known bool, claim int) {
	if len(req.Sig) != crypto.SignatureSize {
		return s, false, -1
	}
	key := [crypto.SignatureSize]byte(req.Sig)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, held := c.bySig[key]
	for ; held && c.entries[i].pending; i, held = c.bySig[key] {
		c.landed.Wait()
	}
	if !held {
		if claim = c.slotLocked(); claim >= 0 {
			c.entries[claim] = cacheEntry{held: true, pending: true, sig: key}
			c.bySig[key] = claim
		}
		return s, false, claim
	}
	e := &c.entries[i]
	if e.client != req.Client || e.id != req.ID || e.tag != req.tag() || e.k != req.Len() {
		return s, false, -1
	}
	return signedDigests{d: e.d, ops: e.ops, ok: e.ok}, true, -1
}

// store records s, the outcome of checking req's signature, in claim, the
// slot recall took for it, and wakes the copies waiting for a claim. Without
// a claim (claim < 0) s takes a new slot, unless the signature is claimed, or
// s is a failure and a verified entry holds it.
func (c *VerifyCache) store(claim int, req *Request, s signedDigests) {
	if len(req.Sig) != crypto.SignatureSize {
		return
	}
	key := [crypto.SignatureSize]byte(req.Sig)
	c.mu.Lock()
	defer c.mu.Unlock()
	if claim < 0 {
		if old, held := c.bySig[key]; held {
			if c.entries[old].pending || !s.ok && c.entries[old].ok {
				return
			}
			c.dropLocked(old)
		}
		if claim = c.slotLocked(); claim < 0 {
			return
		}
	}
	c.entries[claim] = cacheEntry{held: true, ok: s.ok, tag: req.tag(), k: req.Len(), client: req.Client, id: req.ID, d: s.d, ops: s.ops, sig: key}
	c.bySig[key] = claim
	c.landed.Broadcast()
}

// release empties claim, a slot recall took, when its copy reached no
// verdict, and wakes the copies waiting: they look again.
func (c *VerifyCache) release(claim int) {
	if claim < 0 {
		return
	}
	c.mu.Lock()
	c.dropLocked(claim)
	c.landed.Broadcast()
	c.mu.Unlock()
}

// slotLocked empties and returns the slot the next entry takes, passing over
// claimed ones; -1 when every slot is claimed.
func (c *VerifyCache) slotLocked() int {
	for range c.entries {
		i := c.next
		c.next = (c.next + 1) % len(c.entries)
		if !c.entries[i].pending {
			c.dropLocked(i)
			return i
		}
	}
	return -1
}

// dropLocked empties slot i.
func (c *VerifyCache) dropLocked(i int) {
	if e := &c.entries[i]; e.held {
		delete(c.bySig, e.sig)
	}
	c.entries[i] = cacheEntry{}
}

// Preverifier performs the stateless ingress verification stage for one
// node: decode, sender-attribution checks, MAC/authenticator verification,
// and (cached) signature verification. It holds no node state, so one
// instance may be shared by any number of verifier goroutines.
type Preverifier struct {
	ring    *crypto.KeyRing
	self    types.NodeID
	cluster types.Config
	cache   *VerifyCache
}

// NewPreverifier builds the preverify stage for node self.
func NewPreverifier(ring *crypto.KeyRing, self types.NodeID, cluster types.Config, cache *VerifyCache) *Preverifier {
	return &Preverifier{ring: ring, self: self, cluster: cluster, cache: cache}
}

// Cache exposes the signature-verification cache (metrics wiring).
func (p *Preverifier) Cache() *VerifyCache { return p.cache }

// PreverifyClientFrame decodes and preverifies a raw frame that arrived on
// the client NIC from the (transport-claimed) client.
func (p *Preverifier) PreverifyClientFrame(raw []byte, claimed types.ClientID) (*Verified, error) {
	return p.preverifyFrame(raw, true, claimed, 0)
}

// PreverifyNodeFrame decodes and preverifies a raw frame that arrived on the
// node NIC from peer node from.
func (p *Preverifier) PreverifyNodeFrame(raw []byte, from types.NodeID) (*Verified, error) {
	return p.preverifyFrame(raw, false, 0, from)
}

// preverifyFrame is both entry points; it stamps a rejection with its origin.
func (p *Preverifier) preverifyFrame(raw []byte, fromClient bool, client types.ClientID, from types.NodeID) (v *Verified, err error) {
	msg, err := Decode(raw)
	switch {
	case err != nil:
		err = failKind(FailMalformed, err)
	case fromClient:
		v, err = p.preverifyClient(msg, client)
	default:
		v, err = p.preverifyNode(msg, from)
	}
	if pe, ok := err.(*PreverifyError); ok {
		pe.FromClient, pe.Client, pe.From = fromClient, client, from
	}
	return v, err
}

// preverifyClient preverifies a decoded client-NIC message: only REQUESTs
// (single, read-only or bundled) arrive there.
func (p *Preverifier) preverifyClient(msg Message, claimed types.ClientID) (*Verified, error) {
	req, ok := msg.(*Request)
	if !ok {
		return nil, failKind(FailMalformed, fmt.Errorf("client sent %s", msg.MsgType()))
	}
	if req.Client != claimed {
		return nil, failKind(FailWrongSender, fmt.Errorf("request claims client %d, sent by %d", req.Client, claimed))
	}
	s, known, err := p.authRequest(req, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Verified{Msg: req, unchecked: known, FromClient: true, Client: claimed, Digest: s.d, OpDigests: s.ops}, nil
}

// preverifyNode preverifies a decoded node-NIC message from peer from.
func (p *Preverifier) preverifyNode(msg Message, from types.NodeID) (*Verified, error) {
	var s signedDigests // what a propagated request's or bundle's signature covers
	var known bool      // a PROPAGATE took s from the cache, its operations unread
	var err error
	// Every arm must authenticate msg before the Verified value is built.
	//rbft:dispatch
	switch m := msg.(type) {
	case *Request:
		// Requests reach nodes only via the client NIC or wrapped in
		// PROPAGATE; a bare node-NIC REQUEST is invalid traffic.
		return nil, failKind(FailMalformed, errors.New("REQUEST on node NIC"))
	case *Reply:
		return nil, failKind(FailMalformed, errors.New("REPLY on node NIC"))
	case *Invalid:
		return nil, failKind(FailMalformed, errors.New("INVALID message"))
	case *Propagate:
		if m.Node != from {
			return nil, failKind(FailWrongSender, fmt.Errorf("PROPAGATE claims node %d, sent by %d", m.Node, from))
		}
		// The embedded request's client signature is what the PROPAGATE
		// phase exists to transfer; verify it here (cached) so the apply
		// stage can adopt the request without any crypto.
		if s, known, err = p.authRequest(&m.Req, m, from); err != nil {
			return nil, err
		}
	case *InstanceChange:
		if m.Node != from {
			return nil, failKind(FailWrongSender, fmt.Errorf("INSTANCE-CHANGE claims node %d, sent by %d", m.Node, from))
		}
		var buf [MaxBodySize]byte
		if err := p.ring.VerifyAuthenticatorEntry(from, p.self, m.AppendBody(buf[:0]), m.Auth); err != nil {
			return nil, failKind(FailBadMAC, err)
		}
	case *ViewChange:
		if err := p.checkInstanceSender(msg, from); err != nil {
			return nil, err
		}
		if err := p.ring.VerifyNodeSignature(m.Node, m.Body(), m.Sig); err != nil {
			return nil, failKind(FailBadSig, err)
		}
	case *NewView:
		if err := p.checkInstanceSender(msg, from); err != nil {
			return nil, err
		}
		if err := p.ring.VerifyAuthenticatorEntry(from, p.self, m.Body(), m.Auth); err != nil {
			return nil, failKind(FailBadMAC, err)
		}
		// The embedded VIEW-CHANGE proofs are signed by their originators;
		// verify them here so the instance can install the view without
		// re-running 2f+1 signature checks.
		for i := range m.ViewChanges {
			vc := &m.ViewChanges[i]
			if err := p.ring.VerifyNodeSignature(vc.Node, vc.Body(), vc.Sig); err != nil {
				return nil, failKind(FailBadSig, err)
			}
		}
	case *PrePrepare, *Prepare, *Commit, *Checkpoint, *Fetch, *FetchResp:
		if err := p.checkInstanceSender(msg, from); err != nil {
			return nil, err
		}
		var buf [MaxBodySize]byte
		body, auth := instanceAuth(buf[:0], msg)
		if err := p.ring.VerifyAuthenticatorEntry(from, p.self, body, auth); err != nil {
			return nil, failKind(FailBadMAC, err)
		}
	default:
		return nil, failKind(FailMalformed, fmt.Errorf("unhandled message type %s", msg.MsgType()))
	}
	return &Verified{Msg: msg, From: from, Digest: s.d, OpDigests: s.ops, unchecked: known}, nil
}

// checkInstanceSender validates the claimed sender and instance id of a
// per-instance protocol message.
func (p *Preverifier) checkInstanceSender(msg Message, from types.NodeID) error {
	inst, claimed, ok := InstanceAndSender(msg)
	if !ok {
		return failKind(FailMalformed, fmt.Errorf("%s carries no instance id", msg.MsgType()))
	}
	if claimed != from {
		return failKind(FailWrongSender, fmt.Errorf("%s claims node %d, sent by %d", msg.MsgType(), claimed, from))
	}
	if inst < 0 || int(inst) >= p.cluster.Instances() {
		return failKind(FailWrongSender, fmt.Errorf("%s for out-of-range instance %d", msg.MsgType(), inst))
	}
	return nil
}

// authRequest authenticates req: a client REQUEST, or the request of peer
// from's PROPAGATE prop. One MAC check and one signature check serve a bundle
// whatever its size, both over what the signature covers, which authRequest
// returns: the cache's, unread (known), if req is known to a verified entry or
// hashes to a failed one's, else one pass over the operations. MAC first:
// rejecting garbage at MAC cost is the Aardvark/RBFT flood defence's core
// economics. Every exit ends the claim the lookup took, so a faulty peer's
// bad-MAC copy holds it for one hash and one MAC check.
func (p *Preverifier) authRequest(req *Request, prop *Propagate, from types.NodeID) (signedDigests, bool, error) {
	s, known, claim := p.cache.recall(req)
	if known = known && (s.ok || req.hashesTo(s.d)); !known {
		s.d, s.ops = req.Digests()
	}
	var buf [MaxBodySize]byte
	var body []byte // req's own body: tag, d, signature
	var err error
	if prop == nil {
		body = req.AppendBody(buf[:0], s.d)
		err = p.ring.VerifyClientAuthenticatorEntry(req.Client, p.self, body, req.Auth)
	} else {
		body = prop.AppendBody(buf[:0], s.d)
		err = p.ring.VerifyAuthenticatorEntry(from, p.self, body, prop.Auth)
		body = body[1+8:] // the PROPAGATE body minus type and node
	}
	if err != nil {
		p.cache.release(claim)
		return s, false, failKind(FailBadMAC, err)
	}
	p.cache.count(known)
	if known && !s.ok {
		return s, false, failKind(FailBadSig, crypto.ErrBadSignature)
	}
	if !known {
		err = p.ring.VerifyClientSignature(req.Client, body[:signedBodySize], body[signedBodySize:])
		s.ok = err == nil
		p.cache.store(claim, req, s)
		if err != nil {
			return s, false, failKind(FailBadSig, err)
		}
	}
	return s, known, nil
}

// InstanceAndSender extracts the instance id and claimed sender of a
// per-instance protocol message (false for node-level messages).
func InstanceAndSender(msg Message) (types.InstanceID, types.NodeID, bool) {
	// Node-level messages carry no instance id; callers handle them before
	// delegating here, and the default arm rejects them.
	//rbft:dispatch ignore=Request,Propagate,Reply,InstanceChange,Invalid
	switch m := msg.(type) {
	case *PrePrepare:
		return m.Instance, m.Node, true
	case *Prepare:
		return m.Instance, m.Node, true
	case *Commit:
		return m.Instance, m.Node, true
	case *Checkpoint:
		return m.Instance, m.Node, true
	case *ViewChange:
		return m.Instance, m.Node, true
	case *NewView:
		return m.Instance, m.Node, true
	case *Fetch:
		return m.Instance, m.Node, true
	case *FetchResp:
		return m.Instance, m.Node, true
	default:
		return 0, 0, false
	}
}

// instanceAuth returns the authenticator of a MAC'd per-instance protocol
// message and the body it covers, appended to b. The fixed-size bodies fit a
// MaxBodySize stack buffer — the calls are by concrete type so that it stays
// on the stack; FETCH-RESP, sized by its batch, allocates its own.
func instanceAuth(b []byte, msg Message) ([]byte, crypto.Authenticator) {
	// ViewChange is signed, not MAC'd, and NewView verified by its own arm; the
	// remaining ignored types never reach the instance path.
	//rbft:dispatch ignore=Request,Propagate,Reply,InstanceChange,Invalid,ViewChange,NewView
	switch m := msg.(type) {
	case *PrePrepare:
		return m.AppendBody(b), m.Auth
	case *Prepare:
		return m.AppendBody(b), m.Auth
	case *Commit:
		return m.AppendBody(b), m.Auth
	case *Checkpoint:
		return m.AppendBody(b), m.Auth
	case *Fetch:
		return m.AppendBody(b), m.Auth
	case *FetchResp:
		return m.Body(), m.Auth
	default:
		return nil, nil
	}
}
