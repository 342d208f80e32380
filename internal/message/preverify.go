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

// String implements fmt.Stringer.
func (k FailKind) String() string {
	switch k {
	case FailMalformed:
		return "malformed"
	case FailWrongSender:
		return "wrong-sender"
	case FailBadMAC:
		return "bad-mac"
	case FailBadSig:
		return "bad-sig"
	default:
		return "unknown"
	}
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
	// unchecked marks a PROPAGATE that took Digest and OpDigests from the
	// cache entry of the request it copies, its operations unread.
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
// unless v is an unchecked PROPAGATE: then OpsMatch does, once, and a node
// must call it before it keeps the copy's operations.
func (v *Verified) OpsMatch() bool {
	if v.unchecked {
		if !v.Msg.(*Propagate).Req.hashesTo(v.Digest) {
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
// verification and, in a PROPAGATE, no pass over their operations. RBFT
// delivers every signed request to each node n times — from the client, then
// in a PROPAGATE from each other node — and clients retransmit.
//
// An entry is keyed by the client signature. It holds the request's client,
// first id, wire tag and count, its signed digest d, its OpDigests and the
// verdict, and nothing else. A request is known to an entry when its client,
// first id, tag and count equal the entry's. A known client REQUEST is hashed
// and takes the verdict only if its own d is the entry's: the read-only path
// executes its operation. A known PROPAGATE of a verified request takes d and
// the OpDigests from the entry without reading its operations, and comes back
// marked unchecked: the node binds them to d (Verified.OpsMatch) at the one
// place it keeps them. Either way the frame's MAC is checked against d before
// the verdict is used, so a changed client, first id, tag or count never
// rides a verdict computed for another header.
//
// Verdicts are deterministic for fixed bytes, so failures are cached too, but
// a failure never replaces a verified entry under the same signature: a faulty
// node relaying a variant cannot evict the genuine bundle. A copy known to a
// failed entry is hashed, so a forger that got its variant in first cannot
// make the genuine copies that follow fail.
//
// The footprint is fixed when the cache is built: capacity entries, evicted
// FIFO, each holding at most MaxBundleOps OpDigests.
//
// The cache is concurrency-safe; verifier worker goroutines share one
// instance per node. Lookups share a read lock; only storing a verdict, once
// per request or bundle, takes the write lock.
type VerifyCache struct {
	mu      sync.RWMutex
	bySig   map[[crypto.SignatureSize]byte]int // guarded by mu; signature -> slot
	entries []cacheEntry                       // guarded by mu; written round-robin
	next    int                                // guarded by mu; the slot the next entry takes

	// hits/misses are nil-safe obs counters; SetCounters swaps in
	// registry-resolved ones.
	hits   *obs.Counter
	misses *obs.Counter
}

// cacheEntry is one signature's verdict and the header and digests it was
// computed for.
type cacheEntry struct {
	held   bool // false once the entry left
	ok     bool // the signature verified
	tag    Type
	k      int
	client types.ClientID
	id     types.RequestID
	d      types.Digest
	ops    []types.Digest
	sig    [crypto.SignatureSize]byte
}

// DefaultVerifyCacheSize bounds the per-node signature verification cache.
const DefaultVerifyCacheSize = 4096

// NewVerifyCache creates a cache holding up to capacity entries (0 means
// DefaultVerifyCacheSize).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		bySig:   make(map[[crypto.SignatureSize]byte]int, capacity),
		entries: make([]cacheEntry, capacity),
		hits:    &obs.Counter{},
		misses:  &obs.Counter{},
	}
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
	c.mu.RLock()
	h, m := c.hits, c.misses
	c.mu.RUnlock()
	return h.Value(), m.Value()
}

// count records that a verdict was taken from the cache (hit) or verified.
func (c *VerifyCache) count(hit bool) {
	c.mu.RLock()
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	c.mu.RUnlock()
}

// signedDigests is what a request's client signature covers — d, and a
// bundle's OpDigests — and, once known, whether the signature verified.
type signedDigests struct {
	d   types.Digest
	ops []types.Digest
	ok  bool
}

// recall looks req up under its signature: known reports an entry for req's
// client, first id, tag and count, whose d, OpDigests and verdict s holds.
func (c *VerifyCache) recall(req *Request) (s signedDigests, known bool) {
	if len(req.Sig) != crypto.SignatureSize {
		return s, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, held := c.bySig[[crypto.SignatureSize]byte(req.Sig)]
	if !held {
		return s, false
	}
	e := &c.entries[i]
	if e.client != req.Client || e.id != req.ID || e.tag != req.tag() || e.k != req.Len() {
		return s, false
	}
	return signedDigests{d: e.d, ops: e.ops, ok: e.ok}, true
}

// store records s, the outcome of checking req's signature, under a new entry
// — unless a verified entry holds the signature and s is a failure.
func (c *VerifyCache) store(req *Request, s signedDigests) {
	if len(req.Sig) != crypto.SignatureSize {
		return
	}
	key := [crypto.SignatureSize]byte(req.Sig)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, held := c.bySig[key]; held {
		if !s.ok && c.entries[old].ok {
			return
		}
		c.dropLocked(old)
	}
	c.dropLocked(c.next)
	c.entries[c.next] = cacheEntry{held: true, ok: s.ok, tag: req.tag(), k: req.Len(), client: req.Client, id: req.ID, d: s.d, ops: s.ops, sig: key}
	c.bySig[key] = c.next
	c.next = (c.next + 1) % len(c.entries)
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
// (single, read-only or bundled) arrive there, carrying a MAC authenticator
// over the signed body and a client signature, both over the signed digest:
// at most one pass over the operations here serves both, and a bundle costs
// one MAC check and one signature check whatever its size. MAC first:
// rejecting garbage at MAC cost is the Aardvark/RBFT flood defence's core
// economics.
func (p *Preverifier) preverifyClient(msg Message, claimed types.ClientID) (*Verified, error) {
	req, ok := msg.(*Request)
	if !ok {
		return nil, failKind(FailMalformed, fmt.Errorf("client sent %s", msg.MsgType()))
	}
	if req.Client != claimed {
		return nil, failKind(FailWrongSender, fmt.Errorf("request claims client %d, sent by %d", req.Client, claimed))
	}
	s, known := p.digests(req, false)
	var buf [MaxBodySize]byte
	body := req.AppendBody(buf[:0], s.d)
	if err := p.ring.VerifyClientAuthenticatorEntry(req.Client, p.self, body, req.Auth); err != nil {
		return nil, failKind(FailBadMAC, err)
	}
	if err := p.requestSigOK(req, body, s, known); err != nil {
		return nil, err
	}
	return &Verified{Msg: req, FromClient: true, Client: claimed, Digest: s.d, OpDigests: s.ops}, nil
}

// preverifyNode preverifies a decoded node-NIC message from peer from.
func (p *Preverifier) preverifyNode(msg Message, from types.NodeID) (*Verified, error) {
	var s signedDigests // what a propagated request's or bundle's signature covers
	var known bool      // a PROPAGATE took s from the cache, its operations unread
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
		s, known = p.digests(&m.Req, true)
		var buf [MaxBodySize]byte
		body := m.AppendBody(buf[:0], s.d)
		if err := p.ring.VerifyAuthenticatorEntry(from, p.self, body, m.Auth); err != nil {
			return nil, failKind(FailBadMAC, err)
		}
		// The embedded request's client signature is what the PROPAGATE
		// phase exists to transfer; verify it here (cached) so the apply
		// stage can adopt the request without any crypto. The request's
		// own body is the PROPAGATE body minus type and node.
		if err := p.requestSigOK(&m.Req, body[1+8:], s, known); err != nil {
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
		// batch-verify them here so the instance can install the view
		// without re-running 2f+1 signature checks.
		jobs := make([]crypto.SigJob, 0, len(m.ViewChanges))
		for i := range m.ViewChanges {
			vc := &m.ViewChanges[i]
			jobs = append(jobs, crypto.SigJob{Node: vc.Node, Data: vc.Body(), Sig: vc.Sig})
		}
		if err := p.ring.VerifyNodeSignatureBatch(jobs); err != nil {
			return nil, failKind(FailBadSig, err)
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

// digests returns what req's client signature covers, and its verdict if the
// cache knows it (known). A relayed request (a PROPAGATE's) known to a
// verified entry takes the entry's digests without a pass over its
// operations; any other request known to an entry takes them if its
// operations hash to the entry's d. Everything else is hashed.
func (p *Preverifier) digests(req *Request, relayed bool) (s signedDigests, known bool) {
	if s, known = p.cache.recall(req); known && (relayed && s.ok || req.hashesTo(s.d)) {
		return s, true
	}
	d, ops := req.Digests()
	return signedDigests{d: d, ops: ops}, false
}

// requestSigOK checks the client signature of req, whose MAC'd body
// (tag‖d‖signature) has passed: the cached verdict if known, else an Ed25519
// verification the cache then keeps.
func (p *Preverifier) requestSigOK(req *Request, body []byte, s signedDigests, known bool) error {
	p.cache.count(known)
	if known {
		if !s.ok {
			return failKind(FailBadSig, crypto.ErrBadSignature)
		}
		return nil
	}
	verr := p.ring.VerifyClientSignature(req.Client, body[:signedBodySize], body[signedBodySize:])
	s.ok = verr == nil
	p.cache.store(req, s)
	if verr != nil {
		return failKind(FailBadSig, verr)
	}
	return nil
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
