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
	// single request, whose OpDigest is Digest.
	OpDigests []types.Digest
}

// OpDigest returns the OpDigest of request i (id ID+i) of the verified
// REQUEST or PROPAGATE.
func (v *Verified) OpDigest(i int) types.Digest {
	if v.OpDigests == nil {
		return v.Digest
	}
	return v.OpDigests[i]
}

// VerifyCache memoises request-signature verification outcomes, keyed by
// SHA-256(tag‖d‖signature), d the signed digest: the request's MAC'd body, 97
// bytes whatever the operation size — one key per bundle, however many
// requests it carries. RBFT propagates every request to f+1 protocol
// instances and clients retransmit aggressively, so the same signature
// reaches a node many times; the cache collapses those to one Ed25519
// verification plus one short hash per copy. Keying by content digest makes
// the cache tamper-proof: d is recomputed from every frame's own bytes, so
// any mutation of client, id, an operation, the read-only or bundle tag or
// the signature changes the key and can never be served a stale "valid"
// verdict. Outcomes (including failures) are deterministic for fixed bytes,
// so caching them is sound.
//
// The cache is concurrency-safe; verifier worker goroutines share one
// instance per node.
type VerifyCache struct {
	mu      sync.Mutex
	entries map[types.Digest]bool // guarded by mu; verification outcome
	ring    []types.Digest        // guarded by mu; FIFO eviction order
	next    int                   // guarded by mu
	cap     int

	// hits/misses are nil-safe obs counters; SetCounters swaps in
	// registry-resolved ones.
	hits   *obs.Counter
	misses *obs.Counter
}

// DefaultVerifyCacheSize bounds the per-node signature verification cache.
const DefaultVerifyCacheSize = 4096

// NewVerifyCache creates a cache holding up to capacity outcomes (0 means
// DefaultVerifyCacheSize).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		entries: make(map[types.Digest]bool, capacity),
		ring:    make([]types.Digest, capacity),
		cap:     capacity,
		hits:    &obs.Counter{},
		misses:  &obs.Counter{},
	}
}

// SetCounters replaces the cache's hit/miss counters, typically with
// registry-resolved ones so the ratio is exported via /metrics.
func (c *VerifyCache) SetCounters(hits, misses *obs.Counter) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if hits != nil {
		c.hits = hits
	}
	if misses != nil {
		c.misses = misses
	}
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *VerifyCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	h, m := c.hits, c.misses
	c.mu.Unlock()
	return h.Value(), m.Value()
}

// lookup returns the cached outcome for key and whether it was present.
func (c *VerifyCache) lookup(key types.Digest) (ok, hit bool) {
	if c == nil {
		return false, false
	}
	c.mu.Lock()
	ok, hit = c.entries[key]
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	c.mu.Unlock()
	return ok, hit
}

// store records the outcome for key, evicting the oldest entry at capacity.
func (c *VerifyCache) store(key types.Digest, ok bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, dup := c.entries[key]; !dup {
		if len(c.entries) >= c.cap {
			delete(c.entries, c.ring[c.next])
		}
		c.ring[c.next] = key
		c.next = (c.next + 1) % c.cap
		c.entries[key] = ok
	}
	c.mu.Unlock()
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

// NewPreverifier builds the preverify stage for node self. cache may be nil
// to disable signature-verification caching.
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
// one pass over the operations here serves both, and a bundle costs one MAC
// check and one signature check whatever its size. MAC first: rejecting
// garbage at MAC cost is the Aardvark/RBFT flood defence's core economics.
func (p *Preverifier) preverifyClient(msg Message, claimed types.ClientID) (*Verified, error) {
	req, ok := msg.(*Request)
	if !ok {
		return nil, failKind(FailMalformed, fmt.Errorf("client sent %s", msg.MsgType()))
	}
	if req.Client != claimed {
		return nil, failKind(FailWrongSender, fmt.Errorf("request claims client %d, sent by %d", req.Client, claimed))
	}
	d, ops := req.Digests()
	var buf [MaxBodySize]byte
	body := req.AppendBody(buf[:0], d)
	if err := p.ring.VerifyClientAuthenticatorEntry(req.Client, p.self, body, req.Auth); err != nil {
		return nil, failKind(FailBadMAC, err)
	}
	if err := p.requestSigOK(req.Client, body); err != nil {
		return nil, err
	}
	return &Verified{Msg: req, FromClient: true, Client: claimed, Digest: d, OpDigests: ops}, nil
}

// preverifyNode preverifies a decoded node-NIC message from peer from.
func (p *Preverifier) preverifyNode(msg Message, from types.NodeID) (*Verified, error) {
	var d types.Digest     // signed digest of a propagated request or bundle
	var ops []types.Digest // a propagated bundle's OpDigests
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
		d, ops = m.Req.Digests()
		var buf [MaxBodySize]byte
		body := m.AppendBody(buf[:0], d)
		if err := p.ring.VerifyAuthenticatorEntry(from, p.self, body, m.Auth); err != nil {
			return nil, failKind(FailBadMAC, err)
		}
		// The embedded request's client signature is what the PROPAGATE
		// phase exists to transfer; verify it here (cached) so the apply
		// stage can adopt the request without any crypto. The request's
		// own body is the PROPAGATE body minus type and node.
		if err := p.requestSigOK(m.Req.Client, body[1+8:]); err != nil {
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
	return &Verified{Msg: msg, From: from, Digest: d, OpDigests: ops}, nil
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

// requestSigOK verifies the client signature of a request or bundle through
// the cache, given its body (tag‖d‖signature).
func (p *Preverifier) requestSigOK(client types.ClientID, body []byte) error {
	key := crypto.Digest(body)
	if ok, hit := p.cache.lookup(key); hit {
		if !ok {
			return failKind(FailBadSig, crypto.ErrBadSignature)
		}
		return nil
	}
	verr := p.ring.VerifyClientSignature(client, body[:signedBodySize], body[signedBodySize:])
	p.cache.store(key, verr == nil)
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
