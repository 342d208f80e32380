package message

import (
	"errors"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/obs"
	"rbft/internal/types"
)

const testN = 4

func testKeys() *crypto.KeyStore {
	return crypto.NewKeyStore([]byte("preverify-test"), testN, 8)
}

// signedRequest builds a fully authenticated client request.
func signedRequest(ks *crypto.KeyStore, client types.ClientID, id types.RequestID, op []byte) *Request {
	cl := ks.ClientRing(client)
	req := &Request{Client: client, ID: id, Op: op}
	req.Sig = cl.Sign(req.AppendSignedBody(nil, req.OpDigest()))
	req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
	return req
}

// propagateOf wraps req in a PROPAGATE correctly MAC'd by node.
func propagateOf(ks *crypto.KeyStore, node types.NodeID, req *Request) *Propagate {
	p := &Propagate{Req: *req, Node: node}
	p.Req.Auth = nil
	p.Auth = ks.NodeRing(node).AuthenticatorForNodes(testN, p.Body())
	return p
}

// failKindOf extracts the failure kind of a preverification error (0 when err
// is not one).
func failKindOf(err error) FailKind {
	var pe *PreverifyError
	if errors.As(err, &pe) {
		return pe.Kind
	}
	return 0
}

func newPreverifier(ks *crypto.KeyStore, cacheCap int) *Preverifier {
	return NewPreverifier(ks.NodeRing(0), 0, types.NewConfig(1), NewVerifyCache(cacheCap))
}

// TestVerifyCacheHitMissCounters pins the cache's observability contract: the
// first verification of a signature is a miss, a retransmission of the exact
// same bytes is a hit, and both Stats and registry-wired counters agree.
func TestVerifyCacheHitMissCounters(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	reg := obs.NewRegistry()
	hits, misses := reg.Counter("rbft_sigcache_hits_total"), reg.Counter("rbft_sigcache_misses_total")
	pre.Cache().SetCounters(hits, misses)

	req := signedRequest(ks, 1, 1, []byte("op"))
	if _, err := pre.preverifyClient(req, 1); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 0 || m != 1 {
		t.Fatalf("after first verify: hits=%d misses=%d, want 0/1 (a miss, not a hit)", h, m)
	}

	// Client retransmission: same bytes, so the verdict is served from cache.
	if _, err := pre.preverifyClient(req, 1); err != nil {
		t.Fatalf("retransmitted request rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 1 {
		t.Fatalf("after retransmit: hits=%d misses=%d, want 1/1 (served from cache)", h, m)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("registry counters hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
}

// TestPropagateSharesClientSigVerdict pins the point of the cache in RBFT:
// the same request arrives once per protocol instance (client NIC, then
// wrapped in PROPAGATEs), and only the first copy pays the signature check.
func TestPropagateSharesClientSigVerdict(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 2, 7, []byte("shared"))
	if _, err := pre.preverifyClient(req, 2); err != nil {
		t.Fatalf("client copy rejected: %v", err)
	}
	v, err := pre.preverifyNode(propagateOf(ks, 1, req), 1)
	if err != nil {
		t.Fatalf("propagated copy rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (propagate served from cache)", h, m)
	}
	if v.From != 1 || v.FromClient {
		t.Fatalf("propagate attributed to %+v, want node 1", v)
	}
}

// TestTamperedRequestMissesCacheAndIsRejected is the security property of
// content-keyed caching: after a valid verdict is cached, any mutation of the
// signed body or the signature changes the cache key, so the stale "valid"
// verdict can never be replayed onto tampered bytes — the tampered copy gets
// a full verification and is rejected.
func TestTamperedRequestMissesCacheAndIsRejected(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 3, []byte("genuine"))
	if _, err := pre.preverifyClient(req, 1); err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}

	// A faulty node alters the operation inside its PROPAGATE but keeps the
	// original client signature; its own MAC over the wrapper is valid.
	tamperedOp := *req
	tamperedOp.Op = []byte("Genuine")
	tamperedOp.Sig = append([]byte(nil), req.Sig...)
	if _, err := pre.preverifyNode(propagateOf(ks, 1, &tamperedOp), 1); failKindOf(err) != FailBadSig {
		t.Fatalf("tampered op accepted or misclassified: %v", err)
	}

	// A tampered signature with a freshly minted MAC (a faulty client) must
	// likewise miss the cache and fail the real check.
	tamperedSig := *req
	tamperedSig.Sig = append([]byte(nil), req.Sig...)
	tamperedSig.Sig[0] ^= 0x01
	tamperedSig.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, tamperedSig.Body())
	if _, err := pre.preverifyClient(&tamperedSig, 1); failKindOf(err) != FailBadSig {
		t.Fatalf("tampered sig accepted or misclassified: %v", err)
	}

	if h, m := pre.Cache().Stats(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3 (both tampered copies must miss)", h, m)
	}
}

// TestBadSignatureVerdictCached checks negative caching: a retransmitted
// bad-signature request is rejected again from cache, without paying a second
// signature verification.
func TestBadSignatureVerdictCached(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 4, []byte("bad"))
	req.Sig[1] ^= 0x80
	req.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, req.Body())
	for i, wantHits := range []uint64{0, 1} {
		if _, err := pre.preverifyClient(req, 1); failKindOf(err) != FailBadSig {
			t.Fatalf("attempt %d: bad signature accepted or misclassified: %v", i, err)
		}
		if h, _ := pre.Cache().Stats(); h != wantHits {
			t.Fatalf("attempt %d: hits=%d, want %d", i, h, wantHits)
		}
	}
}

// TestVerifyCacheEviction checks the FIFO bound: once capacity is exceeded
// the oldest verdict is evicted and must be re-verified, while newer entries
// stay resident.
func TestVerifyCacheEviction(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 2)
	reqs := make([]*Request, 3)
	for i := range reqs {
		reqs[i] = signedRequest(ks, 1, types.RequestID(10+i), []byte{byte(i)})
		if _, err := pre.preverifyClient(reqs[i], 1); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
	}
	// reqs[0] was evicted by reqs[2]; reqs[2] is still resident.
	if _, err := pre.preverifyClient(reqs[0], 1); err != nil {
		t.Fatalf("evicted request rejected on re-verify: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 0 || m != 4 {
		t.Fatalf("hits=%d misses=%d, want 0/4: the evicted verdict must be verified again", h, m)
	}
	if _, err := pre.preverifyClient(reqs[2], 1); err != nil {
		t.Fatalf("resident request rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4: the resident verdict must be served from cache", h, m)
	}
}

// viewChangeOf is node's signed VIEW-CHANGE of instance 0 to view 1.
func viewChangeOf(ks *crypto.KeyStore, node types.NodeID) ViewChange {
	vc := ViewChange{Instance: 0, NewView: 1, Node: node}
	vc.Sig = ks.NodeRing(node).Sign(vc.Body())
	return vc
}

// TestPreverifyViewChangeBadSignature: the preverifier is the one place a
// VIEW-CHANGE's signature is checked — the replica trusts what it is handed —
// so a flipped signature byte must fail here, as a bad signature.
func TestPreverifyViewChangeBadSignature(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	vc := viewChangeOf(ks, 1)
	if _, err := pre.preverifyNode(&vc, 1); err != nil {
		t.Fatalf("genuine VIEW-CHANGE rejected: %v", err)
	}
	vc.Sig[0] ^= 0x01
	if _, err := pre.preverifyNode(&vc, 1); failKindOf(err) != FailBadSig {
		t.Fatalf("VIEW-CHANGE with a flipped signature byte: %v, want FailBadSig", err)
	}
}

// TestPreverifyNewViewEmbeddedBadSignature: a NEW-VIEW carries the
// VIEW-CHANGEs that justify it, each signed by its originator. A primary that
// tampers with one and MACs the result honestly gets past the MAC and no
// further.
func TestPreverifyNewViewEmbeddedBadSignature(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	primary := types.NewConfig(1).PrimaryOf(1, 0)
	newView := func(tamper bool) *NewView {
		nv := &NewView{Instance: 0, View: 1, Node: primary}
		for _, n := range []types.NodeID{1, 2, 3} {
			nv.ViewChanges = append(nv.ViewChanges, viewChangeOf(ks, n))
		}
		if tamper {
			nv.ViewChanges[2].Sig[0] ^= 0x01
		}
		nv.Auth = ks.NodeRing(primary).AuthenticatorForNodes(testN, nv.Body())
		return nv
	}
	if _, err := pre.preverifyNode(newView(false), primary); err != nil {
		t.Fatalf("genuine NEW-VIEW rejected: %v", err)
	}
	if _, err := pre.preverifyNode(newView(true), primary); failKindOf(err) != FailBadSig {
		t.Fatalf("NEW-VIEW with a tampered embedded signature: %v, want FailBadSig", err)
	}
}
