package message

import (
	"bytes"
	"errors"
	"slices"
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

// TestPropagateVariantsMissTheCache: a faulty node relays an honest bundle's
// signature over a request changed in one way, under its own valid MAC. Each
// variant misses the cache — so it is hashed, not served the honest digests —
// and fails the signature; none of them displaces the honest entry, which the
// next honest copy still hits.
func TestPropagateVariantsMissTheCache(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	honest := signedBundle(ks, 1, 10, []byte("ab"), []byte("c"), []byte("op-2"), []byte("op-3"))
	want, err := pre.PreverifyClientFrame(honest.Marshal(nil), 1)
	if err != nil {
		t.Fatalf("honest bundle rejected: %v", err)
	}
	variant := func(edit func(r *Request)) *Request {
		r := *honest
		r.Rest = append([][]byte(nil), honest.Rest...)
		edit(&r)
		return &r
	}
	for _, tc := range []struct {
		name string
		req  *Request
	}{
		{"one op changed", variant(func(r *Request) { r.Rest[1] = []byte("op-9") })},
		{"two ops swapped", variant(func(r *Request) { r.Rest[1], r.Rest[2] = r.Rest[2], r.Rest[1] })},
		{"op boundary moved", variant(func(r *Request) { r.Op, r.Rest[0] = []byte("a"), []byte("bc") })},
		{"first id shifted", variant(func(r *Request) { r.ID++ })},
		{"count cut", variant(func(r *Request) { r.Rest = r.Rest[:len(r.Rest)-1] })},
		{"client changed", variant(func(r *Request) { r.Client = 2 })},
	} {
		_, m0 := pre.Cache().Stats()
		if _, err := pre.PreverifyNodeFrame(propagateOf(ks, 1, tc.req).Marshal(nil), 1); failKindOf(err) != FailBadSig {
			t.Errorf("%s: got %v, want bad-sig", tc.name, err)
		}
		if _, m := pre.Cache().Stats(); m != m0+1 {
			t.Errorf("%s: %d misses, want %d: the variant must not hit the honest entry", tc.name, m, m0+1)
		}
	}
	h0, m0 := pre.Cache().Stats()
	got, err := pre.PreverifyNodeFrame(propagateOf(ks, 2, honest).Marshal(nil), 2)
	if err != nil {
		t.Fatalf("honest PROPAGATE after the variants rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != h0+1 || m != m0 {
		t.Fatalf("honest PROPAGATE: hits %d→%d, misses %d→%d; want one hit: the variants poisoned the entry", h0, h, m0, m)
	}
	if got.Digest != want.Digest || !slices.Equal(got.OpDigests, want.OpDigests) {
		t.Fatal("the honest PROPAGATE's cached digests differ from those its REQUEST hashed to")
	}
}

// ops8x4k returns 8 operations of 4 kB, bytes of tag.
func ops8x4k(tag byte) [][]byte {
	ops := make([][]byte, 8)
	for i := range ops {
		ops[i] = bytes.Repeat([]byte{tag, byte(i)}, 2048)
	}
	return ops
}

// opArenaBytes is what one 4 kB operation takes of a cache's arena: its
// length and its bytes.
const opArenaBytes = 4 + 4096

// TestVerifyCacheOverwrittenCopyKeepsItsVerdict: more than the arena's worth
// of operations arrives between a bundle's REQUEST and its PROPAGATE, so the
// arena write reaches the bundle's copy. Its entry drops the copy and its
// OpDigests but keeps d and the verdict: the PROPAGATE is hashed again, takes
// the verdict without a second Ed25519 verification, and stores its copy
// again, which the next PROPAGATE hits byte for byte. A request too large for
// the arena keeps a verdict without a copy the same way.
func TestVerifyCacheOverwrittenCopyKeepsItsVerdict(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 0)
	cache := pre.Cache()
	entry := func(req *Request) cacheEntry {
		cache.mu.RLock()
		defer cache.mu.RUnlock()
		return cache.entries[cache.bySig[[crypto.SignatureSize]byte(req.Sig)]%uint64(len(cache.entries))]
	}
	a := signedBundle(ks, 1, 1, ops8x4k('a')...)
	if _, err := pre.PreverifyClientFrame(a.Marshal(nil), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i*8*opArenaBytes <= verifyArenaBytes; i++ {
		other := signedBundle(ks, 2, types.RequestID(1+8*i), ops8x4k(byte(i))...)
		if _, err := pre.PreverifyClientFrame(other.Marshal(nil), 2); err != nil {
			t.Fatal(err)
		}
	}
	if e := entry(a); !e.held || e.hasCopy || e.ops != nil {
		t.Fatalf("a's entry: held %v, copy %v, OpDigests %v; want its verdict without copy or OpDigests", e.held, e.hasCopy, e.ops != nil)
	}
	_, want := a.Digests()
	for node := types.NodeID(1); node <= 2; node++ {
		h0, m0 := cache.Stats()
		v, err := pre.PreverifyNodeFrame(propagateOf(ks, node, a).Marshal(nil), node)
		if err != nil {
			t.Fatalf("PROPAGATE from node %d rejected: %v", node, err)
		}
		if !slices.Equal(v.OpDigests, want) {
			t.Fatalf("PROPAGATE from node %d: OpDigests differ from the bundle's", node)
		}
		if h, m := cache.Stats(); h != h0+1 || m != m0 {
			t.Fatalf("PROPAGATE from node %d: hits %d→%d, misses %d→%d; want the cached verdict, no verification", node, h0, h, m0, m)
		}
		if e := entry(a); !e.hasCopy {
			t.Fatalf("PROPAGATE from node %d: a's copy not stored again", node)
		}
	}

	huge := signedRequest(ks, 3, 1, bytes.Repeat([]byte{'h'}, verifyArenaBytes))
	if _, err := pre.PreverifyClientFrame(huge.Marshal(nil), 3); err != nil {
		t.Fatal(err)
	}
	h0, m0 := cache.Stats()
	if _, err := pre.PreverifyNodeFrame(propagateOf(ks, 1, huge).Marshal(nil), 1); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != h0+1 || m != m0 {
		t.Fatalf("a request larger than the arena: hits %d→%d, misses %d→%d; want its verdict cached", h0, h, m0, m)
	}
	if e := entry(huge); !e.held || e.hasCopy {
		t.Fatalf("a request larger than the arena: held %v, copy %v; want a verdict without copy", e.held, e.hasCopy)
	}
}

// TestVerifyCacheConcurrentCopies runs a REQUEST and the PROPAGATEs of the
// same bundles through one preverifier on two goroutines (a race-detector
// target). The cache holds fewer entries than there are bundles and they
// carry more operation bytes than its arena, so both evict as it goes. Every
// copy is accepted with the digests its own bytes hash to.
func TestVerifyCacheConcurrentCopies(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 8)
	// Every bundle holds at least two operations, so one round's copies
	// outgrow the arena.
	const bundles = verifyArenaBytes/(2*opArenaBytes) + 8
	reqs, props := make([][]byte, bundles), make([][]byte, bundles)
	want := make([][]types.Digest, bundles)
	for i := range reqs {
		req := signedBundle(ks, types.ClientID(1+i%4), types.RequestID(1+8*i), ops8x4k(byte(i))[:2+i%7]...)
		reqs[i] = req.Marshal(nil)
		props[i] = propagateOf(ks, types.NodeID(1+i%3), req).Marshal(nil)
		_, want[i] = req.Digests()
	}
	errs := make(chan error, 2)
	run := func(frames [][]byte, verify func(i int, frame []byte) (*Verified, error)) {
		for round := 0; round < 3; round++ {
			for i, frame := range frames {
				v, err := verify(i, frame)
				if err == nil && !slices.Equal(v.OpDigests, want[i]) {
					err = errors.New("accepted with another bundle's OpDigests")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}
		errs <- nil
	}
	go run(reqs, func(i int, frame []byte) (*Verified, error) {
		return pre.PreverifyClientFrame(frame, types.ClientID(1+i%4))
	})
	go run(props, func(i int, frame []byte) (*Verified, error) {
		return pre.PreverifyNodeFrame(frame, types.NodeID(1+i%3))
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if h, m := pre.Cache().Stats(); h+m != 2*3*bundles || m < bundles {
		t.Fatalf("hits=%d misses=%d, want %d lookups and at least one miss per bundle", h, m, 2*3*bundles)
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
