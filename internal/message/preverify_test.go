package message

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

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

// propagateOf wraps req in a PROPAGATE correctly MAC'd by node: over the
// digest req's operations hash to.
func propagateOf(ks *crypto.KeyStore, node types.NodeID, req *Request) *Propagate {
	d, _ := req.Digests()
	return propagateOver(ks, node, req, d)
}

// propagateOver wraps req in a PROPAGATE that node MACs over the signed digest
// d, whatever req's operations hash to: a faulty node that relays a genuine
// header and signature over forged operations MACs over the genuine d.
func propagateOver(ks *crypto.KeyStore, node types.NodeID, req *Request, d types.Digest) *Propagate {
	p := &Propagate{Req: *req, Node: node}
	p.Req.Auth = nil
	var buf [MaxBodySize]byte
	p.Auth = ks.NodeRing(node).AuthenticatorForNodes(testN, p.AppendBody(buf[:0], d))
	return p
}

// requireForgedCopy asserts that a client REQUEST or PROPAGATE of forged
// operations under genuine's header, signature and MAC'd digest was accepted
// as a copy whose operations are unchecked: it carries genuine's digests, and
// its own operations fail OpsMatch.
func requireForgedCopy(t *testing.T, v *Verified, err error, genuine *Request) {
	t.Helper()
	if err != nil {
		t.Fatalf("forged copy under the genuine MAC: %v, want an unchecked certificate", err)
	}
	d, ops := genuine.Digests()
	if !v.unchecked || v.Digest != d || !slices.Equal(v.OpDigests, ops) {
		t.Fatalf("forged copy: unchecked %v, digests of the genuine request %v; want both", v.unchecked, v.Digest == d && slices.Equal(v.OpDigests, ops))
	}
	if v.OpsMatch() {
		t.Fatal("forged operations pass OpsMatch")
	}
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
	return NewPreverifier(ks.NodeRing(0), 0, types.NewConfig(1), newVerifyCache(cacheCap))
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
// signature-keyed caching: after a valid verdict is cached, a tampered
// signature misses the cache and fails the full verification, and a
// PROPAGATE of a tampered operation under the genuine signature takes the
// genuine digest, so it fails its MAC — or, MAC'd over that digest, is a vote
// whose operations fail OpsMatch. The stale "valid" verdict never vouches for
// tampered bytes.
func TestTamperedRequestMissesCacheAndIsRejected(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 3, []byte("genuine"))
	if _, err := pre.preverifyClient(req, 1); err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}

	// A faulty node alters the operation inside its PROPAGATE but keeps the
	// original client signature, and MACs the wrapper over the altered
	// digest, then over the genuine one.
	tamperedOp := *req
	tamperedOp.Op = []byte("Genuine")
	tamperedOp.Sig = append([]byte(nil), req.Sig...)
	if _, err := pre.preverifyNode(propagateOf(ks, 1, &tamperedOp), 1); failKindOf(err) != FailBadMAC {
		t.Fatalf("tampered op accepted or misclassified: %v", err)
	}
	v, err := pre.preverifyNode(propagateOver(ks, 1, &tamperedOp, req.OpDigest()), 1)
	requireForgedCopy(t, v, err, req)

	// A tampered signature with a freshly minted MAC (a faulty client) must
	// likewise miss the cache and fail the real check.
	tamperedSig := *req
	tamperedSig.Sig = append([]byte(nil), req.Sig...)
	tamperedSig.Sig[0] ^= 0x01
	tamperedSig.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, tamperedSig.Body())
	if _, err := pre.preverifyClient(&tamperedSig, 1); failKindOf(err) != FailBadSig {
		t.Fatalf("tampered sig accepted or misclassified: %v", err)
	}

	if h, m := pre.Cache().Stats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2 (the tampered signature must miss; only the copy MAC'd over the genuine digest takes its verdict)", h, m)
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
// signature over a request changed in one way, under its own valid MAC. A
// changed header — first id, count, client — misses the cache, so it is
// hashed, not served the honest digests, and fails the signature. Changed
// operations under the honest header take the honest digest without being
// read: MAC'd over their own digest they fail the MAC, and MAC'd over the
// honest one they are a vote whose operations fail OpsMatch. None of them
// displaces the honest entry, which the next honest copy still hits.
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
	oneOpChanged := variant(func(r *Request) { r.Rest[1] = []byte("op-9") })
	// A header variant is verified in full (a miss); a MAC failure reaches
	// no verdict; an unchecked vote takes the cached one (a hit).
	for _, tc := range []struct {
		name      string
		prop      *Propagate
		want      FailKind // 0: an unchecked vote
		hit, miss uint64
	}{
		{"one op changed", propagateOf(ks, 1, oneOpChanged), FailBadMAC, 0, 0},
		{"two ops swapped", propagateOf(ks, 1, variant(func(r *Request) { r.Rest[1], r.Rest[2] = r.Rest[2], r.Rest[1] })), FailBadMAC, 0, 0},
		{"op boundary moved", propagateOf(ks, 1, variant(func(r *Request) { r.Op, r.Rest[0] = []byte("a"), []byte("bc") })), FailBadMAC, 0, 0},
		{"one op changed, MAC'd over the honest digest", propagateOver(ks, 1, oneOpChanged, want.Digest), 0, 1, 0},
		{"first id shifted", propagateOf(ks, 1, variant(func(r *Request) { r.ID++ })), FailBadSig, 0, 1},
		{"count cut", propagateOf(ks, 1, variant(func(r *Request) { r.Rest = r.Rest[:len(r.Rest)-1] })), FailBadSig, 0, 1},
		{"client changed", propagateOf(ks, 1, variant(func(r *Request) { r.Client = 2 })), FailBadSig, 0, 1},
	} {
		h0, m0 := pre.Cache().Stats()
		v, err := pre.PreverifyNodeFrame(tc.prop.Marshal(nil), 1)
		if tc.want == 0 {
			requireForgedCopy(t, v, err, honest)
		} else if failKindOf(err) != tc.want {
			t.Errorf("%s: got %v, want %s", tc.name, err, tc.want)
		}
		if h, m := pre.Cache().Stats(); h != h0+tc.hit || m != m0+tc.miss {
			t.Errorf("%s: hits %d→%d, misses %d→%d; want %d more hits, %d more misses", tc.name, h0, h, m0, m, tc.hit, tc.miss)
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
	if got.Digest != want.Digest || !slices.Equal(got.OpDigests, want.OpDigests) || !got.OpsMatch() {
		t.Fatal("the honest PROPAGATE's cached digests differ from those its REQUEST hashed to")
	}
}

// TestFailedEntryVouchesForNoCopy: a faulty node's PROPAGATE of a genuine
// bundle's header and signature over a changed operation, MAC'd over its own
// digest, reaches the node first: it misses, fails the signature, and its
// failed verdict is cached. The genuine copies that follow are hashed, not
// handed the failed entry's digest, so an honest node's PROPAGATE passes its
// MAC — it is not blamed for the forgery — and its verdict replaces the
// failure, which the next copy then hits.
func TestFailedEntryVouchesForNoCopy(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	genuine := signedBundle(ks, 1, 10, bundleOps(4)...)
	forged := *genuine
	forged.Rest = append([][]byte(nil), genuine.Rest...)
	forged.Rest[1] = []byte("op-99")
	if _, err := pre.PreverifyNodeFrame(propagateOf(ks, 3, &forged).Marshal(nil), 3); failKindOf(err) != FailBadSig {
		t.Fatalf("forged first copy: got %v, want bad-sig", err)
	}
	v, err := pre.PreverifyNodeFrame(propagateOf(ks, 1, genuine).Marshal(nil), 1)
	if err != nil || v.unchecked {
		t.Fatalf("genuine PROPAGATE after the forged one: %v, unchecked %v; want a hashed certificate", err, v != nil && v.unchecked)
	}
	if v, err = pre.PreverifyNodeFrame(propagateOf(ks, 2, genuine).Marshal(nil), 2); err != nil || !v.unchecked || !v.OpsMatch() {
		t.Fatalf("next genuine PROPAGATE: %v; want a hit on the genuine verdict", err)
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
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

// TestVerifyCacheConcurrentCopies runs a REQUEST and the PROPAGATEs of the
// same bundles through one preverifier on two goroutines (a race-detector
// target). The cache holds fewer entries than there are bundles, so it evicts
// as it goes. Every copy is accepted with the digests its own bytes hash to.
func TestVerifyCacheConcurrentCopies(t *testing.T) {
	const bundles = 40
	if h, m := concurrentCopies(t, 8, bundles); h+m != 2*3*bundles || m < bundles {
		t.Fatalf("hits=%d misses=%d, want %d lookups and at least one miss per bundle", h, m, 2*3*bundles)
	}
}

// TestVerifyCacheConcurrentCopiesSingleFlight is the same race with a cache
// that evicts nothing: a bundle's REQUEST and PROPAGATE looked up at once on
// two goroutines cost one Ed25519 check, since the second waits for the
// first's claim to land.
func TestVerifyCacheConcurrentCopiesSingleFlight(t *testing.T) {
	const bundles = 40
	if h, m := concurrentCopies(t, 64, bundles); m != bundles || h != 2*3*bundles-bundles {
		t.Fatalf("hits=%d misses=%d, want exactly one miss per bundle (%d)", h, m, bundles)
	}
}

// concurrentCopies preverifies the client REQUEST and a PROPAGATE of each of
// bundles bundles, three rounds each, on two goroutines through one
// preverifier with a cache of cacheCap entries, and returns its hits and
// misses.
func concurrentCopies(t *testing.T, cacheCap, bundles int) (hits, misses uint64) {
	ks := testKeys()
	pre := newPreverifier(ks, cacheCap)
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
				if err == nil && (!slices.Equal(v.OpDigests, want[i]) || !v.OpsMatch()) {
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
	return pre.Cache().Stats()
}

// verifyAsync preverifies frame, from client 1, on a goroutine of its own.
func verifyAsync(pre *Preverifier, frame []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		v, err := pre.PreverifyClientFrame(frame, 1)
		if err == nil && v.unchecked {
			err = errors.New("took a verdict no copy of the signature reached")
		}
		done <- err
	}()
	return done
}

// requireWaits asserts that the copy behind done is still waiting after a
// while, its signature claimed.
func requireWaits(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("a copy looked up while its signature was claimed finished at once (%v); want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// requireVerifiedItself asserts that the copy behind done finishes without
// error within a bound a lost wake-up would exceed, at the cost of one
// Ed25519 check of its own.
func requireVerifiedItself(t *testing.T, pre *Preverifier, done <-chan error, missesBefore uint64) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("genuine copy after the claim landed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("genuine copy still waiting 10 s after the claim landed: a lost wake-up")
	}
	if _, m := pre.Cache().Stats(); m != missesBefore+1 {
		t.Fatalf("misses %d→%d, want one: the genuine copy verifies itself", missesBefore, m)
	}
}

// TestClaimLandsOnMACFailure: a copy whose MAC fails empties the slot its
// lookup claimed, so the next copy of the signature is not kept waiting; and
// a genuine copy waiting on a claim that lands without a verdict verifies
// itself.
func TestClaimLandsOnMACFailure(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	genuine := signedBundle(ks, 1, 10, bundleOps(4)...)
	forged := *genuine
	forged.Auth = make([]byte, len(genuine.Auth)) // a faulty peer's garbage MAC
	if _, err := pre.PreverifyClientFrame(forged.Marshal(nil), 1); failKindOf(err) != FailBadMAC {
		t.Fatalf("copy with a garbage MAC: got %v, want bad-mac", err)
	}
	requireVerifiedItself(t, pre, verifyAsync(pre, genuine.Marshal(nil)), 0)

	// A copy in flight holds the claim; the genuine copy waits for it.
	pre = newPreverifier(ks, 16)
	_, known, claim := pre.cache.recall(&forged)
	if known || claim < 0 {
		t.Fatalf("first lookup: known %v, claim %d; want a claim", known, claim)
	}
	done := verifyAsync(pre, genuine.Marshal(nil))
	requireWaits(t, done)
	pre.cache.release(claim) // its MAC failed
	requireVerifiedItself(t, pre, done, 0)
}

// TestForgedVariantInFlightNeverFailsTheGenuineCopy: a faulty peer's variant
// of a genuine bundle, under its signature, claims it first and lands a
// failed verdict while the genuine copy waits. Whether the variant changed
// the header or, under the genuine header, an operation, the genuine copy
// does not take the failure: it verifies itself, and its verdict replaces the
// variant's.
func TestForgedVariantInFlightNeverFailsTheGenuineCopy(t *testing.T) {
	ks := testKeys()
	genuine := signedBundle(ks, 1, 10, bundleOps(4)...)
	shifted, opChanged := *genuine, *genuine
	shifted.ID++
	opChanged.Rest = append([][]byte{[]byte("op-99")}, genuine.Rest[1:]...)
	for name, variant := range map[string]*Request{"first id shifted": &shifted, "one op changed": &opChanged} {
		t.Run(name, func(t *testing.T) {
			pre := newPreverifier(ks, 16)
			_, _, claim := pre.cache.recall(variant)
			done := verifyAsync(pre, genuine.Marshal(nil))
			requireWaits(t, done)
			// The variant passed the MAC its sender made over its own digest
			// and failed the client signature.
			d, ops := variant.Digests()
			pre.cache.store(claim, variant, signedDigests{d: d, ops: ops})
			requireVerifiedItself(t, pre, done, 0)
			if v, err := pre.PreverifyClientFrame(genuine.Marshal(nil), 1); err != nil || !v.unchecked {
				t.Fatalf("next genuine copy: %v; want a hit on the genuine verdict", err)
			}
		})
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
