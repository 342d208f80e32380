package message

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// Signatures and MACs reach a request's client, id and operation only through
// OpDigest. These tests pin that the binding is as tight as authenticating
// the encoded bytes was: a change to any field of a frame is caught by the
// same check as before, a digest can never outlive the bytes it was computed
// from, and the decode and verify path stays off the allocator.

// Wire offsets of a single REQUEST with op length n (tag, client, id, count,
// op, sig, auth).
const (
	reqOffTag    = 0
	reqOffClient = 1
	reqOffID     = 9
	reqOffCount  = 17
	reqOffOp     = 25
)

func reqOffSig(n int) int  { return reqOffOp + n + 4 }
func reqOffAuth(n int) int { return reqOffSig(n) + crypto.SignatureSize + 4 }

// A PROPAGATE is type, node, inner length, then the request without its
// authenticator, then the node's authenticator.
const (
	propOffNode  = 1
	propOffInner = 13
)

// TestFieldTamperingKeepsItsFailKind flips one byte in each field of an
// encoded REQUEST and PROPAGATE. Every flip must be rejected, and with the
// same FailKind the full-body MACs produced — but an operation's: under the
// genuine header the cache holds, a REQUEST or PROPAGATE takes the genuine
// digest its MAC covers, so it is accepted as a copy whose operations fail
// OpsMatch, and the node that would keep or execute them drops it.
func TestFieldTamperingKeepsItsFailKind(t *testing.T) {
	ks := testKeys()
	op := []byte("transfer 10 from a to b")
	req := signedRequest(ks, 1, 7, op)
	reqWire := req.Marshal(nil)
	propWire := propagateOf(ks, 2, req).Marshal(nil)
	const self = 0 // newPreverifier verifies for node 0

	cases := []struct {
		name string
		wire []byte // reqWire arrives from client 1, propWire from node 2
		off  int
		set  byte     // 0: flip the low bit instead
		want FailKind // 0: an unchecked vote that fails OpsMatch
	}{
		{"request/read-only tag", reqWire, reqOffTag, byte(TypeReadRequest), FailBadMAC},
		{"request/client", reqWire, reqOffClient + 7, 0, FailWrongSender},
		{"request/id", reqWire, reqOffID + 7, 0, FailBadMAC},
		{"request/op first byte", reqWire, reqOffOp, 0, 0},
		{"request/op last byte", reqWire, reqOffOp + len(op) - 1, 0, 0},
		{"request/sig", reqWire, reqOffSig(len(op)) + 5, 0, FailBadMAC},
		{"request/own auth slot", reqWire, reqOffAuth(len(op)) + self*crypto.MACSize, 0, FailBadMAC},
		{"propagate/sender node", propWire, propOffNode + 7, 0, FailWrongSender},
		{"propagate/inner tag", propWire, propOffInner + reqOffTag, byte(TypeReadRequest), FailMalformed},
		{"propagate/client", propWire, propOffInner + reqOffClient + 7, 0, FailBadMAC},
		{"propagate/id", propWire, propOffInner + reqOffID + 7, 0, FailBadMAC},
		{"propagate/op", propWire, propOffInner + reqOffOp + 3, 0, 0},
		{"propagate/sig", propWire, propOffInner + reqOffSig(len(op)) + 5, 0, FailBadMAC},
		{"propagate/own auth slot", propWire, propOffInner + reqOffAuth(len(op)) + self*crypto.MACSize, 0, FailBadMAC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh preverifier whose cache already holds the genuine
			// request's "valid" verdict: tampering must not be served it.
			pre := newPreverifier(ks, 16)
			if _, err := pre.PreverifyClientFrame(bytes.Clone(reqWire), 1); err != nil {
				t.Fatalf("genuine request rejected: %v", err)
			}
			frame := bytes.Clone(tc.wire)
			if tc.set != 0 {
				frame[tc.off] = tc.set
			} else {
				frame[tc.off] ^= 0x01
			}
			var v *Verified
			var err error
			if strings.HasPrefix(tc.name, "request/") {
				v, err = pre.PreverifyClientFrame(frame, 1)
			} else {
				v, err = pre.PreverifyNodeFrame(frame, 2)
			}
			if tc.want == 0 {
				requireForgedCopy(t, v, err, req)
				return
			}
			if err == nil {
				t.Fatal("tampered frame accepted")
			}
			if got := failKindOf(err); got != tc.want {
				t.Fatalf("tampered frame failed as %s, want %s (%v)", got, tc.want, err)
			}
		})
	}

	// Another node's authenticator slot is not ours to check.
	frame := bytes.Clone(reqWire)
	frame[reqOffAuth(len(op))+3*crypto.MACSize] ^= 0x01
	if _, err := newPreverifier(ks, 16).PreverifyClientFrame(frame, 1); err != nil {
		t.Fatalf("flip in a foreign authenticator slot rejected: %v", err)
	}
}

// TestMutatedOpNeverRidesAStaleDigest: changing Op in place after the request
// was signed — and after its genuine form was verified and cached — is always
// caught, whichever check sees it first. A client REQUEST or PROPAGATE under
// the genuine header takes the cached genuine digest: under the MAC it had
// while the op was genuine it is a copy whose operations fail OpsMatch, and a
// PROPAGATE re-MAC'd over the mutated digest fails the MAC.
func TestMutatedOpNeverRidesAStaleDigest(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 9, []byte("genuine"))
	prop := propagateOf(ks, 1, req) // MAC'd while the op was genuine
	v, err := pre.preverifyClient(req, 1)
	if err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}
	if v.Digest != req.OpDigest() {
		t.Fatal("Verified.Digest is not the request's OpDigest")
	}
	genuine := v.Digest

	req.Op[0] ^= 0x20 // also changes prop.Req.Op: the slice is shared
	if req.OpDigest() == genuine {
		t.Fatal("OpDigest did not follow the mutated op")
	}
	original := &Request{Client: req.Client, ID: req.ID, Op: []byte("genuine")}
	v, err = pre.preverifyClient(req, 1)
	requireForgedCopy(t, v, err, original)
	v, err = pre.preverifyNode(prop, 1)
	requireForgedCopy(t, v, err, original)
	// A faulty node re-MACs the mutated request over its own digest: the MAC
	// covers the genuine digest the cache hands the copy, so it fails.
	if _, err := pre.preverifyNode(propagateOf(ks, 1, req), 1); failKindOf(err) != FailBadMAC {
		t.Fatalf("mutated op under a fresh PROPAGATE authenticator: got %v, want bad-mac", err)
	}
}

// TestDigestDefinitionsPinned: OpDigest and BatchDigest are stored in WAL
// records and agreed on between nodes, so how they are computed may change
// but what they are may not. The values are SHA-256 over
// client‖id‖op and instance‖view‖seq‖count‖refs, computed independently.
func TestDigestDefinitionsPinned(t *testing.T) {
	req := &Request{Client: 3, ID: 9, Op: []byte("put k v")}
	if d := req.OpDigest(); hex.EncodeToString(d[:]) != "05b70ee47a73a70baabb81e1e378e54197e3d4dee2f4a2aa75345e367882f5ce" {
		t.Errorf("OpDigest changed: %x", d[:])
	}
	pp := &PrePrepare{Instance: 1, View: 7, Seq: 42, Batch: sampleRefs(2)}
	if d := pp.BatchDigest(); hex.EncodeToString(d[:]) != "dc6d3bc04706a109b46ad82b6802aad2dddff17226381091cbea0d8e65abee37" {
		t.Errorf("BatchDigest changed: %x", d[:])
	}
}

// largePropagateFrame is an authenticated 4 kB PROPAGATE from node 1, with
// the request's signature verdict already in pre's cache.
func largePropagateFrame(t testing.TB, ks *crypto.KeyStore, pre *Preverifier) []byte {
	t.Helper()
	req := signedRequest(ks, 1, 1, bytes.Repeat([]byte{0xab}, 4096))
	if _, err := pre.preverifyClient(req, 1); err != nil {
		t.Fatalf("request rejected: %v", err)
	}
	return propagateOf(ks, 1, req).Marshal(nil)
}

// bytesPerRun is the mean number of bytes f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeAliasesFrame: Decode copies no variable-length field, the
// authenticator included.
func TestDecodeAliasesFrame(t *testing.T) {
	ks := testKeys()
	frame := largePropagateFrame(t, ks, newPreverifier(ks, 16))
	msg, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	p := msg.(*Propagate)
	opAt := propOffInner + reqOffOp
	if &p.Req.Op[0] != &frame[opAt] || &p.Req.Sig[0] != &frame[propOffInner+reqOffSig(4096)] {
		t.Fatal("decoded Op/Sig do not alias the frame")
	}
	if cap(p.Req.Op) != len(p.Req.Op) {
		t.Fatal("aliased Op must not have capacity into the neighbouring field")
	}
	if len(p.Auth) != testN*crypto.MACSize || &p.Auth[0] != &frame[propOffInner+reqOffAuth(4096)] {
		t.Fatal("decoded Auth does not alias the frame")
	}
	if cap(p.Auth) != len(p.Auth) {
		t.Fatal("aliased Auth must not have capacity past its last entry")
	}
	if b := bytesPerRun(200, func() { _, _ = Decode(frame) }); b >= 512 {
		t.Fatalf("Decode of a 4 kB PROPAGATE allocates %d B, want < 512", b)
	}
	rep, err := Decode((&Reply{Client: 1, ID: 2, Result: []byte("value"), Node: 3}).Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.(*Reply).Result; cap(r) != len(r) {
		t.Fatal("aliased Result must not have capacity into the MAC")
	}
	// An authenticator in the middle of a frame — a PRE-PREPARE embedded in a
	// NEW-VIEW — is clipped too: appending to it must not reach the bytes
	// behind it.
	nvFrame := (&NewView{
		Instance: 0, View: 2, Node: 1, Auth: sampleAuth(testN, 2),
		PrePrepares: []PrePrepare{{Instance: 0, View: 2, Seq: 5, Batch: sampleRefs(1), Node: 1, Auth: sampleAuth(testN, 1)}},
	}).Marshal(nil)
	nv, err := Decode(nvFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(nvFrame)
	inner := nv.(*NewView).PrePrepares[0].Auth
	if at := bytes.Index(nvFrame, sampleAuth(testN, 1)); at < 0 || &inner[0] != &nvFrame[at] {
		t.Fatal("embedded PRE-PREPARE's Auth does not alias the frame")
	}
	_ = append(inner, 0xee, 0xee, 0xee, 0xee)
	if !bytes.Equal(nvFrame, want) {
		t.Fatal("an append to a decoded Auth wrote into the frame")
	}
}

// TestDecodePreservesEmptyFields: a present-but-empty field decodes to an
// empty, non-nil slice, and the message re-encodes to the same bytes.
func TestDecodePreservesEmptyFields(t *testing.T) {
	for _, m := range []Message{
		&Request{Client: 1, ID: 2, Op: []byte{}, Sig: []byte{}, Auth: crypto.Authenticator{}},
		&Propagate{Req: Request{Client: 1, ID: 2, Op: []byte{}, Sig: []byte{}}, Node: 1, Auth: crypto.Authenticator{}},
		&Reply{Client: 1, ID: 2, Result: []byte{}, Node: 3},
		&Invalid{Node: 1, Padding: []byte{}},
	} {
		got := roundTrip(t, m)
		if !bytes.Equal(got.Marshal(nil), m.Marshal(nil)) {
			t.Errorf("%s does not re-encode to the same bytes", m.MsgType())
		}
	}
	msg, err := Decode((&Request{Client: 1, ID: 2}).Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if r := msg.(*Request); r.Op == nil || r.Sig == nil {
		t.Fatalf("empty fields decoded as nil: op=%v sig=%v", r.Op, r.Sig)
	}
}

// opsOf returns req's operations in id order.
func opsOf(req *Request) [][]byte {
	ops := make([][]byte, req.Len())
	for i := range ops {
		ops[i] = req.OpAt(i)
	}
	return ops
}

var benchOps = []struct {
	name string
	op   []byte
}{{"8B", make([]byte, 8)}, {"4kB", make([]byte, 4096)}}

// BenchmarkPreverifyClientFrame is the sig-cache miss path: decode, one pass
// over the op, the MAC check and a full Ed25519 verification — for a bundle
// of 16 8 B ops, one of each per frame, reported per request too. The
// bundle-32x4kB-hit case is a client REQUEST whose bundle a PROPAGATE put in
// the cache first: decode and the MAC check against the cached digest, its
// operations unread.
func BenchmarkPreverifyClientFrame(b *testing.B) {
	ks := testKeys()
	ops32x4k := make([][]byte, MaxBundleOps)
	for i := range ops32x4k {
		ops32x4k[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	type benchCase struct {
		name string
		req  *Request
		hit  bool
	}
	cases := []benchCase{
		{"bundle-16x8B", signedBundle(ks, 1, 1, bundleOps(16)...), false},
		{"bundle-32x4kB-hit", signedBundle(ks, 1, 1, ops32x4k...), true},
	}
	for _, bo := range benchOps {
		cases = append(cases, benchCase{bo.name, signedRequest(ks, 1, 1, bo.op), false})
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			frames := [2][]byte{tc.req.Marshal(nil)}
			pre := newPreverifier(ks, 1)
			if tc.hit {
				frames[1] = frames[0]
				if _, err := pre.PreverifyNodeFrame(propagateOf(ks, 1, tc.req).Marshal(nil), 1); err != nil {
					b.Fatal(err)
				}
			} else {
				// Two signed requests alternate through a 1-entry cache, so
				// every call misses and stores its verdict, as a first copy
				// does.
				frames[1] = signedBundle(ks, 1, tc.req.ID+types.RequestID(tc.req.Len()), opsOf(tc.req)...).Marshal(nil)
			}
			b.SetBytes(int64(len(frames[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pre.PreverifyClientFrame(frames[i%2], 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.req.Len()), "ns/req")
		})
	}
}

// BenchmarkPreverifyPropagateFrame is the sig-cache hit path every PROPAGATE
// copy after the first takes: decode and the MAC check against the cached
// digest, the operations unread. The bundle of 8 4 kB operations — large-mem's
// sat-phase bundle — also runs the miss path for comparison, a pass over the
// operations and an Ed25519 verification, and both report per request.
func BenchmarkPreverifyPropagateFrame(b *testing.B) {
	ks := testKeys()
	ops8x4k := make([][]byte, 8)
	for i := range ops8x4k {
		ops8x4k[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	type benchCase struct {
		name string
		req  *Request
		miss bool
	}
	cases := []benchCase{
		{"bundle-8x4kB-hit", signedBundle(ks, 1, 1, ops8x4k...), false},
		{"bundle-8x4kB-miss", signedBundle(ks, 1, 1, ops8x4k...), true},
	}
	for _, bo := range benchOps {
		cases = append(cases, benchCase{bo.name, signedRequest(ks, 1, 1, bo.op), false})
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			frames := [2][]byte{propagateOf(ks, 1, tc.req).Marshal(nil)}
			frames[1] = frames[0]
			pre := newPreverifier(ks, 16)
			if tc.miss {
				// Two signed bundles alternate through a 1-entry cache, so
				// every call misses and stores its verdict, as a first copy
				// does.
				other := signedBundle(ks, 1, tc.req.ID+types.RequestID(tc.req.Len()), opsOf(tc.req)...)
				frames[1], pre = propagateOf(ks, 1, other).Marshal(nil), newPreverifier(ks, 1)
			} else if _, err := pre.preverifyClient(tc.req, 1); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frames[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pre.PreverifyNodeFrame(frames[i%2], 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.req.Len()), "ns/req")
		})
	}
}
