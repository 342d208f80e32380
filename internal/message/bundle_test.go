package message

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// signedBundle builds a fully authenticated request carrying ops under ids
// id, id+1, …: a bundle when there is more than one.
func signedBundle(ks *crypto.KeyStore, client types.ClientID, id types.RequestID, ops ...[]byte) *Request {
	cl := ks.ClientRing(client)
	req := &Request{Client: client, ID: id, Op: ops[0]}
	if len(ops) > 1 {
		req.Rest = ops[1:]
	}
	d, _ := req.Digests()
	req.Sig = cl.Sign(req.AppendSignedBody(nil, d))
	req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
	return req
}

// bundleOps returns k distinct small operations.
func bundleOps(k int) [][]byte {
	ops := make([][]byte, k)
	for i := range ops {
		ops[i] = []byte(fmt.Sprintf("op-%02d", i))
	}
	return ops
}

// TestSingleRequestEncoding pins a single request's REQUEST and PROPAGATE
// frames, signature and authenticators included: a bundle of one, its count
// on the wire, signed over its OpDigest.
func TestSingleRequestEncoding(t *testing.T) {
	ks := crypto.NewKeyStore([]byte("golden"), testN, 4)
	cl := ks.ClientRing(1)
	req := &Request{Client: 1, ID: 7, Op: []byte("golden-op")}
	req.Sig = cl.Sign(req.AppendSignedBody(nil, req.OpDigest()))
	req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
	p := &Propagate{Req: *req, Node: 2}
	p.Auth = ks.NodeRing(2).AuthenticatorForNodes(testN, p.Body())
	const (
		wantReq  = "01000000000000000100000000000000070000000100000009676f6c64656e2d6f70000000400c2f328232db28d032ac2bab26a94eaae74dca707012219e38fd18d82900581fe7f32ad7c54bc033e81239e468d3f7816805514707a6cf8ccb40d0539fa7740c00000004d8f5dc4a5225ca23af6c9c2bd89519851da945fa72bc7ed7aa665e9d852872db74b52e7070c29c61280b44e5e58650c1224256890d87c76b90cca33c924dc197"
		wantProp = "0200000000000000020000006601000000000000000100000000000000070000000100000009676f6c64656e2d6f70000000400c2f328232db28d032ac2bab26a94eaae74dca707012219e38fd18d82900581fe7f32ad7c54bc033e81239e468d3f7816805514707a6cf8ccb40d0539fa7740c00000004d9df3f2616c8c55f1a4fe342ec7a101105efee0bdb4def0faac15dd659c97fba0000000000000000000000000000000043d66dbbd2acce122d5324c8ab09d7d9"
	)
	if got := hex.EncodeToString(req.Marshal(nil)); got != wantReq {
		t.Errorf("REQUEST encoding changed:\n got %s\nwant %s", got, wantReq)
	}
	if got := hex.EncodeToString(p.Marshal(nil)); got != wantProp {
		t.Errorf("PROPAGATE encoding changed:\n got %s\nwant %s", got, wantProp)
	}
	if d, ops := req.Digests(); d != req.OpDigest() || ops != nil {
		t.Error("a single request's signed digest is not its OpDigest")
	}
}

// TestBundleOfOneRoundTrip: a single request decodes and preverifies as a
// REQUEST, a READ-REQUEST and inside a PROPAGATE, and a single reply decodes
// and passes its MAC check as a REPLY — each the k = 1 case of one encoding.
func TestBundleOfOneRoundTrip(t *testing.T) {
	ks := testKeys()
	for _, readOnly := range []bool{false, true} {
		cl := ks.ClientRing(1)
		req := &Request{Client: 1, ID: 40, Op: []byte("one"), ReadOnly: readOnly}
		req.Sig = cl.Sign(req.AppendSignedBody(nil, req.OpDigest()))
		req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
		frame := req.Marshal(nil)
		if len(frame) != req.EncodedSize() || frame[0] != byte(req.MsgType()) {
			t.Fatalf("%s: EncodedSize %d, marshalled %d, tag %d", req.MsgType(), req.EncodedSize(), len(frame), frame[0])
		}
		got := roundTrip(t, req).(*Request)
		if got.Len() != 1 || got.ReadOnly != readOnly || !bytes.Equal(got.Op, []byte("one")) || !bytes.Equal(got.Marshal(nil), frame) {
			t.Fatalf("%s: decoded %d ops, read-only %v", req.MsgType(), got.Len(), got.ReadOnly)
		}
		v, err := newPreverifier(ks, 16).PreverifyClientFrame(frame, 1)
		if err != nil || v.OpDigests != nil || v.Digest != req.OpDigest() {
			t.Fatalf("%s: preverified to %v, %v", req.MsgType(), v, err)
		}
	}
	req := signedBundle(ks, 1, 40, []byte("one"))
	prop := propagateOf(ks, 1, req)
	if gp := roundTrip(t, prop).(*Propagate); gp.Req.Len() != 1 || !bytes.Equal(gp.Marshal(nil), prop.Marshal(nil)) {
		t.Fatal("PROPAGATE of a single request does not round-trip")
	}
	if _, err := newPreverifier(ks, 16).PreverifyNodeFrame(prop.Marshal(nil), 1); err != nil {
		t.Fatalf("PROPAGATE of a single request rejected: %v", err)
	}
	rep := signedReplyBundle(ks, 3, 1, 40, []byte("result"))
	got := roundTrip(t, rep).(*Reply)
	if got.Len() != 1 || !bytes.Equal(got.Result, rep.Result) || !bytes.Equal(got.Marshal(nil), rep.Marshal(nil)) {
		t.Fatalf("REPLY of one result decoded to %d results", got.Len())
	}
	if err := ks.ClientRing(1).VerifyNodeMAC(3, got.Body(), got.MAC); err != nil {
		t.Fatalf("decoded REPLY fails its MAC: %v", err)
	}
}

// TestBundleRoundTrip: bundles of every size from 2 to MaxBundleOps survive
// encode/decode alone and inside a PROPAGATE, and preverify to a certificate
// carrying the BundleDigest and every request's OpDigest.
func TestBundleRoundTrip(t *testing.T) {
	ks := testKeys()
	for k := 2; k <= MaxBundleOps; k++ {
		req := signedBundle(ks, 1, 40, bundleOps(k)...)
		frame := req.Marshal(nil)
		if len(frame) != req.EncodedSize() {
			t.Fatalf("k=%d: EncodedSize %d, marshalled %d", k, req.EncodedSize(), len(frame))
		}
		if frame[0] != byte(TypeRequest) || req.MsgType() != TypeRequest {
			t.Fatalf("k=%d: bundle not tagged TypeRequest", k)
		}
		got := roundTrip(t, req).(*Request)
		if got.Len() != k || got.ID != 40 || got.Client != 1 || got.ReadOnly {
			t.Fatalf("k=%d: decoded %d ops of client %d from id %d", k, got.Len(), got.Client, got.ID)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(got.OpAt(i), req.OpAt(i)) {
				t.Fatalf("k=%d: op %d = %q, want %q", k, i, got.OpAt(i), req.OpAt(i))
			}
		}
		if !bytes.Equal(got.Marshal(nil), frame) {
			t.Fatalf("k=%d: re-encoding differs", k)
		}
		prop := propagateOf(ks, 1, req)
		if gp := roundTrip(t, prop).(*Propagate); gp.Req.Len() != k || !bytes.Equal(gp.Marshal(nil), prop.Marshal(nil)) {
			t.Fatalf("k=%d: PROPAGATE of a bundle does not round-trip", k)
		}

		pre := newPreverifier(ks, 16)
		v, err := pre.PreverifyClientFrame(frame, 1)
		if err != nil {
			t.Fatalf("k=%d: bundle rejected: %v", k, err)
		}
		if _, err := pre.PreverifyNodeFrame(prop.Marshal(nil), 1); err != nil {
			t.Fatalf("k=%d: PROPAGATE of the bundle rejected: %v", k, err)
		}
		if len(v.OpDigests) != k || v.Digest != BundleDigest(v.OpDigests) {
			t.Fatalf("k=%d: certificate carries %d OpDigests", k, len(v.OpDigests))
		}
		for i := 0; i < k; i++ {
			one := Request{Client: 1, ID: 40 + types.RequestID(i), Op: req.OpAt(i)}
			if v.OpDigest(i) != one.OpDigest() {
				t.Fatalf("k=%d: OpDigest(%d) is not request %d's", k, i, one.ID)
			}
		}
	}
}

// TestPropagateSize: PropagateSize is the length of the PROPAGATE a node
// builds from a request or bundle of every size, each op 5 B here.
func TestPropagateSize(t *testing.T) {
	ks := testKeys()
	for k := 1; k <= MaxBundleOps; k++ {
		frame := propagateOf(ks, 1, signedBundle(ks, 1, 40, bundleOps(k)...)).Marshal(nil)
		if got := PropagateSize(k, 5*k, testN); got != len(frame) {
			t.Fatalf("k=%d: PropagateSize %d, PROPAGATE of %d B", k, got, len(frame))
		}
	}
}

// TestBundleCaps: a node rejects a request of no or more than MaxBundleOps
// operations as malformed, alone or inside a PROPAGATE; its bytes are the
// frame's to bound, so MaxBundleOps operations of 4 kB decode.
func TestBundleCaps(t *testing.T) {
	ks := testKeys()
	zero := signedBundle(ks, 1, 1, []byte("a")).Marshal(nil)
	zero[reqOffCount+3] = 0
	over := signedBundle(ks, 1, 1, bundleOps(MaxBundleOps)...).Marshal(nil)
	over[reqOffCount+3] = MaxBundleOps + 1
	for name, frame := range map[string][]byte{
		"count of zero":        zero,
		"MaxBundleOps+1":       over,
		"MaxBundleOps+1 ops":   signedBundle(ks, 1, 1, bundleOps(MaxBundleOps+1)...).Marshal(nil),
		"read tag on a bundle": append([]byte{byte(TypeReadRequest)}, signedBundle(ks, 1, 1, bundleOps(4)...).Marshal(nil)[1:]...),
	} {
		if _, err := newPreverifier(ks, 16).PreverifyClientFrame(frame, 1); failKindOf(err) != FailMalformed {
			t.Errorf("%s: got %v, want malformed", name, err)
		}
	}
	for name, count := range map[string]byte{"count of zero": 0, "MaxBundleOps+1": MaxBundleOps + 1} {
		prop := propagateOf(ks, 1, signedBundle(ks, 1, 1, []byte("a"))).Marshal(nil)
		prop[propOffInner+reqOffCount+3] = count
		if _, err := newPreverifier(ks, 16).PreverifyNodeFrame(prop, 1); failKindOf(err) != FailMalformed {
			t.Errorf("PROPAGATE, %s: got %v, want malformed", name, err)
		}
	}
	big := make([][]byte, MaxBundleOps)
	for i := range big {
		big[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	v, err := newPreverifier(ks, 16).PreverifyClientFrame(signedBundle(ks, 1, 1, big...).Marshal(nil), 1)
	if err != nil || len(v.OpDigests) != MaxBundleOps {
		t.Errorf("a bundle of %d ops of 4 kB rejected: %v", MaxBundleOps, err)
	}
}

// TestBundleTamperingRejected: every way of altering a signed bundle is
// caught. The cache holds the genuine bundle's verdict throughout. Altered in
// flight, a changed header fails the client's MAC; changed operations under
// the genuine header take the genuine digest the client MAC'd, so they are a
// copy whose operations fail OpsMatch. Relayed by a faulty node in a PROPAGATE
// it MACs itself, the bundle fails the client signature if the header
// changed, else the MAC, which covers the genuine digest the cache hands the
// copy; MAC'd over that digest, it is again a copy that fails OpsMatch.
func TestBundleTamperingRejected(t *testing.T) {
	ks := testKeys()
	genuine := signedBundle(ks, 1, 10, bundleOps(6)...)
	tampered := func(edit func(r *Request)) *Request {
		r := *genuine
		r.Rest = append([][]byte(nil), genuine.Rest...)
		edit(&r)
		return &r
	}
	for _, tc := range []struct {
		name              string
		req               *Request
		inFlight, relayed FailKind // 0: an unchecked copy, MAC'd over the genuine digest
	}{
		{"one op changed", tampered(func(r *Request) { r.Rest[2] = []byte("op-99") }), 0, FailBadMAC},
		{"two ops swapped", tampered(func(r *Request) { r.Rest[0], r.Rest[1] = r.Rest[1], r.Rest[0] }), 0, FailBadMAC},
		{"first two ops swapped", tampered(func(r *Request) { r.Op, r.Rest[0] = r.Rest[0], r.Op }), 0, FailBadMAC},
		{"op dropped", tampered(func(r *Request) { r.Rest = r.Rest[:len(r.Rest)-1] }), FailBadMAC, FailBadSig},
		{"op appended", tampered(func(r *Request) { r.Rest = append(r.Rest, []byte("op-06")) }), FailBadMAC, FailBadSig},
		{"wrong first id", tampered(func(r *Request) { r.ID++ }), FailBadMAC, FailBadSig},
		{"bundle cut to one op", tampered(func(r *Request) { r.Rest = nil }), FailBadMAC, FailBadSig},
		{"one op changed, MAC'd over the genuine digest", tampered(func(r *Request) { r.Rest[2] = []byte("op-99") }), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pre := newPreverifier(ks, 16)
			if _, err := pre.PreverifyClientFrame(genuine.Marshal(nil), 1); err != nil {
				t.Fatalf("genuine bundle rejected: %v", err)
			}
			v, err := pre.PreverifyClientFrame(tc.req.Marshal(nil), 1)
			if tc.inFlight == 0 {
				requireForgedCopy(t, v, err, genuine)
			} else if failKindOf(err) != tc.inFlight {
				t.Errorf("altered in flight: got %v, want %s", err, tc.inFlight)
			}
			if tc.relayed == 0 {
				d, _ := genuine.Digests()
				v, err := pre.PreverifyNodeFrame(propagateOver(ks, 1, tc.req, d).Marshal(nil), 1)
				requireForgedCopy(t, v, err, genuine)
			} else if _, err := pre.PreverifyNodeFrame(propagateOf(ks, 1, tc.req).Marshal(nil), 1); failKindOf(err) != tc.relayed {
				t.Errorf("relayed by a faulty node: got %v, want %s", err, tc.relayed)
			}
		})
	}
	// An inner read tag on a propagated bundle never decodes: reads are not
	// ordered, so they are never propagated, bundled or not.
	prop := propagateOf(ks, 1, genuine).Marshal(nil)
	prop[propOffInner+reqOffTag] = byte(TypeReadRequest)
	if _, err := newPreverifier(ks, 16).PreverifyNodeFrame(prop, 1); failKindOf(err) != FailMalformed {
		t.Errorf("PROPAGATE of a read-tagged bundle: got %v, want malformed", err)
	}
}

// TestBundleCostsOneVerificationPerNode: a bundle's REQUEST and its three
// PROPAGATEs reach a node as four frames and cost it one Ed25519 verification
// — one cache miss — whatever the bundle's size.
func TestBundleCostsOneVerificationPerNode(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedBundle(ks, 3, 1, bundleOps(16)...)
	if _, err := pre.PreverifyClientFrame(req.Marshal(nil), 3); err != nil {
		t.Fatalf("bundle rejected: %v", err)
	}
	for from := types.NodeID(1); from < testN; from++ {
		if _, err := pre.PreverifyNodeFrame(propagateOf(ks, from, req).Marshal(nil), from); err != nil {
			t.Fatalf("PROPAGATE from node %d rejected: %v", from, err)
		}
	}
	if h, m := pre.Cache().Stats(); m != 1 || h != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/1: one verification per bundle per node", h, m)
	}
}

// signedReplyBundle has node answer client's requests id, id+1, … with
// results in one REPLY.
func signedReplyBundle(ks *crypto.KeyStore, node types.NodeID, client types.ClientID, id types.RequestID, results ...[]byte) *Reply {
	rep := &Reply{Client: client, ID: id, Result: results[0], Node: node}
	if len(results) > 1 {
		rep.Rest = results[1:]
	}
	rep.MAC = ks.NodeRing(node).MACForClient(client, rep.Body())
	return rep
}

// TestSingleReplyEncoding pins a single reply's frame, MAC included: a REPLY
// of one result, its count on the wire, MAC'd over its ResultsDigest.
func TestSingleReplyEncoding(t *testing.T) {
	ks := crypto.NewKeyStore([]byte("golden"), testN, 4)
	rep := signedReplyBundle(ks, 2, 1, 7, []byte("golden-result"))
	const want = "06000000000000000100000000000000070000000000000002000000010000000d676f6c64656e2d726573756c741e30cca375713a32ae8b78f517b1efff"
	if got := hex.EncodeToString(rep.Marshal(nil)); got != want {
		t.Errorf("REPLY encoding changed:\n got %s\nwant %s", got, want)
	}
	if rep.MsgType() != TypeReply || rep.Len() != 1 {
		t.Errorf("a single reply is a %s of %d", rep.MsgType(), rep.Len())
	}
}

// TestReplyBundleRoundTrip: reply bundles of every size from 2 to
// MaxBundleOps survive encode/decode, their MAC body fits MaxBodySize, and
// the decoded frame passes the client's one MAC check.
func TestReplyBundleRoundTrip(t *testing.T) {
	ks := testKeys()
	for k := 2; k <= MaxBundleOps; k++ {
		rep := signedReplyBundle(ks, 3, 1, 40, bundleOps(k)...)
		frame := rep.Marshal(nil)
		if len(frame) != rep.EncodedSize() {
			t.Fatalf("k=%d: EncodedSize %d, marshalled %d", k, rep.EncodedSize(), len(frame))
		}
		if frame[0] != byte(TypeReply) || rep.MsgType() != TypeReply {
			t.Fatalf("k=%d: reply bundle not tagged TypeReply", k)
		}
		if n := len(rep.Body()); n > MaxBodySize {
			t.Fatalf("k=%d: MAC body of %d bytes, over MaxBodySize", k, n)
		}
		got := roundTrip(t, rep).(*Reply)
		if got.Len() != k || got.ID != 40 || got.Client != 1 || got.Node != 3 || got.MAC != rep.MAC {
			t.Fatalf("k=%d: decoded %d results for client %d from id %d", k, got.Len(), got.Client, got.ID)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(got.ResultAt(i), rep.ResultAt(i)) {
				t.Fatalf("k=%d: result %d = %q, want %q", k, i, got.ResultAt(i), rep.ResultAt(i))
			}
		}
		if !bytes.Equal(got.Marshal(nil), frame) {
			t.Fatalf("k=%d: re-encoding differs", k)
		}
		if err := ks.ClientRing(1).VerifyNodeMAC(3, got.Body(), got.MAC); err != nil {
			t.Fatalf("k=%d: decoded bundle fails its MAC: %v", k, err)
		}
	}
}

// TestReplyBundleCaps: a reply of no or more than MaxBundleOps results does
// not decode.
func TestReplyBundleCaps(t *testing.T) {
	ks := testKeys()
	zero := signedReplyBundle(ks, 0, 1, 1, []byte("a")).Marshal(nil)
	zero[1+8+8+8+3] = 0 // the count field
	over := signedReplyBundle(ks, 0, 1, 1, bundleOps(MaxBundleOps)...).Marshal(nil)
	over[1+8+8+8+3] = MaxBundleOps + 1
	for name, frame := range map[string][]byte{
		"count of zero":          zero,
		"MaxBundleOps+1":         over,
		"MaxBundleOps+1 encoded": signedReplyBundle(ks, 0, 1, 1, bundleOps(MaxBundleOps+1)...).Marshal(nil),
	} {
		if _, err := Decode(frame); !errors.Is(err, ErrOversized) {
			t.Errorf("%s: got %v, want ErrOversized", name, err)
		}
	}
}

// TestReplyBundleTamperingFailsMAC: every way of altering a node's reply
// bundle in flight fails the client's MAC check, which covers the results
// through ResultsDigest.
func TestReplyBundleTamperingFailsMAC(t *testing.T) {
	ks := testKeys()
	genuine := signedReplyBundle(ks, 2, 1, 10, bundleOps(6)...)
	client := ks.ClientRing(1)
	if err := client.VerifyNodeMAC(2, genuine.Body(), genuine.MAC); err != nil {
		t.Fatalf("genuine reply bundle fails its MAC: %v", err)
	}
	tampered := func(edit func(r *Reply)) *Reply {
		r := *genuine
		r.Rest = append([][]byte(nil), genuine.Rest...)
		edit(&r)
		// What the client checks is the frame it decodes.
		got, err := Decode(r.Marshal(nil))
		if err != nil {
			t.Fatalf("tampered frame does not decode: %v", err)
		}
		return got.(*Reply)
	}
	for _, tc := range []struct {
		name string
		rep  *Reply
	}{
		{"one result changed", tampered(func(r *Reply) { r.Rest[2] = []byte("op-99") })},
		{"two results swapped", tampered(func(r *Reply) { r.Rest[0], r.Rest[1] = r.Rest[1], r.Rest[0] })},
		{"first two results swapped", tampered(func(r *Reply) { r.Result, r.Rest[0] = r.Rest[0], r.Result })},
		{"count cut", tampered(func(r *Reply) { r.Rest = r.Rest[:len(r.Rest)-1] })},
		{"cut to one result", tampered(func(r *Reply) { r.Rest = nil })},
		{"first id shifted", tampered(func(r *Reply) { r.ID++ })},
		{"boundary moved", tampered(func(r *Reply) { r.Result, r.Rest[0] = append(r.Result, r.Rest[0][0]), r.Rest[0][1:] })},
	} {
		if err := client.VerifyNodeMAC(2, tc.rep.Body(), tc.rep.MAC); err == nil {
			t.Errorf("%s: MAC check passed", tc.name)
		}
	}
	// Another node claiming the frame: its own key does not make the MAC.
	wrong := *genuine
	wrong.Node = 3
	if err := client.VerifyNodeMAC(3, wrong.Body(), wrong.MAC); err == nil {
		t.Error("wrong node: MAC check passed")
	}
}
