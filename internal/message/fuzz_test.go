package message

import (
	"bytes"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// fuzzSeeds marshals one representative of every message type so the fuzzers
// start from structurally valid frames and mutate from there.
func fuzzSeeds(f *testing.F) {
	refs := []types.RequestRef{{Client: 1, ID: 2}, {Client: 3, ID: 4}}
	msgs := []Message{
		&Request{Client: 1, ID: 2, Op: []byte("op"), Sig: make([]byte, crypto.SignatureSize)},
		&Propagate{Req: Request{Client: 1, ID: 2, Op: []byte("op")}, Node: 3},
		&Request{Client: 1, ID: 2, Op: []byte("op"), Rest: [][]byte{[]byte("op3"), {}}, Sig: make([]byte, crypto.SignatureSize)},
		&Propagate{Req: Request{Client: 1, ID: 2, Op: []byte("op"), Rest: [][]byte{[]byte("op3")}}, Node: 3},
		&PrePrepare{Instance: 0, View: 1, Seq: 2, Batch: refs, Node: 0},
		&Prepare{Instance: 1, View: 1, Seq: 2, Node: 1},
		&Commit{Instance: 0, View: 1, Seq: 2, Node: 2},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Node: 0},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Rest: [][]byte{[]byte("r3"), {}}, Node: 0},
		&InstanceChange{CPI: 7, Node: 3},
		&ViewChange{Instance: 0, NewView: 2, StableSeq: 1, Node: 1, Sig: make([]byte, crypto.SignatureSize)},
		&NewView{Instance: 0, View: 2, ViewChanges: []ViewChange{{Instance: 0, NewView: 2, Node: 1}}, Node: 1},
		&Checkpoint{Instance: 0, Seq: 128, Node: 0},
		&Invalid{Node: 1, Padding: []byte("xxxx")},
		&Fetch{Instance: 0, FromSeq: 1, ToSeq: 3, Node: 2},
		&FetchResp{Instance: 0, Seq: 2, View: 1, Batch: refs, Node: 0},
	}
	for _, m := range msgs {
		f.Add(m.Marshal(nil))
	}
	// A few degenerate frames.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0x01}, 64))
}

// FuzzDecode checks that Decode never panics on arbitrary bytes, never writes
// to them (the simulator hands one frame to N-1 receivers, and every decoded
// message aliases its frame) and that any frame it accepts survives a
// marshal/decode round trip with the same type.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		msg, err := Decode(data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("Decode wrote to its input: %x -> %x", orig, data)
		}
		if err != nil {
			if msg != nil {
				t.Fatalf("Decode returned both a message and error %v", err)
			}
			return
		}
		re := msg.Marshal(nil)
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decoding marshaled %s: %v", msg.MsgType(), err)
		}
		if msg2.MsgType() != msg.MsgType() {
			t.Fatalf("round trip changed type %s -> %s", msg.MsgType(), msg2.MsgType())
		}
		if got := msg.EncodedSize(); got != len(re) {
			t.Fatalf("%s: EncodedSize %d but marshaled %d bytes", msg.MsgType(), got, len(re))
		}
		if !bytes.Equal(msg2.Marshal(nil), re) {
			t.Fatalf("marshaling %s is not a fixed point", msg.MsgType())
		}
	})
}

// FuzzPreverify drives the full preverify stage (decode + authentication)
// with arbitrary frames on both NICs. Invariants: no panics, a Verified
// value exactly when there is no error, and every error is a classified
// PreverifyError kind.
func FuzzPreverify(f *testing.F) {
	fuzzSeeds(f)
	// Also seed a fully authenticated request and bundle, and the bundle's
	// PROPAGATE from node 2, so the accept path (and the signature cache) is
	// exercised, not just rejections.
	ks := crypto.NewKeyStore([]byte("fuzz-preverify"), 4, 4)
	cl := ks.ClientRing(1)
	for _, req := range []*Request{
		{Client: 1, ID: 2, Op: []byte("op")},
		{Client: 1, ID: 3, Op: []byte("op3"), Rest: [][]byte{[]byte("op4"), []byte("op5")}},
	} {
		d, _ := req.Digests()
		req.Sig = cl.Sign(req.AppendSignedBody(nil, d))
		req.Auth = cl.AuthenticatorForNodes(4, req.Body())
		f.Add(req.Marshal(nil))
		p := &Propagate{Req: *req, Node: 2}
		p.Auth = ks.NodeRing(2).AuthenticatorForNodes(4, p.Body())
		f.Add(p.Marshal(nil))
	}

	cluster := types.NewConfig(1)
	pre := NewPreverifier(ks.NodeRing(0), 0, cluster, NewVerifyCache(64))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(v *Verified, err error) {
			if (v == nil) == (err == nil) {
				t.Fatalf("got verified=%v error=%v; want exactly one", v, err)
			}
			if err != nil {
				if k := failKindOf(err); k < FailMalformed || k > FailBadSig {
					t.Fatalf("unclassified preverify error %v", err)
				}
			}
		}
		check(pre.PreverifyClientFrame(data, 1))
		check(pre.PreverifyNodeFrame(data, 2))
	})
}
