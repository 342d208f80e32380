package message

import (
	"bytes"
	"slices"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// fuzzSeeds marshals one representative of every message type so the fuzzers
// start from structurally valid frames and mutate from there.
func fuzzSeeds() [][]byte {
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
	var frames [][]byte
	for _, m := range msgs {
		frames = append(frames, m.Marshal(nil))
	}
	// A few degenerate frames.
	return append(frames, []byte{}, []byte{0xff}, bytes.Repeat([]byte{0x01}, 64))
}

// FuzzDecode checks that Decode never panics on arbitrary bytes, never writes
// to them (the simulator hands one frame to N-1 receivers, and every decoded
// message aliases its frame) and that any frame it accepts survives a
// marshal/decode round trip with the same type.
func FuzzDecode(f *testing.F) {
	for _, frame := range fuzzSeeds() {
		f.Add(frame)
	}
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
// with two arbitrary frames in turn, each on both NICs, through a preverifier
// whose cache the first frame may fill for the second. Invariants:
// no panics, a Verified value exactly when there is no error, every error a
// classified PreverifyError kind, and an accepted frame carries the digests
// its own bytes hash to — except a PROPAGATE that took them from the cache
// unread, whose OpsMatch then reports exactly whether it does.
func FuzzPreverify(f *testing.F) {
	for _, frame := range fuzzSeeds() {
		f.Add(frame, []byte(nil))
	}
	// Also seed fully authenticated requests and bundles, each followed by its
	// PROPAGATE from node 2, so the accept path and the signature cache's hit
	// path are exercised, not just rejections.
	ks := crypto.NewKeyStore([]byte("fuzz-preverify"), 4, 4)
	cl := ks.ClientRing(1)
	for _, req := range []*Request{
		{Client: 1, ID: 2, Op: []byte("op")},
		{Client: 1, ID: 3, Op: []byte("op3"), Rest: [][]byte{[]byte("op4"), []byte("op5")}},
		{Client: 1, ID: 6, Op: []byte("ab"), Rest: [][]byte{[]byte("c")}},
	} {
		d, _ := req.Digests()
		req.Sig = cl.Sign(req.AppendSignedBody(nil, d))
		req.Auth = cl.AuthenticatorForNodes(4, req.Body())
		p := &Propagate{Req: *req, Node: 2}
		p.Auth = ks.NodeRing(2).AuthenticatorForNodes(4, p.Body())
		f.Add(req.Marshal(nil), p.Marshal(nil))
		if len(req.Rest) == 1 {
			// And a faulty node's PROPAGATE of the bundle with an operation
			// boundary moved, ["a","bc"] for ["ab","c"], under its signature:
			// MAC'd over its own digest, then over the genuine one.
			p.Req.Op, p.Req.Rest = []byte("a"), [][]byte{[]byte("bc")}
			p.Auth = ks.NodeRing(2).AuthenticatorForNodes(4, p.Body())
			f.Add(req.Marshal(nil), p.Marshal(nil))
			p.Auth = ks.NodeRing(2).AuthenticatorForNodes(4, p.AppendBody(nil, d))
			f.Add(req.Marshal(nil), p.Marshal(nil))
		}
	}

	// Few entries, so that the frames of one input also evict each other's.
	pre := NewPreverifier(ks.NodeRing(0), 0, types.NewConfig(1), newVerifyCache(4))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		check := func(v *Verified, err error) {
			if (v == nil) == (err == nil) {
				t.Fatalf("got verified=%v error=%v; want exactly one", v, err)
			}
			if err != nil {
				if k := failKindOf(err); k < FailMalformed || k > FailBadSig {
					t.Fatalf("unclassified preverify error %v", err)
				}
				return
			}
			req, ok := v.Msg.(*Request)
			if p, isProp := v.Msg.(*Propagate); isProp {
				req, ok = &p.Req, true
			}
			if !ok {
				return
			}
			d, ops := req.Digests()
			same := d == v.Digest && slices.Equal(ops, v.OpDigests)
			if v.unchecked {
				if v.OpsMatch() != same {
					t.Fatalf("unchecked %s: OpsMatch %v, its bytes hash to the digests it carries: %v", v.Msg.MsgType(), !same, same)
				}
			} else if !same {
				t.Fatalf("accepted %s carries digests %x %x, its bytes hash to %x %x", v.Msg.MsgType(), v.Digest, v.OpDigests, d, ops)
			}
		}
		for _, data := range [][]byte{first, second} {
			check(pre.PreverifyClientFrame(data, 1))
			check(pre.PreverifyNodeFrame(data, 2))
		}
	})
}
