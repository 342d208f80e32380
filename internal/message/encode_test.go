package message

import (
	"bytes"
	"testing"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// sampleMessages returns one populated representative of every wire type,
// with realistic authentication material sizes (f=1 cluster: 4-entry
// authenticators).
func sampleMessages() []Message {
	auth := make(crypto.Authenticator, 4*crypto.MACSize)
	for i := 0; i < auth.Entries(); i++ {
		copy(auth.Entry(i), []byte{byte(i), 0xaa})
	}
	refs := []types.RequestRef{
		{Client: 1, ID: 2, Digest: types.Digest{1}},
		{Client: 3, ID: 4, Digest: types.Digest{2}},
	}
	sig := bytes.Repeat([]byte{0x5c}, crypto.SignatureSize)
	vc := ViewChange{
		Instance: 0, NewView: 2, StableSeq: 128, Node: 1, Sig: sig,
		Prepared: []PreparedProof{{Seq: 129, View: 1, Digest: types.Digest{9}, Batch: refs}},
	}
	return []Message{
		&Request{Client: 1, ID: 2, Op: []byte("op"), Sig: sig, Auth: auth},
		&Propagate{Req: Request{Client: 1, ID: 2, Op: []byte("op"), Sig: sig}, Node: 3, Auth: auth},
		&PrePrepare{Instance: 0, View: 1, Seq: 2, Batch: refs, Node: 0, Auth: auth},
		&Prepare{Instance: 1, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 1, Auth: auth},
		&Commit{Instance: 0, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 2, Auth: auth},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Node: 0, MAC: crypto.MAC{1}},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Rest: [][]byte{[]byte("r3"), {}}, Node: 0, MAC: crypto.MAC{1}},
		&InstanceChange{CPI: 7, Node: 3, Auth: auth},
		&vc,
		&NewView{Instance: 0, View: 2, ViewChanges: []ViewChange{vc}, PrePrepares: []PrePrepare{{Instance: 0, View: 2, Seq: 2, Batch: refs, Node: 1, Auth: auth}}, Node: 1, Auth: auth},
		&Checkpoint{Instance: 0, Seq: 128, Digest: types.Digest{3}, Node: 0, Auth: auth},
		&Invalid{Node: 1, Padding: []byte("xxxx")},
		&Fetch{Instance: 0, FromSeq: 1, ToSeq: 3, Node: 2, Auth: auth},
		&FetchResp{Instance: 0, Seq: 2, View: 1, Batch: refs, Node: 0, Auth: auth},
	}
}

// TestEncodedSizeExact pins the size hint contract: EncodedSize must equal
// the exact marshaled length for every message type, because the simulator's
// wire-size model and the pooled encode path both rely on it.
func TestEncodedSizeExact(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := m.Marshal(nil)
		if got, want := m.EncodedSize(), len(enc); got != want {
			t.Errorf("%s: EncodedSize %d, marshaled length %d", m.MsgType(), got, want)
		}
	}
}

// TestMarshalAppendsInPlace verifies Marshal with a pre-sized destination
// produces the same bytes as a fresh marshal and does not grow the slice.
func TestMarshalAppendsInPlace(t *testing.T) {
	for _, m := range sampleMessages() {
		want := m.Marshal(nil)
		dst := make([]byte, 0, m.EncodedSize())
		got := m.Marshal(dst)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: in-place marshal differs from fresh marshal", m.MsgType())
		}
		if &got[0] != &dst[:1][0] {
			t.Errorf("%s: marshal into sufficient capacity reallocated", m.MsgType())
		}
	}
}

// TestEncodeRoundTrip checks the pooled encode path produces decodable
// frames and reuses buffers across Encode/Release cycles.
func TestEncodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := Encode(m)
		if !bytes.Equal(buf.Bytes(), m.Marshal(nil)) {
			t.Errorf("%s: pooled encode differs from Marshal", m.MsgType())
		}
		if buf.Len() != m.EncodedSize() {
			t.Errorf("%s: pooled encode length %d, want %d", m.MsgType(), buf.Len(), m.EncodedSize())
		}
		if _, err := Decode(buf.Bytes()); err != nil {
			t.Errorf("%s: decoding pooled encode: %v", m.MsgType(), err)
		}
		buf.Release()
	}
}

// TestEncodeZeroAlloc is the allocation-regression gate for the steady-state
// encode path: once the pool is warm, encoding a hot-path message must not
// allocate at all. This is the property that keeps the egress pipeline off
// the garbage collector's back under load.
func TestEncodeZeroAlloc(t *testing.T) {
	auth := make(crypto.Authenticator, 4*crypto.MACSize)
	hot := []Message{
		&Prepare{Instance: 1, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 1, Auth: auth},
		&Commit{Instance: 0, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 2, Auth: auth},
		&PrePrepare{Instance: 0, View: 1, Seq: 2, Node: 0, Auth: auth,
			Batch: []types.RequestRef{{Client: 1, ID: 2}, {Client: 3, ID: 4}}},
		&Propagate{Req: Request{Client: 1, ID: 2, Op: bytes.Repeat([]byte{0x42}, 64),
			Sig: make([]byte, crypto.SignatureSize)}, Node: 3, Auth: auth},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Node: 0},
		&Reply{Client: 1, ID: 2, Result: []byte("r"), Rest: [][]byte{[]byte("r3"), []byte("r4")}, Node: 0},
		&Checkpoint{Instance: 0, Seq: 128, Node: 0, Auth: auth},
	}
	for _, m := range hot {
		// Warm the pool so the buffer reaches its high-water capacity.
		for i := 0; i < 8; i++ {
			Encode(m).Release()
		}
		allocs := testing.AllocsPerRun(200, func() {
			buf := Encode(m)
			buf.Release()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Encode allocates %.1f allocs/op, want 0", m.MsgType(), allocs)
		}
	}
}

// BenchmarkMarshal measures the raw append-in-place encode of the hot
// ordering messages (the per-message cost the egress path pays before
// framing). Run with -benchmem: steady-state it must report 0 allocs/op.
func BenchmarkMarshal(b *testing.B) {
	auth := make(crypto.Authenticator, 4*crypto.MACSize)
	msgs := map[string]Message{
		"prepare": &Prepare{Instance: 1, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 1, Auth: auth},
		"preprepare-64refs": &PrePrepare{Instance: 0, View: 1, Seq: 2, Node: 0, Auth: auth,
			Batch: make([]types.RequestRef, 64)},
		"propagate-64B": &Propagate{Req: Request{Client: 1, ID: 2, Op: make([]byte, 64),
			Sig: make([]byte, crypto.SignatureSize)}, Node: 3, Auth: auth},
	}
	for name, m := range msgs {
		b.Run(name, func(b *testing.B) {
			dst := make([]byte, 0, m.EncodedSize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.Marshal(dst[:0])
			}
		})
	}
}

// BenchmarkEncode measures the pooled encode path (Encode + Release), the
// exact sequence the runtime egress uses per outbound message.
func BenchmarkEncode(b *testing.B) {
	auth := make(crypto.Authenticator, 4*crypto.MACSize)
	m := &Prepare{Instance: 1, View: 1, Seq: 2, Digest: types.Digest{7}, Node: 1, Auth: auth}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m).Release()
	}
}
