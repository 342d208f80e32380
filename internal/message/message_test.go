package message

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

func sampleAuth(n int, seed byte) crypto.Authenticator {
	a := make(crypto.Authenticator, n*crypto.MACSize)
	for i := 0; i < n; i++ {
		for j := range a.Entry(i) {
			a.Entry(i)[j] = seed + byte(i*7+j)
		}
	}
	return a
}

func sampleRefs(n int) []types.RequestRef {
	refs := make([]types.RequestRef, n)
	for i := range refs {
		refs[i] = types.RequestRef{
			Client: types.ClientID(i),
			ID:     types.RequestID(100 + i),
			Digest: types.Digest{byte(i), 0xfe},
		}
	}
	return refs
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	wire := m.Marshal(nil)
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.MsgType(), err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch for %s:\n sent %#v\n got  %#v", m.MsgType(), m, got)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	req := &Request{Client: 3, ID: 9, Op: []byte("put k v"), Sig: bytes.Repeat([]byte{7}, 64), Auth: sampleAuth(4, 1)}
	msgs := []Message{
		req,
		&Propagate{Req: Request{Client: 3, ID: 9, Op: []byte("put k v"), Sig: bytes.Repeat([]byte{7}, 64)}, Node: 2, Auth: sampleAuth(4, 2)},
		&PrePrepare{Instance: 1, View: 7, Seq: 42, Batch: sampleRefs(3), Node: 0, Auth: sampleAuth(4, 3)},
		&Prepare{Instance: 1, View: 7, Seq: 42, Digest: types.Digest{9}, Node: 3, Auth: sampleAuth(4, 4)},
		&Commit{Instance: 0, View: 7, Seq: 42, Digest: types.Digest{9}, Node: 1, Auth: sampleAuth(4, 5)},
		&Reply{Client: 3, ID: 9, Result: []byte("ok"), Node: 2, MAC: crypto.MAC{1, 2, 3}},
		&InstanceChange{CPI: 11, Node: 2, Auth: sampleAuth(4, 6)},
		&ViewChange{
			Instance:  1,
			NewView:   8,
			StableSeq: 40,
			Prepared: []PreparedProof{
				{Seq: 41, View: 7, Digest: types.Digest{4}, Batch: sampleRefs(2)},
				{Seq: 42, View: 6, Digest: types.Digest{5}, Batch: sampleRefs(1)},
			},
			Node: 3,
			Sig:  bytes.Repeat([]byte{9}, 64),
		},
		&Checkpoint{Instance: 1, Seq: 100, Digest: types.Digest{0xaa}, Node: 0, Auth: sampleAuth(4, 7)},
		&Invalid{Node: 3, Padding: bytes.Repeat([]byte{0xff}, 128)},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestRoundTripNewView(t *testing.T) {
	vc := ViewChange{
		Instance:  0,
		NewView:   3,
		StableSeq: 10,
		Prepared:  []PreparedProof{{Seq: 11, View: 2, Digest: types.Digest{1}, Batch: sampleRefs(1)}},
		Node:      1,
		Sig:       bytes.Repeat([]byte{5}, 64),
	}
	pp := PrePrepare{Instance: 0, View: 3, Seq: 11, Batch: sampleRefs(1), Node: 3, Auth: sampleAuth(4, 8)}
	nv := &NewView{
		Instance:    0,
		View:        3,
		ViewChanges: []ViewChange{vc, vc, vc},
		PrePrepares: []PrePrepare{pp},
		Node:        3,
		Auth:        sampleAuth(4, 9),
	}
	roundTrip(t, nv)
}

func TestRoundTripEmptySlices(t *testing.T) {
	// Empty batches and empty prepared sets are valid (e.g. a NEW-VIEW with
	// nothing to re-propose); make sure the codec preserves emptiness.
	pp := &PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{}, Node: 0, Auth: sampleAuth(4, 1)}
	got := roundTrip(t, pp).(*PrePrepare)
	if got.Batch == nil || len(got.Batch) != 0 {
		t.Errorf("empty batch decoded as %#v", got.Batch)
	}
	nv := &NewView{Instance: 0, View: 1, ViewChanges: []ViewChange{}, PrePrepares: []PrePrepare{}, Node: 1, Auth: sampleAuth(4, 2)}
	roundTrip(t, nv)
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{name: "empty", data: nil, want: ErrTruncated},
		{name: "unknown type", data: []byte{0xEE}, want: ErrUnknownType},
		{name: "truncated request", data: []byte{byte(TypeRequest), 0, 0}, want: ErrTruncated},
		{name: "oversized field", data: append([]byte{byte(TypeRequest), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2}, 0xff, 0xff, 0xff, 0xff), want: ErrOversized},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("Decode() error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	m := &Reply{Client: 1, ID: 2, Result: []byte("r"), Node: 0}
	wire := append(m.Marshal(nil), 0x00)
	if _, err := Decode(wire); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing bytes: got %v, want ErrTruncated", err)
	}
}

func TestBodyExcludesAuth(t *testing.T) {
	p := &Prepare{Instance: 1, View: 2, Seq: 3, Digest: types.Digest{7}, Node: 0, Auth: sampleAuth(4, 1)}
	body1 := p.Body()
	p.Auth = sampleAuth(4, 99)
	body2 := p.Body()
	if !bytes.Equal(body1, body2) {
		t.Fatal("Body() must not depend on the authenticator")
	}
	wire := p.Marshal(nil)
	if !bytes.HasPrefix(wire, body2) {
		t.Fatal("wire encoding of a fixed-shape message must begin with the body")
	}
}

// TestPrePrepareBodyBindsEveryField: the PRE-PREPARE body is type, node and
// BatchDigest — fixed size whatever the batch — and still moves with every
// field and not with the authenticator.
func TestPrePrepareBodyBindsEveryField(t *testing.T) {
	base := PrePrepare{Instance: 1, View: 2, Seq: 3, Batch: sampleRefs(2), Node: 0, Auth: sampleAuth(4, 1)}
	body := base.Body()
	if len(body) != prePrepareBodySize {
		t.Fatalf("body is %d bytes, want %d", len(body), prePrepareBodySize)
	}
	alt := base
	alt.Auth = sampleAuth(4, 99)
	if !bytes.Equal(alt.Body(), body) {
		t.Error("Body() must not depend on the authenticator")
	}
	for name, mutate := range map[string]func(*PrePrepare){
		"instance": func(m *PrePrepare) { m.Instance = 0 },
		"view":     func(m *PrePrepare) { m.View = 9 },
		"seq":      func(m *PrePrepare) { m.Seq = 9 },
		"node":     func(m *PrePrepare) { m.Node = 1 },
		"batch":    func(m *PrePrepare) { m.Batch = sampleRefs(3) },
	} {
		alt := base
		mutate(&alt)
		if bytes.Equal(alt.Body(), body) {
			t.Errorf("body must bind the %s", name)
		}
	}
}

func TestRequestSignedBodyExcludesSigAndAuth(t *testing.T) {
	r := &Request{Client: 1, ID: 2, Op: []byte("op"), Sig: []byte("sig1"), Auth: sampleAuth(4, 1)}
	b1 := r.AppendSignedBody(nil, r.OpDigest())
	r.Sig = []byte("sig2")
	r.Auth = sampleAuth(4, 2)
	b2 := r.AppendSignedBody(nil, r.OpDigest())
	if !bytes.Equal(b1, b2) {
		t.Fatal("SignedBody must cover only client-chosen fields")
	}
	// But Body (what the MAC covers) must include the signature.
	r.Sig = []byte("sig1")
	bodyA := r.Body()
	r.Sig = []byte("sigX")
	bodyB := r.Body()
	if bytes.Equal(bodyA, bodyB) {
		t.Fatal("Body must cover the signature")
	}
}

func TestOpDigestBindsOrigin(t *testing.T) {
	a := &Request{Client: 1, ID: 2, Op: []byte("op")}
	b := &Request{Client: 2, ID: 2, Op: []byte("op")}
	c := &Request{Client: 1, ID: 3, Op: []byte("op")}
	if a.OpDigest() == b.OpDigest() || a.OpDigest() == c.OpDigest() {
		t.Fatal("request digest must bind client and request id")
	}
	if a.OpDigest() != (&Request{Client: 1, ID: 2, Op: []byte("op")}).OpDigest() {
		t.Fatal("request digest must be a function of client, id and op alone")
	}
}

func TestBatchDigestBindsContext(t *testing.T) {
	base := PrePrepare{Instance: 0, View: 1, Seq: 2, Batch: sampleRefs(2)}
	d := base.BatchDigest()
	alt := base
	alt.View = 9
	if alt.BatchDigest() == d {
		t.Error("batch digest must bind the view")
	}
	alt = base
	alt.Seq = 9
	if alt.BatchDigest() == d {
		t.Error("batch digest must bind the sequence number")
	}
	alt = base
	alt.Instance = 1
	if alt.BatchDigest() == d {
		t.Error("batch digest must bind the instance")
	}
	alt = base
	alt.Batch = sampleRefs(1)
	if alt.BatchDigest() == d {
		t.Error("batch digest must bind the batch contents")
	}
}

func TestTypeString(t *testing.T) {
	if TypePrePrepare.String() != "PRE-PREPARE" {
		t.Errorf("TypePrePrepare.String() = %q", TypePrePrepare.String())
	}
	if Type(200).String() != "UNKNOWN" {
		t.Errorf("unknown type renders %q", Type(200).String())
	}
}

// randomRequest builds a structurally valid random request for the property
// test.
func randomRequest(r *rand.Rand) *Request {
	op := make([]byte, r.Intn(256))
	r.Read(op)
	sig := make([]byte, 64)
	r.Read(sig)
	return &Request{
		Client: types.ClientID(r.Intn(1000)),
		ID:     types.RequestID(r.Uint64()),
		Op:     op,
		Sig:    sig,
		Auth:   sampleAuth(4, byte(r.Intn(256))),
	}
}

// TestCodecRoundTripProperty fuzzes structured random messages through the
// codec.
func TestCodecRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m Message
		switch r.Intn(5) {
		case 0:
			m = randomRequest(r)
		case 1:
			m = &PrePrepare{
				Instance: types.InstanceID(r.Intn(3)),
				View:     types.View(r.Uint64()),
				Seq:      types.SeqNum(r.Uint64()),
				Batch:    sampleRefs(r.Intn(10)),
				Node:     types.NodeID(r.Intn(4)),
				Auth:     sampleAuth(4, byte(r.Intn(256))),
			}
		case 2:
			m = &Commit{
				Instance: types.InstanceID(r.Intn(3)),
				View:     types.View(r.Uint64()),
				Seq:      types.SeqNum(r.Uint64()),
				Digest:   types.Digest{byte(r.Intn(256))},
				Node:     types.NodeID(r.Intn(4)),
				Auth:     sampleAuth(4, byte(r.Intn(256))),
			}
		case 3:
			m = &InstanceChange{CPI: r.Uint64(), Node: types.NodeID(r.Intn(4)), Auth: sampleAuth(4, byte(r.Intn(256)))}
		default:
			res := make([]byte, r.Intn(64))
			r.Read(res)
			m = &Reply{Client: types.ClientID(r.Intn(100)), ID: types.RequestID(r.Uint64()), Result: res, Node: types.NodeID(r.Intn(4))}
		}
		wire := m.Marshal(nil)
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics feeds random garbage at the decoder.
func TestDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(300))
		r.Read(buf)
		// Bias the first byte toward valid types so decoding goes deeper.
		if len(buf) > 0 && i%2 == 0 {
			buf[0] = byte(r.Intn(int(TypeInvalid)) + 1)
		}
		_, _ = Decode(buf) // must not panic
	}
}
