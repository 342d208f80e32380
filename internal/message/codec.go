package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// Codec errors.
var (
	ErrTruncated   = errors.New("message: truncated encoding")
	ErrUnknownType = errors.New("message: unknown message type")
	ErrOversized   = errors.New("message: length field exceeds limits")
)

// maxFieldLen bounds variable-length fields so a malformed length prefix
// cannot trigger a huge allocation.
const maxFieldLen = 16 << 20

func putU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// Append-style encoding helpers. Each appends its encoding to b and returns
// the result; with sufficient capacity in b none of them allocates, which is
// what makes the EncodedSize-hinted Marshal path zero-allocation.

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendDigest(b []byte, d types.Digest) []byte { return append(b, d[:]...) }

// refSize is the encoded length of one types.RequestRef.
const refSize = 8 + 8 + types.DigestSize

// refsSize is the encoded length of a request-reference list.
func refsSize(refs []types.RequestRef) int { return 4 + len(refs)*refSize }

func appendRef(b []byte, ref types.RequestRef) []byte {
	b = appendU64(b, uint64(ref.Client))
	b = appendU64(b, uint64(ref.ID))
	return appendDigest(b, ref.Digest)
}

func appendRefs(b []byte, refs []types.RequestRef) []byte {
	b = appendU32(b, uint32(len(refs)))
	for i := range refs {
		b = appendRef(b, refs[i])
	}
	return b
}

// authSize is the encoded length of a MAC authenticator: its entry count,
// then its bytes as they are.
func authSize(a crypto.Authenticator) int { return 4 + len(a) }

func appendAuth(b []byte, a crypto.Authenticator) []byte {
	return append(appendU32(b, uint32(a.Entries())), a...)
}

// reader decodes from a byte slice, latching the first error.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

var zeros [8]byte

// word is take for a fixed-size field of n ≤ 8 bytes: zeros once r failed.
func (r *reader) word(n int) []byte {
	if p := r.take(n); p != nil {
		return p
	}
	return zeros[:n]
}

func (r *reader) u8() uint8 { return r.word(1)[0] }

func (r *reader) u32() uint32 { return binary.BigEndian.Uint32(r.word(4)) }

func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.word(8)) }

func (r *reader) bytes() []byte {
	n := r.u32()
	if n > maxFieldLen {
		r.fail(ErrOversized)
		return nil
	}
	// The field aliases the frame (capacity clipped, so an append by a holder
	// cannot reach the neighbouring bytes): whoever retains a decoded message
	// retains its frame. Present-but-empty fields decode to an empty (non-nil)
	// slice so encode/decode round trips preserve shape.
	p := r.take(int(n))
	return p[:len(p):len(p)]
}

func (r *reader) digest() (d types.Digest) {
	copy(d[:], r.take(types.DigestSize)) // nothing to copy when truncated
	return d
}

func (r *reader) refs() []types.RequestRef {
	n := r.u32()
	if n > maxFieldLen/types.DigestSize {
		r.fail(ErrOversized)
		return nil
	}
	refs := make([]types.RequestRef, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		ref := types.RequestRef{
			Client: types.ClientID(r.u64()),
			ID:     types.RequestID(r.u64()),
			Digest: r.digest(),
		}
		refs = append(refs, ref)
	}
	return refs
}

func (r *reader) auth() crypto.Authenticator {
	n := r.u32()
	if n > maxFieldLen/crypto.MACSize {
		r.fail(ErrOversized)
		return nil
	}
	// Aliases the frame like bytes: a receiver reads one entry of it, so a
	// copy would be N MACs moved for nothing.
	p := r.take(int(n) * crypto.MACSize)
	return p[:len(p):len(p)]
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r.b)-r.off)
	}
	return nil
}

// Decode parses a full wire encoding back into a Message. Variable-length
// fields of the result (Op, Rest, Sig, Result, Padding, Auth) alias data, which
// Decode never writes to and the caller must own and leave unmodified while
// the message is in use — what every transport guarantees for Packet.Data.
func Decode(data []byte) (Message, error) {
	r := &reader{b: data}
	t := Type(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	var m Message
	//rbft:dispatch
	switch t {
	case TypeRequest, TypeReadRequest:
		req := decodeRequest(r, t)
		req.Auth = r.auth()
		m = &req
	case TypePropagate:
		m = decodePropagate(r)
	case TypePrePrepare:
		m = decodePrePrepare(r)
	case TypePrepare:
		p := &Prepare{}
		p.Instance, p.View, p.Seq, p.Digest, p.Node = decodePhase(r)
		p.Auth = r.auth()
		m = p
	case TypeCommit:
		c := &Commit{}
		c.Instance, c.View, c.Seq, c.Digest, c.Node = decodePhase(r)
		c.Auth = r.auth()
		m = c
	case TypeReply:
		m = decodeReply(r)
	case TypeInstanceChange:
		ic := &InstanceChange{CPI: r.u64(), Node: types.NodeID(r.u64())}
		ic.Auth = r.auth()
		m = ic
	case TypeViewChange:
		m = decodeViewChange(r)
	case TypeNewView:
		m = decodeNewView(r)
	case TypeCheckpoint:
		cp := &Checkpoint{
			Instance: types.InstanceID(r.u64()),
			Seq:      types.SeqNum(r.u64()),
			Digest:   r.digest(),
			Node:     types.NodeID(r.u64()),
		}
		cp.Auth = r.auth()
		m = cp
	case TypeInvalid:
		iv := &Invalid{Node: types.NodeID(r.u64()), Padding: r.bytes()}
		m = iv
	case TypeFetch:
		m = decodeFetch(r)
	case TypeFetchResp:
		m = decodeFetchResp(r)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeRequest reads the fields of a request whose wire tag t was just read,
// up to its signature: its count and operations.
func decodeRequest(r *reader, t Type) Request {
	req := Request{Client: types.ClientID(r.u64()), ID: types.RequestID(r.u64()), ReadOnly: t == TypeReadRequest}
	req.Op, req.Rest = decodeList(r, "request")
	if req.ReadOnly && len(req.Rest) > 0 {
		r.fail(fmt.Errorf("%w: read-only bundle", ErrOversized))
	}
	req.Sig = r.bytes()
	return req
}

// decodeList reads a count of 1 … MaxBundleOps and as many length-prefixed
// fields: the first, and the rest (nil for a count of one).
func decodeList(r *reader, what string) (first []byte, rest [][]byte) {
	k := r.u32()
	if k < 1 || k > MaxBundleOps {
		r.fail(fmt.Errorf("%w: %s of %d", ErrOversized, what, k))
		return nil, nil
	}
	first = r.bytes()
	if k > 1 {
		rest = make([][]byte, k-1)
		for i := range rest {
			rest[i] = r.bytes()
		}
	}
	return first, rest
}

func decodePropagate(r *reader) *Propagate {
	p := &Propagate{Node: types.NodeID(r.u64())}
	inner := r.bytes()
	if r.err == nil {
		ir := &reader{b: inner}
		// Only ordinary requests may be propagated: read-only requests
		// (TypeReadRequest) never enter ordering, so an inner read tag is
		// rejected as malformed.
		if t := Type(ir.u8()); t != TypeRequest {
			r.fail(fmt.Errorf("%w: propagate inner type %d", ErrUnknownType, t))
			return p
		}
		p.Req = decodeRequest(ir, TypeRequest)
		if err := ir.done(); err != nil {
			r.fail(err)
		}
	}
	p.Auth = r.auth()
	return p
}

func decodePrePrepare(r *reader) *PrePrepare {
	pp := &PrePrepare{
		Instance: types.InstanceID(r.u64()),
		View:     types.View(r.u64()),
		Seq:      types.SeqNum(r.u64()),
		Node:     types.NodeID(r.u64()),
	}
	pp.Batch = r.refs()
	pp.Auth = r.auth()
	return pp
}

func decodePhase(r *reader) (types.InstanceID, types.View, types.SeqNum, types.Digest, types.NodeID) {
	return types.InstanceID(r.u64()), types.View(r.u64()), types.SeqNum(r.u64()), r.digest(), types.NodeID(r.u64())
}

// decodeReply reads a reply whose wire tag was just read.
func decodeReply(r *reader) *Reply {
	rep := &Reply{
		Client: types.ClientID(r.u64()),
		ID:     types.RequestID(r.u64()),
		Node:   types.NodeID(r.u64()),
	}
	rep.Result, rep.Rest = decodeList(r, "reply")
	copy(rep.MAC[:], r.take(crypto.MACSize)) // nothing to copy when truncated
	return rep
}

func decodeViewChange(r *reader) *ViewChange {
	vc := &ViewChange{
		Instance:  types.InstanceID(r.u64()),
		NewView:   types.View(r.u64()),
		StableSeq: types.SeqNum(r.u64()),
		Node:      types.NodeID(r.u64()),
	}
	n := r.u32()
	if n > maxFieldLen/types.DigestSize {
		r.fail(ErrOversized)
		return vc
	}
	vc.Prepared = make([]PreparedProof, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		p := PreparedProof{
			Seq:    types.SeqNum(r.u64()),
			View:   types.View(r.u64()),
			Digest: r.digest(),
		}
		p.Batch = r.refs()
		vc.Prepared = append(vc.Prepared, p)
	}
	vc.Sig = r.bytes()
	return vc
}

func decodeNewView(r *reader) *NewView {
	nv := &NewView{
		Instance: types.InstanceID(r.u64()),
		View:     types.View(r.u64()),
		Node:     types.NodeID(r.u64()),
	}
	nv.ViewChanges = decodeEmbedded[ViewChange](r)
	nv.PrePrepares = decodeEmbedded[PrePrepare](r)
	nv.Auth = r.auth()
	return nv
}

// decodeEmbedded reads a NEW-VIEW's count of embedded messages of type T, at
// most 1<<16, and each of them, a frame of its own.
func decodeEmbedded[T any, P interface {
	*T
	Message
}](r *reader) []T {
	n := r.u32()
	if n > 1<<16 {
		r.fail(ErrOversized)
		return nil
	}
	out := make([]T, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		sub, err := Decode(r.bytes()) // nil, so ErrTruncated, when r failed
		m, ok := sub.(P)
		if err == nil && !ok {
			err = fmt.Errorf("%w: new-view embeds %T", ErrUnknownType, sub)
		}
		if err != nil {
			r.fail(err)
			return out
		}
		out = append(out, *m)
	}
	return out
}
