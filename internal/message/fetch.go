package message

import (
	"rbft/internal/crypto"
	"rbft/internal/types"
)

// Fetch and FetchResp extend the wire vocabulary with a catch-up protocol:
// a replica that observes checkpoint evidence of committed sequence numbers
// it never delivered (lost datagrams, a flood-closed NIC interval) asks its
// peers for the missing batches. Responses are accepted once f+1 distinct
// peers return identical content — at least one of them is correct, and a
// correct node only serves batches it delivered.
const (
	// TypeFetch requests delivered batches in a sequence range.
	TypeFetch Type = 32
	// TypeFetchResp carries one delivered batch.
	TypeFetchResp Type = 33
)

// Fetch asks peers for the delivered batches in (FromSeq, ToSeq].
type Fetch struct {
	Instance types.InstanceID
	FromSeq  types.SeqNum // exclusive
	ToSeq    types.SeqNum // inclusive
	Node     types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *Fetch) MsgType() Type { return TypeFetch }

// fetchBodySize is the fixed body length of FETCH.
const fetchBodySize = 1 + 8*4

// AppendBody appends what the MAC authenticator covers: every field but it.
func (m *Fetch) AppendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeFetch))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.FromSeq))
	b = appendU64(b, uint64(m.ToSeq))
	return appendU64(b, uint64(m.Node))
}

// Body implements Message.
func (m *Fetch) Body() []byte { return m.AppendBody(make([]byte, 0, fetchBodySize)) }

// EncodedSize implements Message.
func (m *Fetch) EncodedSize() int { return fetchBodySize + authSize(m.Auth) }

// Marshal implements Message.
func (m *Fetch) Marshal(dst []byte) []byte {
	return appendAuth(m.AppendBody(dst), m.Auth)
}

// FetchResp returns one delivered batch and the view its sender delivered it
// in: the two fix the batch's PRE-PREPARE digest, which the requester chains
// into its log digest exactly as its peers did.
type FetchResp struct {
	Instance types.InstanceID
	Seq      types.SeqNum
	View     types.View
	Batch    []types.RequestRef
	Node     types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *FetchResp) MsgType() Type { return TypeFetchResp }

func (m *FetchResp) bodySize() int { return 1 + 8*4 + refsSize(m.Batch) }

func (m *FetchResp) appendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeFetchResp))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.Seq))
	b = appendU64(b, uint64(m.View))
	b = appendU64(b, uint64(m.Node))
	return appendRefs(b, m.Batch)
}

// Body implements Message.
func (m *FetchResp) Body() []byte { return m.appendBody(make([]byte, 0, m.bodySize())) }

// EncodedSize implements Message.
func (m *FetchResp) EncodedSize() int { return m.bodySize() + authSize(m.Auth) }

// Marshal implements Message.
func (m *FetchResp) Marshal(dst []byte) []byte {
	return appendAuth(m.appendBody(dst), m.Auth)
}

func decodeFetch(r *reader) *Fetch {
	f := &Fetch{
		Instance: types.InstanceID(r.u64()),
		FromSeq:  types.SeqNum(r.u64()),
		ToSeq:    types.SeqNum(r.u64()),
		Node:     types.NodeID(r.u64()),
	}
	f.Auth = r.auth()
	return f
}

func decodeFetchResp(r *reader) *FetchResp {
	f := &FetchResp{
		Instance: types.InstanceID(r.u64()),
		Seq:      types.SeqNum(r.u64()),
		View:     types.View(r.u64()),
		Node:     types.NodeID(r.u64()),
	}
	f.Batch = r.refs()
	f.Auth = r.auth()
	return f
}
