// Package message defines every RBFT wire message and its binary encoding.
//
// Each message type carries its own authentication material (a signature, a
// single MAC, or a MAC authenticator with one entry per node). Authentication
// always covers the message body, which the Body method exposes so senders
// can authenticate and receivers can verify without re-implementing the
// codec: the encoding of every field except the authentication material,
// with a variable-length payload entering only through a digest that binds
// it (a REQUEST through OpDigest, a bundle of requests through BundleDigest,
// a PRE-PREPARE through BatchDigest). A signature or MAC thus costs the same
// whatever the payload size, and a node hashes a request's payload once,
// whichever of its copies arrives first (docs/PIPELINE.md has the bytes).
//
// Encoding is allocation-disciplined: every message knows its exact encoded
// length (EncodedSize) and Marshal appends in place, so marshalling into a
// buffer with sufficient capacity performs zero allocations. The egress hot
// path relies on this via the pooled buffers in encode.go.
package message

import (
	"unsafe"

	"rbft/internal/crypto"
	"rbft/internal/types"
)

// Type discriminates wire messages.
type Type uint8

// Wire message types.
const (
	TypeRequest Type = iota + 1
	TypePropagate
	TypePrePrepare
	TypePrepare
	TypeCommit
	TypeReply
	TypeInstanceChange
	TypeViewChange
	TypeNewView
	TypeCheckpoint
	TypeInvalid // deliberately malformed traffic used by flooding attackers
)

// TypeReadRequest is the wire tag of a read-only request (docs/CLIENTS.md):
// the same Request structure, flagged for the speculative read fast path.
// The tag is part of the signed body, so a read-only flag cannot be added or
// stripped without invalidating the client signature.
const TypeReadRequest Type = 12

// MaxBundleOps caps a bundle's operations, and a reply bundle's results. A
// node rejects a bundle past it as malformed, so one frame — one admission
// slot, one signature check — never creates more than MaxBundleOps request
// records or reply results. A bundle's bytes are bounded by the frame that
// carries it: the client packs a bundle only while the PROPAGATE a node will
// build from it fits its transport's frame (PropagateSize, client.Flush).
const MaxBundleOps = 32

var typeNames = map[Type]string{
	TypeRequest:        "REQUEST",
	TypeReadRequest:    "READ-REQUEST",
	TypePropagate:      "PROPAGATE",
	TypePrePrepare:     "PRE-PREPARE",
	TypePrepare:        "PREPARE",
	TypeCommit:         "COMMIT",
	TypeReply:          "REPLY",
	TypeInstanceChange: "INSTANCE-CHANGE",
	TypeViewChange:     "VIEW-CHANGE",
	TypeNewView:        "NEW-VIEW",
	TypeCheckpoint:     "CHECKPOINT",
	TypeInvalid:        "INVALID",
	TypeFetch:          "FETCH",
	TypeFetchResp:      "FETCH-RESP",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "UNKNOWN"
}

// Message is implemented by every wire message.
type Message interface {
	// MsgType returns the wire type tag.
	MsgType() Type
	// Marshal appends the full wire encoding (type tag, body,
	// authentication material) to dst and returns the result.
	Marshal(dst []byte) []byte
	// Body returns the bytes the authentication material covers: type tag
	// and every other field, variable-length payloads by digest.
	Body() []byte
	// EncodedSize returns the exact length Marshal will append: the size
	// hint that lets callers marshal without growing the destination.
	EncodedSize() int
}

// Request is the client's signed bundle of requests: operation o, request id
// rid, client id c — and, with Rest, the operations of the ids that follow —
// signed with the client's key and wrapped in a MAC authenticator for all
// nodes. A single request is a bundle of one.
type Request struct {
	Client types.ClientID
	ID     types.RequestID
	Op     []byte
	// Rest holds the operations of requests ID+1 … ID+len(Rest), in id order,
	// which share Sig and Auth with request ID. Each is still a request of its
	// own — ordered, executed and answered under its own id. Empty for a
	// single request; a read-only request is never bundled.
	Rest [][]byte
	// ReadOnly flags the request for the speculative read fast path: nodes
	// answer it from local state without ordering, and the client accepts
	// only on a 2f+1 read quorum of matching replies (docs/CLIENTS.md). The
	// flag is carried in the wire tag, inside the signed body.
	ReadOnly bool

	Sig  []byte
	Auth crypto.Authenticator
}

// tag returns the wire tag, which encodes the read-only flag.
func (m *Request) tag() Type {
	if m.ReadOnly {
		return TypeReadRequest
	}
	return TypeRequest
}

// MsgType implements Message.
func (m *Request) MsgType() Type { return m.tag() }

// Len returns the number of requests m carries: 1, or k for a bundle of k.
func (m *Request) Len() int { return 1 + len(m.Rest) }

// OpAt returns the operation of request ID+i, for 0 ≤ i < Len().
func (m *Request) OpAt(i int) []byte {
	if i == 0 {
		return m.Op
	}
	return m.Rest[i-1]
}

// OpDigest hashes the request operation together with its origin, binding the
// digest to the (client, id) pair: SHA-256(client‖id‖op), streamed. Never
// cached on the Request — a caller that needs it twice keeps the value — so
// it cannot go stale when Op is mutated. For a bundle it is request ID's.
func (m *Request) OpDigest() types.Digest { return opDigest(m.Client, m.ID, m.Op) }

func opDigest(c types.ClientID, id types.RequestID, op []byte) types.Digest {
	var hdr [16]byte
	putU64(hdr[0:], uint64(c))
	putU64(hdr[8:], uint64(id))
	h := crypto.NewHasher()
	h.WriteLocal(hdr[:])
	h.Write(op)
	return h.Sum()
}

// Digests returns what the client signs for m — a single request's OpDigest,
// a bundle's BundleDigest — and, for a bundle, the OpDigest of each of its
// requests in id order (nil for a single request). One pass over the
// operations, like OpDigest.
func (m *Request) Digests() (signed types.Digest, ops []types.Digest) {
	if len(m.Rest) == 0 {
		return m.OpDigest(), nil
	}
	ops = make([]types.Digest, m.Len())
	for i := range ops {
		ops[i] = opDigest(m.Client, m.ID+types.RequestID(i), m.OpAt(i))
	}
	return BundleDigest(ops), ops
}

// hashesTo reports whether what the client signs for m is d, hashing m's
// operations once as Digests does, without keeping their OpDigests.
func (m *Request) hashesTo(d types.Digest) bool {
	if len(m.Rest) == 0 {
		return m.OpDigest() == d
	}
	h := crypto.NewHasher()
	for i := 0; i < m.Len(); i++ {
		od := opDigest(m.Client, m.ID+types.RequestID(i), m.OpAt(i))
		h.WriteLocal(od[:])
	}
	return h.Sum() == d
}

// BundleDigest is what a client signs for a bundle whose requests have the
// OpDigests ds: SHA-256(d₁‖…‖d_k). Each dᵢ binds client, id and operation, so
// the one digest binds every request of the bundle, their order and number.
func BundleDigest(ds []types.Digest) types.Digest {
	h := crypto.NewHasher()
	for i := range ds {
		h.WriteLocal(ds[i][:])
	}
	return h.Sum()
}

// signedBodySize is the length of what a client signs; MaxBodySize that of
// the largest well-formed REQUEST or PROPAGATE body, which also bounds every
// fixed-size body (PRE-PREPARE, PREPARE, COMMIT, CHECKPOINT, FETCH,
// INSTANCE-CHANGE) and every REPLY body, for callers that append one into a
// stack buffer.
const (
	signedBodySize = 1 + types.DigestSize
	MaxBodySize    = 1 + 8 + signedBodySize + crypto.SignatureSize
)

// AppendSignedBody appends what the client signature covers: the wire tag
// (which carries the read-only flag) and d, the signed digest Digests
// returns.
func (m *Request) AppendSignedBody(b []byte, d types.Digest) []byte {
	return appendDigest(appendU8(b, uint8(m.tag())), d)
}

// AppendBody appends what the MAC authenticator covers: the signed body (d is
// the signed digest) plus the signature, so a tampered signature is caught at
// MAC cost. A bundle's body is as long as a single request's.
func (m *Request) AppendBody(b []byte, d types.Digest) []byte {
	return append(m.AppendSignedBody(b, d), m.Sig...)
}

// Body implements Message.
func (m *Request) Body() []byte {
	d, _ := m.Digests()
	return m.AppendBody(make([]byte, 0, MaxBodySize), d)
}

// wireSize is the length of the request's wire fields (no authenticator).
func (m *Request) wireSize() int {
	n := 0
	for i := 0; i < m.Len(); i++ {
		n += len(m.OpAt(i))
	}
	return requestWireSize(m.Len(), n, len(m.Sig))
}

// requestWireSize is wireSize for k operations of opBytes in all, signed by a
// signature of sigLen bytes.
func requestWireSize(k, opBytes, sigLen int) int { return 1 + 8 + 8 + 4 + 4*k + opBytes + 4 + sigLen }

func (m *Request) appendWire(b []byte) []byte {
	b = appendU8(b, uint8(m.tag()))
	b = appendU64(b, uint64(m.Client))
	b = appendU32(appendU64(b, uint64(m.ID)), uint32(m.Len()))
	for i := 0; i < m.Len(); i++ {
		b = appendBytes(b, m.OpAt(i))
	}
	return appendBytes(b, m.Sig)
}

// EncodedSize implements Message.
func (m *Request) EncodedSize() int { return m.wireSize() + authSize(m.Auth) }

// Marshal implements Message.
func (m *Request) Marshal(dst []byte) []byte { return appendAuth(m.appendWire(dst), m.Auth) }

// Propagate is a node's forwarding of a verified client request — or a whole
// bundle — to all other nodes, authenticated with a MAC authenticator.
type Propagate struct {
	Req  Request // embedded request or bundle (with its client signature, no client auth)
	Node types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *Propagate) MsgType() Type { return TypePropagate }

// AppendBody appends what the MAC authenticator covers: type, forwarding node
// and the embedded request's own body (d is its signed digest).
func (m *Propagate) AppendBody(b []byte, d types.Digest) []byte {
	b = appendU8(b, uint8(TypePropagate))
	b = appendU64(b, uint64(m.Node))
	return m.Req.AppendBody(b, d)
}

// Body implements Message.
func (m *Propagate) Body() []byte {
	d, _ := m.Req.Digests()
	return m.AppendBody(make([]byte, 0, MaxBodySize), d)
}

// EncodedSize implements Message.
func (m *Propagate) EncodedSize() int { return propagateSize(m.Req.wireSize(), len(m.Auth)) }

func propagateSize(reqWireSize, authLen int) int { return 1 + 8 + 4 + reqWireSize + 4 + authLen }

// PropagateSize returns the encoded size of the PROPAGATE a node of an n-node
// cluster builds from a signed request or bundle of k operations holding
// opBytes bytes in all: the frame a bundle has to fit.
func PropagateSize(k, opBytes, n int) int {
	return propagateSize(requestWireSize(k, opBytes, crypto.SignatureSize), n*crypto.MACSize)
}

// Marshal implements Message.
func (m *Propagate) Marshal(dst []byte) []byte {
	b := appendU8(dst, uint8(TypePropagate))
	b = appendU64(b, uint64(m.Node))
	b = appendU32(b, uint32(m.Req.wireSize()))
	return appendAuth(m.Req.appendWire(b), m.Auth)
}

// PrePrepare is the ordering proposal from an instance's primary. It assigns
// sequence number Seq in view View to a batch of request references.
type PrePrepare struct {
	Instance types.InstanceID
	View     types.View
	Seq      types.SeqNum
	Batch    []types.RequestRef
	Node     types.NodeID

	Auth crypto.Authenticator

	sum  batchKey     // what BatchDigest last hashed,
	sumD types.Digest // and what it got
}

// batchKey is what a BatchDigest is taken over: the header, and the Batch by
// identity. A message is not changed in place once built.
type batchKey struct {
	inst  types.InstanceID
	view  types.View
	seq   types.SeqNum
	batch *types.RequestRef
	n     int
}

// MsgType implements Message.
func (m *PrePrepare) MsgType() Type { return TypePrePrepare }

// BatchDigest hashes the batch contents, binding instance, view and sequence
// number (streamed: no concatenation buffer), once per header and Batch: the
// hash the MAC was checked against is the one a replica accepts under.
func (m *PrePrepare) BatchDigest() types.Digest {
	key := batchKey{m.Instance, m.View, m.Seq, unsafe.SliceData(m.Batch), len(m.Batch)}
	if key == m.sum && !m.sumD.IsZero() {
		return m.sumD
	}
	var buf [refSize]byte
	b := appendU64(buf[:0], uint64(m.Instance))
	b = appendU64(b, uint64(m.View))
	b = appendU64(b, uint64(m.Seq))
	b = appendU32(b, uint32(len(m.Batch)))
	h := crypto.NewHasher()
	h.WriteLocal(b)
	for i := range m.Batch {
		h.WriteLocal(appendRef(buf[:0], m.Batch[i]))
	}
	m.sum, m.sumD = key, h.Sum()
	return m.sumD
}

// prePrepareBodySize is the fixed body length of PRE-PREPARE.
const prePrepareBodySize = 1 + 8 + types.DigestSize

// AppendBody appends what the MAC authenticator covers: type, proposing node
// and BatchDigest, which binds instance, view, sequence number and every
// batch reference.
func (m *PrePrepare) AppendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypePrePrepare))
	b = appendU64(b, uint64(m.Node))
	return appendDigest(b, m.BatchDigest())
}

// Body implements Message.
func (m *PrePrepare) Body() []byte { return m.AppendBody(make([]byte, 0, prePrepareBodySize)) }

// EncodedSize implements Message.
func (m *PrePrepare) EncodedSize() int { return 1 + 8*4 + refsSize(m.Batch) + authSize(m.Auth) }

// Marshal implements Message.
func (m *PrePrepare) Marshal(dst []byte) []byte {
	b := appendU8(dst, uint8(TypePrePrepare))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.View))
	b = appendU64(b, uint64(m.Seq))
	b = appendU64(b, uint64(m.Node))
	return appendAuth(appendRefs(b, m.Batch), m.Auth)
}

// Prepare is a non-primary replica's echo of a PRE-PREPARE.
type Prepare struct {
	Instance types.InstanceID
	View     types.View
	Seq      types.SeqNum
	Digest   types.Digest // batch digest
	Node     types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *Prepare) MsgType() Type { return TypePrepare }

// AppendBody appends what the MAC authenticator covers: every field but it.
func (m *Prepare) AppendBody(b []byte) []byte {
	return appendPhaseBody(b, TypePrepare, m.Instance, m.View, m.Seq, m.Digest, m.Node)
}

// Body implements Message.
func (m *Prepare) Body() []byte { return m.AppendBody(make([]byte, 0, phaseBodySize)) }

// EncodedSize implements Message.
func (m *Prepare) EncodedSize() int { return phaseBodySize + authSize(m.Auth) }

// Marshal implements Message.
func (m *Prepare) Marshal(dst []byte) []byte { return appendAuth(m.AppendBody(dst), m.Auth) }

// Commit is the third-phase message: the sender has collected a prepared
// certificate for (view, seq, digest).
type Commit struct {
	Instance types.InstanceID
	View     types.View
	Seq      types.SeqNum
	Digest   types.Digest
	Node     types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *Commit) MsgType() Type { return TypeCommit }

// AppendBody appends what the MAC authenticator covers: every field but it.
func (m *Commit) AppendBody(b []byte) []byte {
	return appendPhaseBody(b, TypeCommit, m.Instance, m.View, m.Seq, m.Digest, m.Node)
}

// Body implements Message.
func (m *Commit) Body() []byte { return m.AppendBody(make([]byte, 0, phaseBodySize)) }

// EncodedSize implements Message.
func (m *Commit) EncodedSize() int { return phaseBodySize + authSize(m.Auth) }

// Marshal implements Message.
func (m *Commit) Marshal(dst []byte) []byte { return appendAuth(m.AppendBody(dst), m.Auth) }

// phaseBodySize is the fixed body length of PREPARE and COMMIT.
const phaseBodySize = 1 + 8 + 8 + 8 + types.DigestSize + 8

func appendPhaseBody(b []byte, t Type, inst types.InstanceID, v types.View, n types.SeqNum, d types.Digest, node types.NodeID) []byte {
	b = appendU8(b, uint8(t))
	b = appendU64(b, uint64(inst))
	b = appendU64(b, uint64(v))
	b = appendU64(b, uint64(n))
	b = appendDigest(b, d)
	return appendU64(b, uint64(node))
}

// Reply carries the execution results of consecutive requests of one client
// bundle back to the client, under a single node-to-client MAC. A single
// reply is a bundle of one.
type Reply struct {
	Client types.ClientID
	ID     types.RequestID
	Result []byte
	// Rest holds the results of requests ID+1 … ID+len(Rest), in id order.
	// Empty for a single reply.
	Rest [][]byte
	Node types.NodeID

	MAC crypto.MAC
}

// MsgType implements Message.
func (m *Reply) MsgType() Type { return TypeReply }

// Len returns the number of requests m answers: 1, or k for a bundle of k.
func (m *Reply) Len() int { return 1 + len(m.Rest) }

// ResultAt returns the result of request ID+i, for 0 ≤ i < Len().
func (m *Reply) ResultAt(i int) []byte {
	if i == 0 {
		return m.Result
	}
	return m.Rest[i-1]
}

// ResultsDigest hashes the results in id order, each behind its length:
// SHA-256(len₁‖r₁‖…‖len_k‖r_k), which binds their number, order and
// boundaries.
func (m *Reply) ResultsDigest() types.Digest {
	var n [4]byte
	h := crypto.NewHasher()
	for i := 0; i < m.Len(); i++ {
		h.WriteLocal(appendU32(n[:0], uint32(len(m.ResultAt(i)))))
		h.Write(m.ResultAt(i))
	}
	return h.Sum()
}

// replyBodySize is the fixed body length of REPLY.
const replyBodySize = 1 + 8 + 8 + 8 + 4 + types.DigestSize

// AppendBody appends what the MAC covers: every field but it, the results
// through ResultsDigest — so any reply's body fits MaxBodySize.
func (m *Reply) AppendBody(b []byte) []byte {
	return appendDigest(appendU32(m.appendHead(b), uint32(m.Len())), m.ResultsDigest())
}

func (m *Reply) appendHead(b []byte) []byte {
	b = appendU8(b, uint8(TypeReply))
	b = appendU64(b, uint64(m.Client))
	b = appendU64(b, uint64(m.ID))
	return appendU64(b, uint64(m.Node))
}

// Body implements Message.
func (m *Reply) Body() []byte { return m.AppendBody(make([]byte, 0, replyBodySize)) }

// EncodedSize implements Message.
func (m *Reply) EncodedSize() int {
	n := 1 + 8 + 8 + 8 + 4 + 4*m.Len() + crypto.MACSize
	for i := 0; i < m.Len(); i++ {
		n += len(m.ResultAt(i))
	}
	return n
}

// Marshal implements Message: the count, then every result.
func (m *Reply) Marshal(dst []byte) []byte {
	b := appendU32(m.appendHead(dst), uint32(m.Len()))
	for i := 0; i < m.Len(); i++ {
		b = appendBytes(b, m.ResultAt(i))
	}
	return append(b, m.MAC[:]...)
}

// InstanceChange is a node's vote that the master instance's primary is
// malicious. CPI uniquely identifies the protocol-instance-change round.
type InstanceChange struct {
	CPI  uint64
	Node types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *InstanceChange) MsgType() Type { return TypeInstanceChange }

// AppendBody appends what the MAC authenticator covers: every field but it.
func (m *InstanceChange) AppendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeInstanceChange))
	b = appendU64(b, m.CPI)
	return appendU64(b, uint64(m.Node))
}

// Body implements Message.
func (m *InstanceChange) Body() []byte { return m.AppendBody(make([]byte, 0, 1+8+8)) }

// EncodedSize implements Message.
func (m *InstanceChange) EncodedSize() int { return 1 + 8 + 8 + authSize(m.Auth) }

// Marshal implements Message.
func (m *InstanceChange) Marshal(dst []byte) []byte { return appendAuth(m.AppendBody(dst), m.Auth) }

// PreparedProof is one prepared-but-possibly-uncommitted entry carried in a
// VIEW-CHANGE so the new primary can re-propose it.
type PreparedProof struct {
	Seq    types.SeqNum
	View   types.View // view in which it prepared
	Digest types.Digest
	Batch  []types.RequestRef
}

// ViewChange is a replica's signed report of its prepared state when moving
// to NewView. Signed (not MAC'd) because it is relayed inside NEW-VIEW.
type ViewChange struct {
	Instance  types.InstanceID
	NewView   types.View
	StableSeq types.SeqNum // last stable checkpoint sequence
	Prepared  []PreparedProof
	Node      types.NodeID

	Sig []byte
}

// MsgType implements Message.
func (m *ViewChange) MsgType() Type { return TypeViewChange }

func (m *ViewChange) bodySize() int {
	n := 1 + 8*4 + 4
	for i := range m.Prepared {
		n += 8 + 8 + types.DigestSize + refsSize(m.Prepared[i].Batch)
	}
	return n
}

func (m *ViewChange) appendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeViewChange))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.NewView))
	b = appendU64(b, uint64(m.StableSeq))
	b = appendU64(b, uint64(m.Node))
	b = appendU32(b, uint32(len(m.Prepared)))
	for i := range m.Prepared {
		p := &m.Prepared[i]
		b = appendU64(b, uint64(p.Seq))
		b = appendU64(b, uint64(p.View))
		b = appendDigest(b, p.Digest)
		b = appendRefs(b, p.Batch)
	}
	return b
}

// Body implements Message.
func (m *ViewChange) Body() []byte { return m.appendBody(make([]byte, 0, m.bodySize())) }

// EncodedSize implements Message.
func (m *ViewChange) EncodedSize() int { return m.bodySize() + 4 + len(m.Sig) }

// Marshal implements Message.
func (m *ViewChange) Marshal(dst []byte) []byte { return appendBytes(m.appendBody(dst), m.Sig) }

// NewView is the new primary's installation message for a view: the 2f+1
// VIEW-CHANGE proofs it collected and the PRE-PREPAREs it re-issues for
// prepared-but-uncommitted sequence numbers.
type NewView struct {
	Instance    types.InstanceID
	View        types.View
	ViewChanges []ViewChange
	PrePrepares []PrePrepare
	Node        types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *NewView) MsgType() Type { return TypeNewView }

func (m *NewView) bodySize() int {
	n := 1 + 8*3 + 4 + 4
	for i := range m.ViewChanges {
		n += 4 + m.ViewChanges[i].EncodedSize()
	}
	for i := range m.PrePrepares {
		n += 4 + m.PrePrepares[i].EncodedSize()
	}
	return n
}

func (m *NewView) appendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeNewView))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.View))
	b = appendU64(b, uint64(m.Node))
	b = appendU32(b, uint32(len(m.ViewChanges)))
	for i := range m.ViewChanges {
		b = appendU32(b, uint32(m.ViewChanges[i].EncodedSize()))
		b = m.ViewChanges[i].Marshal(b)
	}
	b = appendU32(b, uint32(len(m.PrePrepares)))
	for i := range m.PrePrepares {
		b = appendU32(b, uint32(m.PrePrepares[i].EncodedSize()))
		b = m.PrePrepares[i].Marshal(b)
	}
	return b
}

// Body implements Message.
func (m *NewView) Body() []byte { return m.appendBody(make([]byte, 0, m.bodySize())) }

// EncodedSize implements Message.
func (m *NewView) EncodedSize() int { return m.bodySize() + authSize(m.Auth) }

// Marshal implements Message.
func (m *NewView) Marshal(dst []byte) []byte { return appendAuth(m.appendBody(dst), m.Auth) }

// Checkpoint advertises a replica's ordering-log digest at sequence Seq so
// replicas can establish stable checkpoints and garbage-collect their logs.
type Checkpoint struct {
	Instance types.InstanceID
	Seq      types.SeqNum
	Digest   types.Digest
	Node     types.NodeID

	Auth crypto.Authenticator
}

// MsgType implements Message.
func (m *Checkpoint) MsgType() Type { return TypeCheckpoint }

// checkpointBodySize is the fixed body length of CHECKPOINT.
const checkpointBodySize = 1 + 8 + 8 + types.DigestSize + 8

// AppendBody appends what the MAC authenticator covers: every field but it.
func (m *Checkpoint) AppendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeCheckpoint))
	b = appendU64(b, uint64(m.Instance))
	b = appendU64(b, uint64(m.Seq))
	b = appendDigest(b, m.Digest)
	return appendU64(b, uint64(m.Node))
}

// Body implements Message.
func (m *Checkpoint) Body() []byte { return m.AppendBody(make([]byte, 0, checkpointBodySize)) }

// EncodedSize implements Message.
func (m *Checkpoint) EncodedSize() int { return checkpointBodySize + authSize(m.Auth) }

// Marshal implements Message.
func (m *Checkpoint) Marshal(dst []byte) []byte { return appendAuth(m.AppendBody(dst), m.Auth) }

// Invalid is a deliberately garbage message used by the attack harness to
// model flooding with unverifiable traffic of a chosen size.
type Invalid struct {
	Node    types.NodeID
	Padding []byte
}

// MsgType implements Message.
func (m *Invalid) MsgType() Type { return TypeInvalid }

func (m *Invalid) appendBody(b []byte) []byte {
	b = appendU8(b, uint8(TypeInvalid))
	b = appendU64(b, uint64(m.Node))
	return appendBytes(b, m.Padding)
}

// Body implements Message.
func (m *Invalid) Body() []byte { return m.appendBody(make([]byte, 0, m.EncodedSize())) }

// EncodedSize implements Message.
func (m *Invalid) EncodedSize() int { return 1 + 8 + 4 + len(m.Padding) }

// Marshal implements Message.
func (m *Invalid) Marshal(dst []byte) []byte { return m.appendBody(dst) }
