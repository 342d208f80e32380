package core

import (
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
)

// pendingRequest is everything the node holds for one signed request body
// between first sight and execution: the body, who has PROPAGATEd it, and
// whether it went to the replicas. Records live in Node.pending under the
// request's (client, id) key. An equivocating client may sign several bodies
// under one id, and execution must pick the same one on every node — the
// first one ordered — so each body (told apart by its digest) gets its own
// record, chained through sibling. storeBody is the only place a record is
// created, release the only place one goes away.
type pendingRequest struct {
	ref types.RequestRef
	// body is the verified request. Op, Sig and Auth alias the received frame
	// (message.Decode), so the record keeps that frame alive until the
	// request executes.
	body message.Request
	// senders[i] is set once node i's PROPAGATE (or, for this node, the
	// decision to send one) is in; nsenders counts the set entries.
	senders  []bool
	nsenders int
	// dispatched is set once the request went to the local replicas;
	// dispatchedAt is when, noted only with spans on.
	dispatched   bool
	dispatchedAt time.Time
	sibling      *pendingRequest
}

// addSender notes a PROPAGATE from id and reports whether it is news.
func (r *pendingRequest) addSender(id types.NodeID) bool {
	if r.senders[id] {
		return false
	}
	r.senders[id] = true
	r.nsenders++
	return true
}

// maxPendingBodiesPerClient bounds the request bodies a single (possibly
// equivocating) client can keep resident per node.
const maxPendingBodiesPerClient = 4096

// storeBody returns the record of the verified request body ref, creating it
// on first sight, or nil when the client already pins its full allowance of
// bodies. This is the node's single retention point for decoded request
// bytes, and with release one of the two places pendingBodies moves.
func (n *Node) storeBody(cs *clientState, ref types.RequestRef, req *message.Request) *pendingRequest {
	if r := n.lookup(ref); r != nil {
		return r
	}
	if cs.pendingBodies >= maxPendingBodiesPerClient {
		return nil
	}
	cs.pendingBodies++
	r := &pendingRequest{
		ref: ref, body: *req, sibling: n.pending[ref.Key()],
		senders: make([]bool, n.cfg.Cluster.N),
	}
	n.pending[ref.Key()] = r
	return r
}

// lookup returns ref's record, or nil if the node holds none (never stored,
// or released by the execution of ref's key).
func (n *Node) lookup(ref types.RequestRef) *pendingRequest {
	r := n.pending[ref.Key()]
	for r != nil && r.ref.Digest != ref.Digest {
		r = r.sibling
	}
	return r
}

// release drops every record under key — the executed body and any
// equivocated siblings: the request is decided on this node.
func (n *Node) release(cs *clientState, key types.RequestKey) {
	for r := n.pending[key]; r != nil; r = r.sibling {
		cs.pendingBodies--
	}
	delete(n.pending, key)
}

// applyPropagate processes a preverified PROPAGATE (MAC and the embedded
// request's client signature both already checked) whose request has
// OpDigest d.
func (n *Node) applyPropagate(out *Output, p *message.Propagate, d types.Digest, from types.NodeID, now time.Time) {
	cs := n.client(p.Req.Client, now)
	if cs.blacklisted {
		return
	}
	// The request already executed here: it is decided, so further
	// PROPAGATEs for its key must not pin fresh bodies or re-enter dispatch.
	if cs.isExecuted(p.Req.ID) {
		return
	}
	ref := types.RequestRef{Client: p.Req.Client, ID: p.Req.ID, Digest: d}
	if r := n.storeBody(cs, ref, &p.Req); r != nil {
		r.addSender(from)
		n.propagate(out, r, now)
	}
}

// propagate runs the Propagation module for a stored request: send our own
// PROPAGATE the first time we learn of it, then dispatch once f+1 copies are
// in. The MAC body comes from the ref's digest — the preverify stage's one
// pass over the operation is the last.
func (n *Node) propagate(out *Output, r *pendingRequest, now time.Time) {
	if r.addSender(n.cfg.Node) && !n.behavior.DropPropagate {
		p := &message.Propagate{Req: r.body, Node: n.cfg.Node}
		var buf [message.MaxBodySize]byte
		p.Auth = n.keys.AuthenticatorForNodes(n.cfg.Cluster.N, p.AppendBody(buf[:0], r.ref.Digest))
		out.NodeMsgs = append(out.NodeMsgs, NodeSend{Msg: p})
	}
	n.maybeDispatch(out, r, now)
}
