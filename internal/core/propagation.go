package core

import (
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// pendingRequest is everything the node holds for one signed request body
// between first sight and execution: the body, who has PROPAGATEd it, and
// whether it went to the replicas. Records live in Node.pending under the
// request's (client, id) key. An equivocating client may sign several bodies
// under one id, and execution must pick the same one on every node — the
// first one ordered — so each body (told apart by its digest) gets its own
// record, chained through sibling. storeBody is the only place a record is
// taken, release the only place one goes back: records come in slabs and are
// recycled, never freed.
type pendingRequest struct {
	ref types.RequestRef
	// bundle is the first id of the signed bundle the body arrived in (its own
	// id when it came alone): replies group by it (sendReplies).
	bundle types.RequestID
	// op is the verified operation. It aliases the received frame
	// (message.Decode), so the record keeps that frame alive until the
	// request executes.
	op []byte
	// senders[i] is set once node i's PROPAGATE (or, for this node, the
	// decision to send one) is in; nsenders counts the set entries.
	senders      []bool
	nsenders     int
	dispatchedAt time.Time // when it went to the local replicas; zero before
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

// storeBody creates the record of the verified request body ref, which the
// node does not hold, with operation op; or returns nil when the client
// already pins its full allowance of bodies. This is the node's single
// retention point for decoded request bytes, and with release one of the two
// places pendingBodies moves.
func (n *Node) storeBody(cs *clientState, ref types.RequestRef, bundle types.RequestID, op []byte) *pendingRequest {
	if cs.pendingBodies >= maxPendingBodiesPerClient {
		return nil
	}
	cs.pendingBodies++
	if len(n.free) == 0 {
		// 64 records and their sender sets, in two allocations.
		slab, senders, k := make([]pendingRequest, 64), make([]bool, 64*n.cfg.Cluster.N), n.cfg.Cluster.N
		for i := range slab {
			slab[i].senders, senders = senders[:k:k], senders[k:]
			n.free = append(n.free, &slab[i])
		}
	}
	r := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	r.ref, r.bundle, r.op, r.sibling = ref, bundle, op, n.pending[ref.Key()]
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
// equivocated siblings — tells the replicas holding their refs, and recycles
// the records cleared, so a slab pins no frame.
func (n *Node) release(cs *clientState, key types.RequestKey) {
	first, last := n.lanes(key.Client)
	for r := n.pending[key]; r != nil; {
		cs.pendingBodies--
		for i := first; i <= last; i++ {
			n.replicas[i].Executed(r.ref)
		}
		next := r.sibling
		clear(r.senders)
		*r = pendingRequest{senders: r.senders}
		n.free = append(n.free, r)
		r = next
	}
	delete(n.pending, key)
}

// applyRequest runs the Propagation module for req, the request or bundle a
// preverified client REQUEST (v.FromClient) or PROPAGATE from node v.From
// carries. Each of its requests is a request of its own: one record, one
// sender set, one dispatch once f+1 PROPAGATEs are in. A copy for held refs
// reads no operation byte. Only a copy whose bytes hash to its digest
// (v.OpsMatch) has a read executed or new bodies stored, and only one that
// stored a body is sent on as the node's own PROPAGATE, MAC'd over v.Digest;
// any other is dropped, and counted against a sending node but never against
// a client, whose operations lie outside its MAC. All records are stored
// before the first dispatch, which can execute and release records (a released
// one is cleared, so its turn dispatches nothing); stored ones pin the client.
func (n *Node) applyRequest(out *Output, req *message.Request, v *message.Verified, now time.Time) {
	cs := n.client(req.Client, now)
	if cs.blacklisted {
		return
	}
	news := false
	for i := 0; i < req.Len(); i++ {
		id := req.ID + types.RequestID(i)
		if v.FromClient && n.tr.Enabled() {
			n.tr.Trace(obs.Event{At: now, Type: obs.EvRequestReceived, Client: req.Client, Req: id})
		}
		// Speculative read-only fast path (never bundled): answer from local
		// state or not at all — the client accepts only a read quorum (2f+1)
		// of matching replies and otherwise re-issues through ordering.
		if req.ReadOnly {
			if n.reader != nil && v.OpsMatch() {
				if result, ok := n.reader.ExecuteRead(req.Op); ok {
					n.reply(req.Client, id, id, result)
				}
			}
			break
		}
		// An executed request is decided: no fresh body, no dispatch. A
		// client's retransmission gets the cached reply (the watermark spares
		// a new request the cache scan) or, evicted, nothing: re-propagating
		// would re-execute on nodes that no longer remember the reply.
		if cs.isExecuted(id) {
			if v.FromClient {
				if result, ok := n.cachedReply(cs, id); ok {
					n.reply(req.Client, req.ID, id, result)
				}
			}
			continue
		}
		ref := types.RequestRef{Client: req.Client, ID: id, Digest: v.OpDigest(i)}
		r := n.lookup(ref)
		if r == nil {
			if !v.OpsMatch() {
				if !v.FromClient {
					n.countInvalid(out, v.From, now)
				}
				break
			}
			if r = n.storeBody(cs, ref, req.ID, req.OpAt(i)); r == nil {
				continue
			}
			news = r.addSender(n.cfg.Node) || news
		}
		if !v.FromClient {
			r.addSender(v.From)
		}
		n.stored = append(n.stored, r)
	}
	n.sendReplies(out)
	if news && !n.behavior.DropPropagate {
		p := &message.Propagate{Req: *req, Node: n.cfg.Node}
		var buf [message.MaxBodySize]byte
		p.Auth = n.keys.AuthenticatorForNodes(n.cfg.Cluster.N, p.AppendBody(buf[:0], v.Digest))
		out.NodeMsgs = append(out.NodeMsgs, NodeSend{Msg: p})
	}
	for _, r := range n.stored {
		n.maybeDispatch(out, r, now)
	}
	clear(n.stored) // pins no record until the next request
	n.stored = n.stored[:0]
}
