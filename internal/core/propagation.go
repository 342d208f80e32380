package core

import (
	"slices"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/pbft"
	"rbft/internal/types"
)

// pendingRequest is the node's one record of a request ref (replicaStore): the
// signed body — none yet if a PRE-PREPARE named the ref first — who has
// PROPAGATEd it, whether it went to the replicas, and each replica's state for
// the ref. Records live in Node.pending under the request's (client, id) key.
// An equivocating client may sign several bodies under one id, and execution
// must pick the same one on every node — the first one ordered — so each body
// (told apart by its digest) gets its own record, chained through sibling and
// prev. record is the only place a record is taken, drop the only place one
// goes back: records come in slabs and are recycled, never freed.
type pendingRequest struct {
	ref types.RequestRef
	// bundle is the first id of the signed bundle the body arrived in (its own
	// id when it came alone): replies group by it (sendReplies).
	bundle types.RequestID
	// op is the verified operation. It aliases the received frame
	// (message.Decode), so the record keeps that frame alive until the
	// request executes.
	op               []byte
	stored, executed bool // holds a body not yet executed; its key executed here
	// senders[i] is set once node i's PROPAGATE (or, for this node, the
	// decision to send one) is in; nsenders counts the set entries.
	senders       []bool
	nsenders      int
	dispatchedAt  time.Time // when it went to the local replicas; zero before
	sibling, prev *pendingRequest
	lanes         []pbft.ReqState // indexed by instance
}

func (r *pendingRequest) Entry(inst types.InstanceID) *pbft.ReqState { return &r.lanes[inst] }
func (r *pendingRequest) Holds(ref types.RequestRef) bool            { return r.ref == ref } // a dropped one's is zero

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

// storeBody gives r, or a new record under head, the verified body ref with
// operation op; or returns nil when the client already pins its full allowance
// of bodies. This is the node's single retention point for decoded request
// bytes, and with release one of the two places pendingBodies moves.
func (n *Node) storeBody(cs *clientState, r, head *pendingRequest, ref types.RequestRef, bundle types.RequestID, op []byte) *pendingRequest {
	if cs.pendingBodies >= maxPendingBodiesPerClient {
		return nil
	}
	cs.pendingBodies++
	if r == nil {
		r = n.record(ref, head)
	}
	r.bundle, r.op, r.stored = bundle, op, true
	return r
}

// record takes a record for ref, which the node does not hold, and chains it
// first under ref's key, ahead of head.
func (n *Node) record(ref types.RequestRef, head *pendingRequest) *pendingRequest {
	if len(n.free) == 0 {
		// 64 records, their sender sets and replica entries, in three allocations.
		k, m := n.cfg.Cluster.N, len(n.replicas)
		slab, senders, lanes := make([]pendingRequest, 64), make([]bool, 64*k), make([]pbft.ReqState, 64*m)
		for i := range slab {
			slab[i].senders, slab[i].lanes = senders[i*k:(i+1)*k:(i+1)*k], lanes[i*m:(i+1)*m:(i+1)*m]
			n.free = append(n.free, &slab[i])
		}
	}
	r := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	if r.ref, r.sibling = ref, head; head != nil {
		head.prev = r
	}
	n.pending[ref.Key()] = r
	return r
}

// lookup returns ref's record, or nil if the node holds none, and the first
// record under ref's key.
func (n *Node) lookup(ref types.RequestRef) (r, head *pendingRequest) {
	head = n.pending[ref.Key()]
	for r = head; r != nil && r.ref.Digest != ref.Digest; r = r.sibling {
	}
	return r, head
}

// release is the execution of r: the node is done with r and every sibling
// under its key, and retires them on the replicas it dispatched them to.
func (n *Node) release(cs *clientState, r *pendingRequest) {
	first, last := n.lanes(r.ref.Client)
	for r.prev != nil {
		r = r.prev
	}
	for next := r; r != nil; r = next {
		if next = r.sibling; r.stored {
			cs.pendingBodies--
		}
		r.stored, r.executed, r.op = false, true, nil
		for i := first; i <= last; i++ {
			r.lanes[i].Retire()
		}
		n.drop(r)
	}
}

// drop applies the one rule of a record's lifetime: it goes once it holds no
// body to execute and no replica holds state for its ref.
func (n *Node) drop(r *pendingRequest) {
	if r.stored || r.ref == (types.RequestRef{}) || slices.ContainsFunc(r.lanes, busy) {
		return
	}
	switch key := r.ref.Key(); {
	case r.prev != nil:
		r.prev.sibling = r.sibling
	case r.sibling != nil:
		n.pending[key] = r.sibling
	default:
		delete(n.pending, key)
	}
	if r.sibling != nil {
		r.sibling.prev = r.prev
	}
	clear(r.senders)
	*r = pendingRequest{senders: r.senders, lanes: r.lanes}
	n.free = append(n.free, r)
}

func busy(e pbft.ReqState) bool { return !e.Idle() }

// replicaStore is the node's records as its replicas see them (pbft.Store).
type replicaStore Node

// Request returns ref's record; nil when it executed here and replica inst
// holds no state for it; a new body-less one for a ref the node never saw.
func (s *replicaStore) Request(inst types.InstanceID, ref types.RequestRef) pbft.Record {
	r, head := (*Node)(s).lookup(ref)
	if r == nil && !s.table.executed(ref) {
		return (*Node)(s).record(ref, head)
	}
	if r == nil || r.executed && r.lanes[inst].Idle() {
		return nil
	}
	return r
}

func (s *replicaStore) Settled(rec pbft.Record) { (*Node)(s).drop(rec.(*pendingRequest)) }

func (s *replicaStore) Each(fn func(types.RequestRef, pbft.Record)) {
	for _, r := range s.pending {
		for ; r != nil; r = r.sibling {
			fn(r.ref, r) //rbft:ignore maprange -- Each promises no order; its caller sorts
		}
	}
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
		r, head := n.lookup(ref)
		if r == nil || !r.stored {
			if !v.OpsMatch() {
				if !v.FromClient {
					n.countInvalid(out, v.From, now)
				}
				break
			}
			if r = n.storeBody(cs, r, head, ref, req.ID, req.OpAt(i)); r == nil {
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
