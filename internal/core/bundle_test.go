package core

import (
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// signBundle has client c sign ops as one request, or a bundle, from id on.
// A faulty client signs whatever it likes, so tests sign with the ring.
func signBundle(ring *crypto.KeyRing, n int, c types.ClientID, id types.RequestID, ops ...[]byte) *message.Request {
	req := &message.Request{Client: c, ID: id, Op: ops[0], Rest: ops[1:]}
	d, _ := req.Digests()
	req.Sig = ring.Sign(req.AppendSignedBody(nil, d))
	req.Auth = ring.AuthenticatorForNodes(n, req.AppendBody(nil, d))
	return req
}

// sendFrame has client c send frame to the given nodes.
func (nc *nodeCluster) sendFrame(c types.ClientID, frame []byte, to ...types.NodeID) {
	for _, n := range to {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: c, toNode: n, nodeDst: true, frame: frame})
	}
}

// queueBundle has client c queue ops and flush them, which must make one
// bundle.
func (nc *nodeCluster) queueBundle(c types.ClientID, ops ...[]byte) *message.Request {
	nc.t.Helper()
	cl := nc.client(c)
	for _, op := range ops {
		cl.Queue(op, nc.now)
	}
	reqs := cl.Flush(nc.now)
	if len(reqs) != 1 || reqs[0].Len() != len(ops) {
		nc.t.Fatalf("%d ops flushed as %d frames", len(ops), len(reqs))
	}
	return reqs[0]
}

// counterOps returns n app.Counter increments: +1, +2, … +n.
func counterOps(n int) [][]byte {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = []byte{0, 0, 0, 0, 0, 0, 0, byte(i + 1)}
	}
	return ops
}

// propagatesOf returns the PROPAGATEs in out.
func propagatesOf(out Output) []*message.Propagate {
	var ps []*message.Propagate
	for _, nm := range out.NodeMsgs {
		if p, ok := nm.Msg.(*message.Propagate); ok {
			ps = append(ps, p)
		}
	}
	return ps
}

// requireExecutedOnce checks that every node executed client c's requests
// first..last exactly once each, in id order, and nothing else of c's.
func (nc *nodeCluster) requireExecutedOnce(c types.ClientID, first, last types.RequestID) {
	nc.t.Helper()
	for i := range nc.nodes {
		next := first
		for _, ref := range nc.executed[types.NodeID(i)] {
			if ref.Client != c {
				continue
			}
			if ref.ID != next {
				nc.t.Fatalf("node %d executed client %d's request %d, want %d next", i, c, ref.ID, next)
			}
			next++
		}
		if next != last+1 {
			nc.t.Fatalf("node %d executed client %d's requests %d..%d, want through %d", i, c, first, next-1, last)
		}
	}
}

// TestBundleExecutesOnceInOrder: a 16-request bundle is one REQUEST frame per
// node and one PROPAGATE of the whole bundle from each, and every node
// executes its 16 requests exactly once, in id order, answering each.
func TestBundleExecutesOnceInOrder(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	frame := frameOf(nc.queueBundle(1, counterOps(16)...))
	out := onClientFrame(nc.nodes[0], frame, 1, nc.now)
	if ps := propagatesOf(out); len(ps) != 1 || ps[0].Req.Len() != 16 {
		t.Fatalf("node 0 answered the bundle with %d PROPAGATEs, want one carrying all 16 requests", len(ps))
	}
	nc.collect(0, out)
	nc.sendFrame(1, frame, 1, 2, 3)
	nc.runFor(200 * time.Millisecond)

	nc.requireExecutedOnce(1, 1, 16)
	if got := len(nc.completed[1]); got != 16 {
		t.Fatalf("client completed %d of 16 requests", got)
	}
	for i, a := range nc.apps {
		if a.Total(1) != 136 {
			t.Fatalf("node %d counter = %d, want 1+2+…+16 = 136", i, a.Total(1))
		}
	}
	nc.requireQuiescent()
}

// TestRetransmittedBundleHalfExecuted: a bundle whose first half already
// executed — it went out as a bundle of its own — gets cached replies for
// that half and is ordered for the rest; nothing executes twice.
func TestRetransmittedBundleHalfExecuted(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	ops := counterOps(16)
	full := nc.queueBundle(1, ops...)
	half := signBundle(nc.ks.ClientRing(1), nc.cfg.N, 1, 1, ops[:8]...)
	nc.sendFrame(1, frameOf(half), nc.cfg.AllNodes()...)
	nc.runFor(100 * time.Millisecond)
	nc.requireExecutedOnce(1, 1, 8)
	if got := len(nc.completed[1]); got != 8 {
		t.Fatalf("client completed %d of the first 8 requests", got)
	}

	frame := frameOf(full)
	out := onClientFrame(nc.nodes[0], frame, 1, nc.now)
	for i, cm := range out.ClientMsgs {
		if rep := cm.Msg.(*message.Reply); rep.ID != types.RequestID(i+1) {
			t.Fatalf("reply %d answers request %d", i, rep.ID)
		}
	}
	if len(out.ClientMsgs) != 8 {
		t.Fatalf("retransmitted bundle got %d cached replies, want 8", len(out.ClientMsgs))
	}
	if ps := propagatesOf(out); len(ps) != 1 {
		t.Fatalf("retransmitted bundle made %d PROPAGATEs, want one for its new half", len(ps))
	}
	nc.collect(0, out)
	nc.sendFrame(1, frame, 1, 2, 3)
	nc.runFor(200 * time.Millisecond)

	nc.requireExecutedOnce(1, 1, 16)
	if got := len(nc.completed[1]); got != 16 {
		t.Fatalf("client completed %d of 16 requests", got)
	}
	nc.requireQuiescent()
}
