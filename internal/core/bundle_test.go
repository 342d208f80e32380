package core

import (
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/transport"
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
	reqs := cl.Flush(nc.now, transport.MaxFrame)
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
// executed — it went out as a bundle of its own — gets that half's cached
// replies in one frame and is ordered for the rest; nothing executes twice.
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
	if len(out.ClientMsgs) != 1 {
		t.Fatalf("retransmitted bundle got %d reply frames, want one for its cached half", len(out.ClientMsgs))
	}
	if rep := out.ClientMsgs[0].Msg.(*message.Reply); rep.ID != 1 || rep.Len() != 8 {
		t.Fatalf("cached replies framed as a REPLY of %d from request %d, want one of 8 from 1", rep.Len(), rep.ID)
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

// replyFrames runs a 16-request bundle of client 1 through nc and returns,
// per node, the sizes of the reply frames the client received, in order.
func (nc *nodeCluster) replyFrames() map[types.NodeID][]int {
	frames := make(map[types.NodeID][]int)
	nc.onReply = func(from types.NodeID, rep *message.Reply) { frames[from] = append(frames[from], rep.Len()) }
	nc.sendFrame(1, frameOf(nc.queueBundle(1, counterOps(16)...)), nc.cfg.AllNodes()...)
	nc.runFor(200 * time.Millisecond)
	nc.requireExecutedOnce(1, 1, 16)
	if got := len(nc.completed[1]); got != 16 {
		nc.t.Fatalf("client completed %d of 16 requests", got)
	}
	for i, d := range nc.completed[1] {
		if d.ID != types.RequestID(i+1) {
			nc.t.Fatalf("completion %d is request %d", i, d.ID)
		}
	}
	return frames
}

// TestBundleAnsweredInOneFramePerNode: a 16-request bundle ordered in one
// batch is answered with one REPLY per node.
func TestBundleAnsweredInOneFramePerNode(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) { c.BatchSize = 16 })
	for node, sizes := range nc.replyFrames() {
		if len(sizes) != 1 || sizes[0] != 16 {
			t.Errorf("node %d answered in frames of %v requests, want one of 16", node, sizes)
		}
	}
}

// TestBundleSplitAcrossBatchesAnsweredPerBatch: the same bundle ordered in
// two batches of 8 is answered with one frame per batch on every node.
func TestBundleSplitAcrossBatchesAnsweredPerBatch(t *testing.T) {
	nc := newNodeCluster(t, 1, nil) // BatchSize 8
	frames := nc.replyFrames()
	for node := range nc.nodes {
		if sizes := frames[types.NodeID(node)]; len(sizes) != 2 || sizes[0] != 8 || sizes[1] != 8 {
			t.Errorf("node %d answered in frames of %v requests, want two of 8", node, sizes)
		}
	}
}
