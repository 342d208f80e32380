package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// A faulty node's PROPAGATE may carry a genuine request's header and client
// signature over operations it changed, MAC'd over the genuine signed digest.
// A node whose verification cache holds the genuine request takes the
// genuine digests for it without reading its operations, so what keeps the
// forged bytes out is applyRequest: it binds a copy's operations to its
// digest before it creates a record from them.

// propagateOver is node from's PROPAGATE of req, MAC'd over the signed digest
// d whatever req's operations hash to.
func propagateOver(ring *crypto.KeyRing, n int, from types.NodeID, req *message.Request, d types.Digest) []byte {
	p := &message.Propagate{Req: *req, Node: from}
	p.Req.Auth = nil
	var buf [message.MaxBodySize]byte
	p.Auth = ring.AuthenticatorForNodes(n, p.AppendBody(buf[:0], d))
	return frameOf(p)
}

// forgedBody returns a record n holds whose stored operation does not hash to
// its ref's digest, or nil.
func forgedBody(n *Node) *pendingRequest {
	for _, r := range n.pending {
		for ; r != nil; r = r.sibling {
			if r.stored && (&message.Request{Client: r.ref.Client, ID: r.ref.ID, Op: r.op}).OpDigest() != r.ref.Digest {
				return r
			}
		}
	}
	return nil
}

// sendsPropagate reports whether out forwards a PROPAGATE.
func sendsPropagate(out Output) bool {
	for _, nm := range out.NodeMsgs {
		if _, ok := nm.Msg.(*message.Propagate); ok {
			return true
		}
	}
	return false
}

// withOp returns a copy of req with operation i replaced by op.
func withOp(req *message.Request, i int, op []byte) *message.Request {
	r := *req
	r.Rest = append([][]byte(nil), req.Rest...)
	if i == 0 {
		r.Op = op
	} else {
		r.Rest[i-1] = op
	}
	return &r
}

// TestForgedOpsPropagateBeforeAndAfterItsRequest: faulty node 3 relays a
// client bundle with one operation changed, MAC'd over the genuine digest, to
// nodes 0–2. Each node's verifier has already seen the client's REQUEST, so
// the forged copy takes the genuine digests unread. Applied before that
// REQUEST, it leaves no record, forwards nothing and counts one invalid
// message against node 3. Applied after it, it is a vote for refs the node
// holds: it costs no flood count and leaves the genuine bytes in place. The
// cluster then executes the genuine bundle once everywhere.
func TestForgedOpsPropagateBeforeAndAfterItsRequest(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	const forger = types.NodeID(3)
	genuine := nc.queueBundle(1, counterOps(4)...)
	d, _ := genuine.Digests()
	forged := propagateOver(nc.ks.NodeRing(forger), nc.cfg.N, forger, withOp(genuine, 2, []byte{0, 0, 0, 0, 0, 0, 0, 99}), d)
	for i := types.NodeID(0); i < forger; i++ {
		n := nc.nodes[i]
		v, err := n.Preverifier().PreverifyClientFrame(frameOf(genuine), 1)
		if err != nil {
			t.Fatalf("node %d rejected the genuine bundle: %v", i, err)
		}

		out := onNodeFrame(n, forged, forger, nc.now)
		if len(n.pending) != 0 || sendsPropagate(out) || n.floodCounts[forger] != 1 {
			t.Fatalf("node %d, forged copy before the REQUEST: %d records, forwarded %v, %d flood counts; want 0, false, 1",
				i, len(n.pending), sendsPropagate(out), n.floodCounts[forger])
		}
		nc.collect(i, out)

		out = n.OnVerified(v, nc.now)
		if len(n.pending) != genuine.Len() || !sendsPropagate(out) {
			t.Fatalf("node %d, the REQUEST: %d records, forwarded %v; want %d, true", i, len(n.pending), sendsPropagate(out), genuine.Len())
		}
		nc.collect(i, out)

		out = onNodeFrame(n, forged, forger, nc.now)
		if sendsPropagate(out) || n.floodCounts[forger] != 1 {
			t.Fatalf("node %d, forged copy after the REQUEST: forwarded %v, %d flood counts; want false, 1", i, sendsPropagate(out), n.floodCounts[forger])
		}
		for id := genuine.ID; id < genuine.ID+types.RequestID(genuine.Len()); id++ {
			if r := n.pending[types.RequestKey{Client: 1, ID: id}]; r == nil || !r.senders[forger] {
				t.Fatalf("node %d: the forged copy after the REQUEST is no vote for request %d", i, id)
			}
		}
		if r := forgedBody(n); r != nil {
			t.Fatalf("node %d keeps request %d with an operation that does not hash to its digest", i, r.ref.ID)
		}
		nc.collect(i, out)
	}
	nc.runFor(200 * time.Millisecond)
	nc.requireExecutedOnce(1, genuine.ID, genuine.ID+types.RequestID(genuine.Len())-1)
	for i, a := range nc.apps {
		if got := a.Total(1); got != 1+2+3+4 {
			t.Fatalf("node %d counts %d for client 1, want the genuine bundle's 10", i, got)
		}
	}
	nc.requireQuiescent()
}

// TestForgedPropagateVariantsLeaveNoTrace runs the variants the message
// package's cache tests relay through a core.Node whose verifier has seen the
// genuine REQUEST and not yet applied it. Whether preverify rejects a variant
// (bad-mac: changed operations MAC'd over their own digest; bad-sig: a
// changed header) or passes it as an unchecked vote (changed operations MAC'd
// over the genuine digest), the node ends with no record, forwards no
// PROPAGATE, executes nothing and counts one invalid message against the
// forger.
func TestForgedPropagateVariantsLeaveNoTrace(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	const forger = types.NodeID(3)
	ring := nc.ks.NodeRing(forger)
	bundle := nc.queueBundle(1, [][]byte{[]byte("ab"), []byte("c"), []byte("op-2"), []byte("op-3")}...)
	single := nc.client(2).NewRequest([]byte("genuine"), nc.now)
	own := func(req *message.Request) []byte {
		d, _ := req.Digests()
		return propagateOver(ring, nc.cfg.N, forger, req, d)
	}
	over := func(genuine, req *message.Request) []byte {
		d, _ := genuine.Digests()
		return propagateOver(ring, nc.cfg.N, forger, req, d)
	}
	swapped := withOp(withOp(bundle, 1, bundle.Rest[1]), 2, bundle.Rest[0])
	moved := withOp(withOp(bundle, 0, []byte("a")), 1, []byte("bc"))
	shifted := *bundle
	shifted.ID++
	cut := *bundle
	cut.Rest = bundle.Rest[:2]
	otherClient := *bundle
	otherClient.Client = 2
	for _, tc := range []struct {
		name    string
		genuine *message.Request
		frame   []byte
		kind    message.FailKind // 0: an unchecked vote
	}{
		{"one op changed", bundle, own(withOp(bundle, 2, []byte("op-9"))), message.FailBadMAC},
		{"two ops swapped", bundle, own(swapped), message.FailBadMAC},
		{"op boundary moved", bundle, own(moved), message.FailBadMAC},
		{"re-MAC'd mutation", single, own(withOp(single, 0, []byte("Genuine"))), message.FailBadMAC},
		{"one op changed, MAC'd over the genuine digest", bundle, over(bundle, withOp(bundle, 2, []byte("op-9"))), 0},
		{"two ops swapped, MAC'd over the genuine digest", bundle, over(bundle, swapped), 0},
		{"op boundary moved, MAC'd over the genuine digest", bundle, over(bundle, moved), 0},
		{"mutation under the genuine MAC", single, over(single, withOp(single, 0, []byte("Genuine"))), 0},
		{"first id shifted", bundle, own(&shifted), message.FailBadSig},
		{"count cut", bundle, own(&cut), message.FailBadSig},
		{"client changed", bundle, own(&otherClient), message.FailBadSig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{Cluster: nc.cfg, Node: 0}, nc.ks.NodeRing(0))
			if _, err := n.Preverifier().PreverifyClientFrame(frameOf(tc.genuine), tc.genuine.Client); err != nil {
				t.Fatalf("genuine request rejected: %v", err)
			}
			v, err := n.Preverifier().PreverifyNodeFrame(tc.frame, forger)
			var out Output
			if tc.kind == 0 {
				if err != nil {
					t.Fatalf("got %v, want an unchecked vote", err)
				}
				out = n.OnVerified(v, nc.now)
			} else {
				var pe *message.PreverifyError
				if !errors.As(err, &pe) || pe.Kind != tc.kind {
					t.Fatalf("got %v, want %s", err, tc.kind)
				}
				out = n.OnRejected(err, nc.now)
			}
			if len(n.pending) != 0 || sendsPropagate(out) || len(out.Executions) != 0 || n.floodCounts[forger] != 1 {
				t.Fatalf("%d records, forwarded %v, %d executions, %d flood counts; want 0, false, 0, 1",
					len(n.pending), sendsPropagate(out), len(out.Executions), n.floodCounts[forger])
			}
		})
	}
}

// readLog is a node's app.Counter that also answers every read, recording the
// operations it read.
type readLog struct {
	*app.Counter
	ops [][]byte
}

func (r *readLog) ExecuteRead(op []byte) ([]byte, bool) {
	r.ops = append(r.ops, op)
	return []byte("read"), true
}

// TestForgedClientRequestAfterItsGenuineCopy: the client MAC covers the signed
// digest, not the operations, so whoever sits on a client's path can send its
// REQUEST with forged operations under the genuine header, signature and MAC.
// Here that copy reaches each node after the node's verifier cached the
// genuine copy, so it takes the genuine digests unread and is accepted,
// unchecked. For a single request, a bundle and a read alike, the node
// neither stores, executes, reads nor forwards it; no node's flood count
// moves and the client is not blacklisted. The genuine copy applied next is
// processed as if it had come alone, and the writes execute once everywhere.
func TestForgedClientRequestAfterItsGenuineCopy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		forge  func(nc *nodeCluster) (genuine, forged *message.Request)
		counts uint64 // what the genuine copy adds to client 1's counter
	}{
		{"single", func(nc *nodeCluster) (*message.Request, *message.Request) {
			genuine := nc.client(1).NewRequest(counterOps(1)[0], nc.now)
			return genuine, withOp(genuine, 0, counterOps(9)[8])
		}, 1},
		{"bundle", func(nc *nodeCluster) (*message.Request, *message.Request) {
			genuine := nc.queueBundle(1, counterOps(4)...)
			return genuine, withOp(genuine, 2, counterOps(9)[8])
		}, 1 + 2 + 3 + 4},
		{"read-only", func(nc *nodeCluster) (*message.Request, *message.Request) {
			genuine := nc.client(1).NewReadRequest([]byte("GET k"), nc.now)
			return genuine, withOp(genuine, 0, []byte("GET x"))
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reads := make([]*readLog, 4)
			nc := newNodeCluster(t, 1, func(c *Config) {
				reads[c.Node] = &readLog{Counter: c.App.(*app.Counter)}
				c.App = reads[c.Node]
			})
			genuine, forged := tc.forge(nc)
			for i, n := range nc.nodes {
				v, err := n.Preverifier().PreverifyClientFrame(frameOf(genuine), 1)
				if err != nil {
					t.Fatalf("node %d rejected the genuine copy: %v", i, err)
				}
				vf, err := n.Preverifier().PreverifyClientFrame(frameOf(forged), 1)
				if err != nil {
					t.Fatalf("node %d: forged copy %v, want an unchecked certificate", i, err)
				}
				out := n.OnVerified(vf, nc.now)
				if len(n.pending) != 0 || sendsPropagate(out) || len(out.Executions) != 0 || len(out.ClientMsgs) != 0 || len(reads[i].ops) != 0 {
					t.Fatalf("node %d, forged copy: %d records, forwarded %v, %d executions, %d replies, %d reads; want none",
						i, len(n.pending), sendsPropagate(out), len(out.Executions), len(out.ClientMsgs), len(reads[i].ops))
				}
				if slices.ContainsFunc(n.floodCounts, func(c int) bool { return c != 0 }) || n.client(1, nc.now).blacklisted {
					t.Fatalf("node %d, forged copy: flood counts %v, client blacklisted %v; want no blame", i, n.floodCounts, n.client(1, nc.now).blacklisted)
				}

				out = n.OnVerified(v, nc.now)
				if genuine.ReadOnly {
					if len(reads[i].ops) != 1 || !bytes.Equal(reads[i].ops[0], genuine.Op) || len(out.ClientMsgs) != 1 {
						t.Fatalf("node %d, genuine read: read %q, %d replies; want %q once, answered", i, reads[i].ops, len(out.ClientMsgs), genuine.Op)
					}
				} else if len(n.pending) != genuine.Len() || !sendsPropagate(out) {
					t.Fatalf("node %d, genuine copy: %d records, forwarded %v; want %d, true", i, len(n.pending), sendsPropagate(out), genuine.Len())
				}
				if r := forgedBody(n); r != nil {
					t.Fatalf("node %d keeps request %d with an operation that does not hash to its digest", i, r.ref.ID)
				}
				nc.collect(types.NodeID(i), out)
			}
			nc.runFor(200 * time.Millisecond)
			if !genuine.ReadOnly {
				nc.requireExecutedOnce(1, genuine.ID, genuine.ID+types.RequestID(genuine.Len())-1)
			}
			for i, a := range nc.apps {
				if got := a.Total(1); got != tc.counts {
					t.Fatalf("node %d counts %d for client 1, want the genuine copy's %d", i, got, tc.counts)
				}
			}
		})
	}
}
