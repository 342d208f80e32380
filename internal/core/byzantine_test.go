package core

import (
	"math/rand"
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// TestByzantineTrafficNeverBreaksSafety is the adversarial fuzz test: one
// faulty node injects random protocol messages — some structurally valid
// with correct MACs, some corrupted — interleaved with legitimate client
// traffic. Whatever it sends, the correct nodes must (a) never execute
// divergent sequences, (b) never execute a request that no client signed,
// and (c) never panic.
func TestByzantineTrafficNeverBreaksSafety(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			runByzantineFuzz(t, seed)
		})
	}
}

func runByzantineFuzz(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nc := newNodeCluster(t, 1, func(c *Config) { c.BatchSize = 4 })
	attacker := types.NodeID(3)
	attackerRing := nc.ks.NodeRing(attacker)

	legit := 0
	for round := 0; round < 60; round++ {
		switch rng.Intn(4) {
		case 0: // legitimate request
			nc.sendRequest(types.ClientID(1+rng.Intn(2)), []byte{0, 0, 0, 0, 0, 0, 0, 1})
			legit++
		case 1: // byzantine protocol message with a valid MAC
			msg := randomProtocolMessage(rng, attacker, nc.cfg)
			authenticate(msg, attackerRing, nc.cfg.N)
			target := types.NodeID(rng.Intn(3))
			nc.queue = append(nc.queue, clusterEvent{fromNode: attacker, toNode: target, nodeDst: true, frame: frameOf(msg)})
		case 2: // corrupted wire bytes re-decoded (malformed fields)
			msg := randomProtocolMessage(rng, attacker, nc.cfg)
			authenticate(msg, attackerRing, nc.cfg.N)
			wire := msg.Marshal(nil)
			if len(wire) > 2 {
				wire[rng.Intn(len(wire))] ^= byte(1 + rng.Intn(255))
			}
			if decoded, err := message.Decode(wire); err == nil {
				target := types.NodeID(rng.Intn(3))
				nc.queue = append(nc.queue, clusterEvent{fromNode: attacker, toNode: target, nodeDst: true, frame: frameOf(decoded)})
			}
		case 3: // forged client request from the faulty node (bad signature)
			req := &message.Request{
				Client: types.ClientID(3 + rng.Intn(2)),
				ID:     types.RequestID(rng.Intn(5)),
				Op:     []byte("forged"),
				Sig:    make([]byte, 64),
			}
			rng.Read(req.Sig)
			p := &message.Propagate{Req: *req, Node: attacker}
			p.Auth = attackerRing.AuthenticatorForNodes(nc.cfg.N, p.Body())
			target := types.NodeID(rng.Intn(3))
			nc.queue = append(nc.queue, clusterEvent{fromNode: attacker, toNode: target, nodeDst: true, frame: frameOf(p)})
		}
		nc.runFor(5 * time.Millisecond)
	}
	nc.runFor(300 * time.Millisecond)

	// (a) identical execution sequences on all correct nodes.
	for n := 1; n < 3; n++ {
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(n)]) {
			t.Fatalf("seed %d: node %d executed a different sequence", seed, n)
		}
	}
	// (b) nothing forged executed: counters only moved for clients 1 and 2.
	for _, a := range nc.apps[:3] {
		if a.Total(3) != 0 || a.Total(4) != 0 {
			t.Fatalf("seed %d: forged request executed", seed)
		}
	}
	// The attacker's traffic stays below the flood threshold, so every
	// message it sent was judged on its content, none dropped at a closed
	// NIC.
	for _, c := range nc.nicCloses {
		if c.Peer == attacker {
			t.Fatalf("seed %d: the attacker's NIC was closed; its later messages went unjudged", seed)
		}
	}
	// (c) all legitimate requests eventually completed.
	done := len(nc.completed[1]) + len(nc.completed[2])
	if done != legit {
		t.Fatalf("seed %d: %d of %d legitimate requests completed", seed, done, legit)
	}
}

// randomProtocolMessage builds a structurally plausible instance message
// with adversarial field values.
func randomProtocolMessage(rng *rand.Rand, from types.NodeID, cfg types.Config) message.Message {
	inst := types.InstanceID(rng.Intn(cfg.Instances() + 1)) // may be out of range
	view := types.View(rng.Intn(3))
	seq := types.SeqNum(rng.Intn(20))
	var digest types.Digest
	rng.Read(digest[:])
	refs := make([]types.RequestRef, rng.Intn(3))
	for i := range refs {
		refs[i] = types.RequestRef{
			Client: types.ClientID(rng.Intn(4)),
			ID:     types.RequestID(rng.Intn(10)),
			Digest: digest,
		}
	}
	switch rng.Intn(6) {
	case 0:
		return &message.PrePrepare{Instance: inst, View: view, Seq: seq, Batch: refs, Node: from}
	case 1:
		return &message.Prepare{Instance: inst, View: view, Seq: seq, Digest: digest, Node: from}
	case 2:
		return &message.Commit{Instance: inst, View: view, Seq: seq, Digest: digest, Node: from}
	case 3:
		return &message.Checkpoint{Instance: inst, Seq: seq, Digest: digest, Node: from}
	case 4:
		return &message.InstanceChange{CPI: uint64(rng.Intn(3)), Node: from}
	default:
		vc := &message.ViewChange{Instance: inst, NewView: view, StableSeq: seq, Node: from}
		vc.Sig = make([]byte, 64)
		rng.Read(vc.Sig)
		return vc
	}
}

// authenticate attaches a valid MAC authenticator where the type carries one.
func authenticate(msg message.Message, ring *crypto.KeyRing, n int) {
	switch m := msg.(type) {
	case *message.PrePrepare:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.Prepare:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.Commit:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.Checkpoint:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.InstanceChange:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.Propagate:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.NewView:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.Fetch:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	case *message.FetchResp:
		m.Auth = ring.AuthenticatorForNodes(n, m.Body())
	}
}

// TestEquivocatingClientDoesNotDiverge: a faulty client sends two different
// operations under the same request id to different nodes — as single
// requests, and as two bundles whose ids overlap. At most one may execute per
// id, and all correct nodes must agree which.
func TestEquivocatingClientDoesNotDiverge(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	// Client 2 signs ids 1–4 (+1 each) and, differently, ids 3–6 (+9 each).
	ring2 := nc.ks.ClientRing(2)
	nc.client(2) // quiescence is checked for registered clients
	plus := func(v byte, n int) [][]byte {
		ops := make([][]byte, n)
		for i := range ops {
			ops[i] = []byte{0, 0, 0, 0, 0, 0, 0, v}
		}
		return ops
	}
	nc.sendFrame(2, frameOf(signBundle(ring2, nc.cfg.N, 2, 1, plus(1, 4)...)), 0, 1)
	nc.sendFrame(2, frameOf(signBundle(ring2, nc.cfg.N, 2, 3, plus(9, 4)...)), 2, 3)
	cl := nc.client(1)
	reqA := cl.NewRequest([]byte{0, 0, 0, 0, 0, 0, 0, 1}, nc.now)
	// Forge a sibling with the same id but different op, properly signed
	// (the client is faulty, so it signs both).
	reqB := &message.Request{Client: 1, ID: reqA.ID, Op: []byte{0, 0, 0, 0, 0, 0, 0, 9}}
	ring := nc.ks.ClientRing(1)
	reqB.Sig = ring.Sign(reqB.AppendSignedBody(nil, reqB.OpDigest()))
	reqB.Auth = ring.AuthenticatorForNodes(nc.cfg.N, reqB.Body())
	// A and B go to disjoint node subsets.
	for _, n := range []types.NodeID{0, 1} {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(reqA)})
	}
	for _, n := range []types.NodeID{2, 3} {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(reqB)})
	}
	nc.runFor(300 * time.Millisecond)

	for n := 1; n < nc.cfg.N; n++ {
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(n)]) {
			t.Fatalf("node %d diverged under client equivocation", n)
		}
	}
	if total := nc.apps[0].Total(1); total != 1 && total != 9 && total != 10 {
		t.Fatalf("unexpected counter %d under equivocation", total)
	}
	for i := 1; i < nc.cfg.N; i++ {
		if nc.apps[i].Total(1) != nc.apps[0].Total(1) {
			t.Fatalf("node %d counter %d != node 0 counter %d",
				i, nc.apps[i].Total(1), nc.apps[0].Total(1))
		}
		if nc.apps[i].Total(2) != nc.apps[0].Total(2) {
			t.Fatalf("bundles: node %d counter %d != node 0 counter %d",
				i, nc.apps[i].Total(2), nc.apps[0].Total(2))
		}
	}
	// Ids 1, 2 and 5, 6 have one body each; 3 and 4 execute one of their two.
	nc.requireExecutedOnce(2, 1, 6)
	if total := nc.apps[0].Total(2); total != 22 && total != 30 && total != 38 {
		t.Fatalf("bundles: counter %d is not 1+1+9+9 plus 1 or 9 for each of ids 3 and 4", total)
	}
	nc.requireQuiescent()
}
