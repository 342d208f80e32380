package core

import (
	"encoding/binary"
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// The faulty peer's stream is a sequence of fixed-size steps: an operation
// byte, an instance byte, two numbers x and y drawn over all of uint64 (the
// view or cpi, and the sequence number), and a byte d that picks a digest and
// the request refs a message carries. A short final step reads zeros.
const (
	opTick = iota
	opPropagate
	opPrePrepare
	opPrepare
	opCommit
	opCheckpoint
	opViewChange
	opNewView
	opFetch
	opFetchResp
	opInstanceChange
	opInvalid
	opPeersVote
	opForgedPropagate
	numOps

	stepSize = 1 + 1 + 8 + 8 + 1
)

// faultyStep encodes one step of the stream.
func faultyStep(op, inst byte, x, y uint64, d byte) []byte {
	b := []byte{op, inst}
	b = binary.LittleEndian.AppendUint64(b, x)
	b = binary.LittleEndian.AppendUint64(b, y)
	return append(b, d)
}

// FuzzFaultyPeer feeds one correct node (node 0 of a four-node cluster) what
// a faulty peer, node 3, can send it: well-formed messages of every node-NIC
// type, authenticated with node 3's keys — its PROPAGATEs carry genuine
// client requests, its VIEW-CHANGEs its own signature — interleaved with
// Ticks and with rounds of the correct peers' votes, which move the node
// through instance and view changes (with a vote of node 3's: three nodes
// make a quorum). Each goes through the node's real Preverifier. After every
// step the entries of the node's per-peer, per-view and per-sequence tables,
// core's and each replica's (pbft.Instance.Footprint), must stay under a
// bound set by N, the watermark window W and the checkpoint interval, plus
// the genuine requests the peer can relay or name, each one record of the
// node's one request store however many replicas hold state in it: what one
// peer makes a correct node keep does not grow with what it sends. And every request body the node
// keeps hashes to its ref's digest, though the peer relays genuine headers
// over operations it changed, MAC'd over the genuine digest, to a node whose
// verifier has seen the genuine REQUEST. The seed corpus holds an
// ascending-view VIEW-CHANGE stream and an ascending-cpi INSTANCE-CHANGE
// stream, so plain `go test` fails if either vote store grows per view or per
// cpi again, and a stream with every op, forged PROPAGATEs included.
func FuzzFaultyPeer(f *testing.F) {
	var views, cpis, mixed []byte
	for i := uint64(1); i <= 100; i++ {
		views = append(views, faultyStep(opViewChange, 0, i, 0, 0)...)
		cpis = append(cpis, faultyStep(opInstanceChange, 0, i, 0, 0)...)
	}
	// Node 3 votes far ahead and sends a VIEW-CHANGE(3) with a proof beyond
	// the window; four rounds take node 0 to view 4, the new primary of
	// instance 1 in view 3 and of instance 0 in view 4.
	rounds := append(faultyStep(opInstanceChange, 0, 1000, 0, 0), faultyStep(opViewChange, 1, 3, 1000, 1)...)
	for range 4 {
		rounds = append(rounds, faultyStep(opPeersVote, 0, 0, 0, 0)...)
	}
	for op := byte(0); op < numOps; op++ {
		for inst := byte(0); inst < 3; inst++ {
			mixed = append(mixed, faultyStep(op, inst, uint64(op)*3+uint64(inst), uint64(inst)*4, op)...)
		}
	}
	f.Add(views)
	f.Add(cpis)
	f.Add(mixed)
	f.Add(rounds)
	f.Add(faultyStep(opInstanceChange, 0, ^uint64(0), 0, 0))

	const (
		attacker = types.NodeID(3)
		window   = 16
		interval = 4
	)
	cfg := types.NewConfig(1)
	ks := crypto.NewInsecureFastKeyStore([]byte("faulty-peer"), cfg.N, 3) // the bound, not the crypto, is under test
	ring := ks.NodeRing(attacker)
	// The genuine requests the peer can relay: four from each of two clients.
	var pool []*message.Request
	for c := types.ClientID(1); c <= 2; c++ {
		cl := client.New(client.Config{Cluster: cfg, ID: c}, ks.ClientRing(c))
		for range 4 {
			pool = append(pool, cl.NewRequest([]byte{byte(c)}, time.Unix(0, 0)))
		}
	}
	refs := func(d byte) []types.RequestRef {
		batch := make([]types.RequestRef, int(d)%3)
		for i := range batch {
			req := pool[(int(d)+i)%len(pool)]
			batch[i] = types.RequestRef{Client: req.Client, ID: req.ID, Digest: req.OpDigest()}
		}
		return batch
	}
	instances, log := cfg.Instances(), 3*window // log: pbft's ring of (retainDeliveredFactor+1)·W slots
	bound := len(pool) + 2 + 3*cfg.N + instances*(log+log/interval+cfg.N)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := New(Config{
			Cluster: cfg, Node: 0, BatchSize: 4, BatchTimeout: time.Millisecond,
			CheckpointInterval: interval, WatermarkWindow: window,
		}, ks.NodeRing(0))
		now := time.Unix(0, 0)
		for step := 0; len(data) > 0; step++ {
			var b [stepSize]byte
			data = data[copy(b[:], data):]
			op, inst, d := b[0]%numOps, types.InstanceID(int(b[1])%(instances+1)), b[18]
			x, y := binary.LittleEndian.Uint64(b[2:]), types.SeqNum(binary.LittleEndian.Uint64(b[10:]))
			digest := types.Digest{d}
			var msg message.Message
			switch op {
			case opTick:
				now = now.Add(time.Duration(x % uint64(2*time.Second)))
				n.Tick(now)
			case opPropagate:
				msg = &message.Propagate{Req: *pool[int(d)%len(pool)], Node: attacker}
			case opPrePrepare:
				msg = &message.PrePrepare{Instance: inst, View: types.View(x), Seq: y, Batch: refs(d), Node: attacker}
			case opPrepare:
				msg = &message.Prepare{Instance: inst, View: types.View(x), Seq: y, Digest: digest, Node: attacker}
			case opCommit:
				msg = &message.Commit{Instance: inst, View: types.View(x), Seq: y, Digest: digest, Node: attacker}
			case opCheckpoint:
				msg = &message.Checkpoint{Instance: inst, Seq: y, Digest: digest, Node: attacker}
			case opViewChange, opNewView:
				vc := &message.ViewChange{Instance: inst, NewView: types.View(x), StableSeq: types.SeqNum(d), Node: attacker}
				if d%2 == 1 {
					vc.Prepared = []message.PreparedProof{{Seq: y, View: types.View(x) - 1, Digest: digest, Batch: refs(d)}}
				}
				vc.Sig = ring.Sign(vc.Body())
				msg = vc
				if op == opNewView { // the peer can sign only its own VIEW-CHANGE
					nv := &message.NewView{Instance: inst, View: vc.NewView, Node: attacker}
					for range int(d) % 4 {
						nv.ViewChanges = append(nv.ViewChanges, *vc)
					}
					msg = nv
				}
			case opFetch:
				msg = &message.Fetch{Instance: inst, FromSeq: types.SeqNum(x), ToSeq: y, Node: attacker}
			case opFetchResp:
				msg = &message.FetchResp{Instance: inst, Seq: y, View: types.View(x), Batch: refs(d), Node: attacker}
			case opInstanceChange:
				msg = &message.InstanceChange{CPI: x, Node: attacker}
			case opInvalid:
				msg = &message.Invalid{Node: attacker, Padding: make([]byte, d)}
			case opForgedPropagate: // the client's REQUEST reaches a verifier; node 3's forged copy is applied first
				req := pool[int(d)%len(pool)]
				if _, err := n.Preverifier().PreverifyClientFrame(frameOf(req), req.Client); err != nil {
					t.Fatalf("step %d: genuine request rejected: %v", step, err)
				}
				onNodeFrame(n, propagateOver(ring, cfg.N, attacker, withOp(req, 0, []byte{byte(x)}), req.OpDigest()), attacker, now)
			case opPeersVote: // nodes 1 and 2 vote for the node's cpi, then view-change with it
				for _, peer := range []types.NodeID{1, 2} {
					ic := &message.InstanceChange{CPI: n.CPI(), Node: peer}
					authenticate(ic, ks.NodeRing(peer), cfg.N)
					onNodeMessage(n, ic, peer, now)
				}
				for _, peer := range []types.NodeID{1, 2} {
					for i := range instances {
						vc := &message.ViewChange{Instance: types.InstanceID(i), NewView: n.View(), Node: peer}
						vc.Sig = ks.NodeRing(peer).Sign(vc.Body())
						onNodeMessage(n, vc, peer, now)
					}
				}
			}
			if msg != nil {
				authenticate(msg, ring, cfg.N)
				onNodeMessage(n, msg, attacker, now)
			}
			if size := faultyPeerFootprint(n); size > bound {
				t.Fatalf("step %d (op %d): node keeps %d entries, bound %d", step, op, size, bound)
			}
			if r := forgedBody(n); r != nil {
				t.Fatalf("step %d (op %d): node keeps client %d's request %d with an operation that does not hash to its digest", step, op, r.ref.Client, r.ref.ID)
			}
		}
	})
}

// faultyPeerFootprint sums the entries of the node's tables that peers'
// messages fill: request records (the replicas' per-request state
// included), clients, instance-change votes, flood state, and each replica's
// Footprint.
func faultyPeerFootprint(n *Node) int {
	size := len(n.table.clients) + len(n.icVotes) + len(n.floodCounts) + len(n.closedUntil)
	for _, r := range n.pending {
		for ; r != nil; r = r.sibling {
			size++
		}
	}
	for _, r := range n.replicas {
		size += r.Footprint()
	}
	return size
}
