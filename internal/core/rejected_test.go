package core

import (
	"slices"
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// TestOnRejectedCountsAndReacts takes one frame of each rejection kind through
// each NIC of node 0 — real bytes through the preverifier, the rejection
// straight into OnRejected — and pins the counter and the three reactions: a
// client is blacklisted only by a bad signature on its own frame, only a node's
// frame counts towards a flood closure, and a node that is Silent, or that has
// closed the peer's NIC, neither reacts nor counts.
func TestOnRejectedCountsAndReacts(t *testing.T) {
	const (
		sender   = types.ClientID(1) // sends every client-NIC frame
		named    = types.ClientID(2) // the client a wrong-sender frame names
		peer     = types.NodeID(1)   // sends every node-NIC frame
		impostor = types.NodeID(2)   // the node a wrong-sender frame names
	)
	nc := newNodeCluster(t, 1, nil)
	resign := func(req *message.Request) *message.Request {
		req.Auth = nc.ks.ClientRing(req.Client).AuthenticatorForNodes(nc.cfg.N, req.Body())
		return req
	}
	request := func(c types.ClientID, mangle func(*message.Request)) []byte {
		req := nc.client(c).NewRequest([]byte("op"), nc.now)
		mangle(req)
		return frameOf(req)
	}
	instanceChange := func(claims types.NodeID, mangle func(*message.InstanceChange)) []byte {
		ic := &message.InstanceChange{CPI: 1, Node: claims}
		ic.Auth = nc.ks.NodeRing(peer).AuthenticatorForNodes(nc.cfg.N, ic.Body())
		mangle(ic)
		return frameOf(ic)
	}
	forged := &message.Propagate{Node: peer, Req: message.Request{Client: sender, ID: 9, Op: []byte("forged"), Sig: make([]byte, 64)}}
	forged.Auth = nc.ks.NodeRing(peer).AuthenticatorForNodes(nc.cfg.N, forged.Body())

	frames := []struct {
		fromClient bool
		kind       message.FailKind
		frame      []byte
	}{
		{true, message.FailMalformed, []byte{0xff, 1, 2, 3}},
		{true, message.FailWrongSender, request(named, func(*message.Request) {})},
		{true, message.FailBadMAC, request(sender, func(r *message.Request) { r.Auth.Entry(0)[0] ^= 0xff })},
		{true, message.FailBadSig, request(sender, func(r *message.Request) { r.Sig[0] ^= 0xff; resign(r) })},
		{false, message.FailMalformed, frameOf(&message.Invalid{Node: peer, Padding: make([]byte, 16)})},
		{false, message.FailWrongSender, instanceChange(impostor, func(*message.InstanceChange) {})},
		{false, message.FailBadMAC, instanceChange(peer, func(ic *message.InstanceChange) { ic.Auth.Entry(0)[0] ^= 0xff })},
		{false, message.FailBadSig, frameOf(forged)},
	}
	states := []struct {
		name   string
		reacts bool // to a client frame
		counts bool // a node frame
		setup  func(*Node)
	}{
		{"open", true, true, func(*Node) {}},
		{"peer NIC closed", true, false, func(n *Node) { n.closedUntil[peer] = nc.now.Add(time.Second) }},
		{"silent", false, false, func(n *Node) { n.SetBehavior(Behavior{Silent: true}) }},
	}
	for _, st := range states {
		for _, f := range frames {
			nic := "node"
			if f.fromClient {
				nic = "client"
			}
			t.Run(st.name+"/"+nic+"/"+f.kind.String(), func(t *testing.T) {
				n := New(Config{Cluster: nc.cfg, Node: 0}, nc.ks.NodeRing(0))
				reg := obs.NewRegistry()
				n.SetRegistry(reg)
				st.setup(n)

				var err error
				if f.fromClient {
					_, err = n.Preverifier().PreverifyClientFrame(f.frame, sender)
				} else {
					_, err = n.Preverifier().PreverifyNodeFrame(f.frame, peer)
				}
				if err == nil {
					t.Fatal("the preverifier accepted the frame")
				}
				out := n.OnRejected(err, nc.now)

				reacted := st.reacts
				if !f.fromClient {
					reacted = st.counts
				}
				for k := message.FailMalformed; k <= message.FailBadSig; k++ {
					want := uint64(0)
					if reacted && k == f.kind {
						want = 1
					}
					if got := reg.Counter(obs.LabeledName("rbft_frames_rejected_total", "kind", k.String())).Value(); got != want {
						t.Errorf("rbft_frames_rejected_total{kind=%s} = %d, want %d", k, got, want)
					}
				}
				if got, want := n.client(sender, nc.now).blacklisted, reacted && f.fromClient && f.kind == message.FailBadSig; got != want {
					t.Errorf("sending client blacklisted = %v, want %v", got, want)
				}
				if n.client(named, nc.now).blacklisted {
					t.Error("the client a frame merely names was blacklisted")
				}
				wantFlood := 0
				if reacted && !f.fromClient {
					wantFlood = 1
				}
				want := make([]int, nc.cfg.N)
				want[peer] = wantFlood
				if !slices.Equal(n.floodCounts, want) {
					t.Errorf("flood counts = %v, want %d for node %d and nothing else", n.floodCounts, wantFlood, peer)
				}
				if len(out.NodeMsgs)+len(out.ClientMsgs)+len(out.NICCloses) != 0 {
					t.Errorf("one rejected frame produced output: %+v", out)
				}
			})
		}
	}
}
