package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/transport"
	"rbft/internal/transport/memnet"
	"rbft/internal/types"
)

// idleRuntime wires cfg.Node's runtime to a fresh memnet the way
// StartNodeOpts does, but starts none of its loops: a test starts the ones it
// wants (wg.Add first for readLoop and verifyLoop) and plays the others
// itself, with the node it is handed. Stop works once applyLoop runs.
func idleRuntime(cfg core.Config, ks *crypto.KeyStore) (*NodeRuntime, *core.Node, *memnet.Network) {
	node := core.New(cfg, ks.NodeRing(cfg.Node))
	net := memnet.NewNetwork()
	nr := &NodeRuntime{
		cluster: cfg.Cluster, tr: net.Endpoint(NodeName(cfg.Node)), pre: node.Preverifier(),
		peers: cfg.Cluster.OtherNodes(cfg.Node), sp: obs.Nop{}, closed: make([]atomic.Int64, cfg.Cluster.N),
		work:    make(chan *ingressItem, ingressQueueDepth),
		pending: make(chan []ingressItem, ingressQueueDepth/egressMaxCoalesce),
		calls:   make(chan func(*core.Node)), parked: make(chan *core.Node, 1),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	nr.eg = newEgress(nr.tr, nil, NodeName(cfg.Node), nil, nr.stop)
	return nr, node, net
}

// propagateFrame is node from's authenticated PROPAGATE of req.
func propagateFrame(ks *crypto.KeyStore, cluster types.Config, from types.NodeID, req *message.Request) []byte {
	p := &message.Propagate{Req: *req, Node: from}
	var buf [message.MaxBodySize]byte
	p.Auth = ks.NodeRing(from).AuthenticatorForNodes(cluster.N, p.AppendBody(buf[:0], req.OpDigest()))
	return p.Marshal(nil)
}

// nextPropagate reads ep until a PROPAGATE arrives and returns the request it
// carries.
func nextPropagate(t *testing.T, ep transport.Transport) types.RequestKey {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case pkt := <-ep.Packets():
			if msg, err := message.Decode(pkt.Data); err == nil {
				if p, ok := msg.(*message.Propagate); ok {
					return types.RequestKey{Client: p.Req.Client, ID: p.Req.ID}
				}
			}
		case <-deadline:
			t.Fatal("no PROPAGATE arrived")
		}
	}
}

// TestIngressSlabKeepsArrivalOrder queues six frames on a node's endpoint
// before its reader runs. The reader must hand the apply loop ONE slab holding
// the five that are attributable, in arrival order; the apply loop must then
// feed them to the node in that order, the rejected one in its place.
//
// Order is observed through the flood defence: node 1 has already sent one
// invalid frame short of core.FloodThreshold, so its garbage frame closes node
// 1's NIC, node 1's PROPAGATE ahead of it is adopted (the node forwards it)
// and the one behind it is dropped.
func TestIngressSlabKeepsArrivalOrder(t *testing.T) {
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("slab-test"), cluster.N, 3)
	nr, node, net := idleRuntime(core.Config{
		Cluster: cluster, Node: 3, // primary of no instance in view 0: it orders nothing
		BatchSize: 10000,
	}, ks)
	peer1, peer2 := net.Endpoint(NodeName(1)), net.Endpoint(NodeName(2))
	stranger, client2 := net.Endpoint("router/7"), net.Endpoint(ClientName(2))

	now := time.Now()
	cl1 := client.New(client.Config{Cluster: cluster, ID: 1}, ks.ClientRing(1))
	cl2 := client.New(client.Config{Cluster: cluster, ID: 2}, ks.ClientRing(2))
	reqA, reqB := cl1.NewRequest([]byte("ahead"), now), cl1.NewRequest([]byte("behind"), now)
	reqC, reqD := cl2.NewRequest([]byte("first"), now), cl2.NewRequest([]byte("second"), now)
	frameA, frameB := propagateFrame(ks, cluster, 1, reqA), propagateFrame(ks, cluster, 1, reqB)
	garbage := []byte("garbage")
	to := NodeName(3)
	if err := peer1.SendBatch(to, [][]byte{frameA, garbage, frameB}); err != nil {
		t.Fatal(err)
	}
	for _, send := range []struct {
		ep    *memnet.Endpoint
		frame []byte
	}{{stranger, frameA}, {client2, reqC.Marshal(nil)}, {client2, reqD.Marshal(nil)}} {
		if err := send.ep.Send(to, send.frame); err != nil {
			t.Fatal(err)
		}
	}

	nr.wg.Add(2)
	go nr.verifyLoop()
	go nr.readLoop()
	var slab []ingressItem
	select {
	case slab = <-nr.pending:
	case <-time.After(5 * time.Second):
		t.Fatal("the reader produced no slab")
	}
	if len(slab) != 5 {
		t.Fatalf("slab holds %d items, want the 5 attributable frames of one drain", len(slab))
	}
	for i, want := range [][]byte{frameA, garbage, frameB} {
		if it := &slab[i]; it.from != nodeEndpoint(1) || string(it.data) != string(want) {
			t.Fatalf("slab[%d] is not node 1's frame %d", i, i)
		}
	}
	for i, req := range []*message.Request{reqC, reqD} {
		if it := &slab[3+i]; it.from != clientEndpoint(2) || string(it.data) != string(req.Marshal(nil)) {
			t.Fatalf("slab[%d] is from %+v, want client 2's REQUEST %d", 3+i, it.from, i)
		}
	}

	_, invalid := node.Preverifier().PreverifyNodeFrame(garbage, 1)
	for i := 1; i < core.FloodThreshold; i++ {
		if out := node.OnRejected(invalid, time.Now()); len(out.NICCloses) != 0 {
			t.Fatalf("node 1's NIC closed after %d invalid frames, want %d", i, core.FloodThreshold)
		}
	}
	nr.pending <- slab
	go nr.applyLoop(node)
	defer nr.Stop()
	// Node 3 forwards what it adopts, in the order it adopted it.
	if got, want := nextPropagate(t, peer2), (types.RequestKey{Client: 1, ID: reqA.ID}); got != want {
		t.Fatalf("first PROPAGATE is of %+v, want %+v: the frame ahead of the rejected one", got, want)
	}
	if got, want := nextPropagate(t, peer2), (types.RequestKey{Client: 2, ID: reqC.ID}); got != want {
		t.Fatalf("second PROPAGATE is of %+v, want %+v: the frame behind the rejected one must have met a closed NIC", got, want)
	}
	if got, want := nextPropagate(t, peer2), (types.RequestKey{Client: 2, ID: reqD.ID}); got != want {
		t.Fatalf("third PROPAGATE is of %+v, want %+v", got, want)
	}
}
