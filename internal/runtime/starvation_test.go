package runtime

import (
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/transport/memnet"
	"rbft/internal/types"
)

// TestTimerNotStarvedByIngressFlood pins the deadline-based timer fix in the
// apply loop: protocol ticks must fire even when the ingress queue never
// drains. While `pending` holds a frame the loop's select takes it, and the
// next iteration re-arms the timer before it could be seen to fire, so under
// a sustained flood the timer case can lose indefinitely; what serves the
// deadline then is apply itself, which fires an overdue tick ahead of the
// frame it was handed.
//
// The test asserts on that tick directly instead of racing a flooder against
// four live pipelines (a flood heavy enough to keep `pending` full also
// overflows memnet's inboxes, and a dropped PREPARE or COMMIT wedges the
// request whatever the timers do). It runs node 0's runtime without its
// loops, so no timer exists and nothing but the calls to apply below drives
// the node. The batch size is far above the offered load, so the one
// dispatched request can only be ordered when the primary's BatchTimeout tick
// fires — and the only thing left to fire it is the overdue-tick check in
// front of one flood frame.
func TestTimerNotStarvedByIngressFlood(t *testing.T) {
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("starvation-test"), cluster.N, 2)
	node := core.New(core.Config{
		Cluster: cluster, Node: 0, // the master primary in view 0
		BatchSize: 10000, BatchTimeout: 5 * time.Millisecond,
	}, ks.NodeRing(0))

	net := memnet.NewNetwork()
	peer := net.Endpoint(NodeName(1))
	stop := make(chan struct{})
	nr := &NodeRuntime{
		cluster: cluster, tr: net.Endpoint(NodeName(0)), pre: node.Preverifier(),
		peers: cluster.OtherNodes(0), node: node, sp: obs.Nop{}, stop: stop,
	}
	nr.eg = newEgress(nr.tr, nil, NodeName(0), nil, stop)
	defer func() { close(stop); nr.eg.wait() }()

	verified := func(v *message.Verified, err error) *ingressItem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return &ingressItem{v: v}
	}
	// The client's REQUEST plus node 1's PROPAGATE are the f+1 copies that
	// dispatch the request to node 0's replicas and arm the batch deadline.
	cl := client.New(client.Config{Cluster: cluster, ID: 1}, ks.ClientRing(1))
	req := cl.NewRequest([]byte("under-flood"), time.Now())
	nr.apply(verified(nr.pre.PreverifyClientFrame(req.Marshal(nil), req.Client)))
	p := &message.Propagate{Req: *req, Node: 1}
	var buf [message.MaxBodySize]byte
	p.Auth = ks.NodeRing(1).AuthenticatorForNodes(cluster.N, p.AppendBody(buf[:0], req.OpDigest()))
	nr.apply(verified(nr.pre.PreverifyNodeFrame(p.Marshal(nil), 1)))

	wake := node.NextWake()
	if wake.IsZero() {
		t.Fatal("dispatching the request armed no batch deadline")
	}
	time.Sleep(time.Until(wake) + time.Millisecond)

	// One frame of the flood: garbage from an unknown client, rejected by
	// preverify, worth nothing to the protocol.
	_, rej := nr.pre.PreverifyClientFrame([]byte("garbage"), 60)
	nr.apply(&ingressItem{fromClient: true, client: 60, err: rej})

	deadline := time.After(5 * time.Second)
	for {
		select {
		case pkt := <-peer.Packets():
			if msg, err := message.Decode(pkt.Data); err == nil && msg.MsgType() == message.TypePrePrepare {
				return
			}
		case <-deadline:
			t.Fatal("the overdue batch deadline did not fire ahead of a queued frame")
		}
	}
}
