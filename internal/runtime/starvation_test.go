package runtime

import (
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// TestTimerNotStarvedByIngressFlood pins the deadline-based timer fix in the
// apply loop: protocol ticks must fire even when the ingress queue never
// drains. While `pending` holds a slab the loop's select takes it, and the
// next iteration re-arms the timer before it could be seen to fire, so under
// a sustained flood the timer case can lose indefinitely — and inside a slab
// the loop does not reach its select at all; what serves the deadline then is
// apply itself, which fires an overdue tick ahead of the frame it was handed.
//
// The test asserts on that tick directly instead of racing a flooder against
// four live pipelines (a flood heavy enough to keep `pending` full also
// overflows memnet's inboxes, and a dropped PREPARE or COMMIT wedges the
// request whatever the timers do). It runs node 0's apply loop alone, on one
// full slab of egressMaxCoalesce frames whose latches the test releases
// itself, playing the verifier pool: the loop is inside the slab from its
// first frame to its last, so its timer cannot be seen to fire and nothing
// but apply's overdue-tick check drives the node. The batch size is far above
// the offered load, so the one dispatched request can only be ordered when
// the primary's BatchTimeout tick fires — and it must fire ahead of the one
// flood frame released after the deadline, with 61 frames of the slab still
// to come. The test cannot ask the node for its deadline while the loop owns
// it; it learns it from the node's own trace instead: the dispatch event's
// time plus BatchTimeout.
func TestTimerNotStarvedByIngressFlood(t *testing.T) {
	const batchTimeout = 5 * time.Millisecond
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("starvation-test"), cluster.N, 2)
	nr, node, net := idleRuntime(core.Config{
		Cluster: cluster, Node: 0, // the master primary in view 0
		BatchSize: 10000, BatchTimeout: batchTimeout,
	}, ks)
	trace := obs.NewFlightRecorder(0)
	node.SetTracer(trace)
	peer := net.Endpoint(NodeName(1))

	slab := make([]ingressItem, egressMaxCoalesce)
	for i := range slab {
		slab[i].ready.Add(1)
	}
	verified := func(it *ingressItem, v *message.Verified, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		it.v = v
		it.ready.Done()
	}
	nr.pending <- slab
	go nr.applyLoop(node)
	released := 0
	defer func() {
		for i := released; i < len(slab); i++ {
			slab[i].ready.Done() // let the loop out of the slab so Stop returns
		}
		nr.Stop()
	}()

	// The client's REQUEST plus node 1's PROPAGATE are the f+1 copies that
	// dispatch the request to node 0's replicas and arm the batch deadline.
	cl := client.New(client.Config{Cluster: cluster, ID: 1}, ks.ClientRing(1))
	req := cl.NewRequest([]byte("under-flood"), time.Now())
	v, err := nr.pre.PreverifyClientFrame(req.Marshal(nil), req.Client)
	verified(&slab[0], v, err)
	v, err = nr.pre.PreverifyNodeFrame(propagateFrame(ks, cluster, 1, req), 1)
	verified(&slab[1], v, err)
	released = 2

	var wake time.Time
	for start := time.Now(); wake.IsZero(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the request was never dispatched, so no batch deadline is armed")
		}
		for _, ev := range trace.Events() {
			if ev.Type == obs.EvRequestDispatched {
				wake = ev.At.Add(batchTimeout)
			}
		}
	}
	time.Sleep(time.Until(wake) + time.Millisecond)

	// The rest of the slab is the flood: garbage from an unknown client,
	// rejected by preverify, worth nothing to the protocol. One frame of it is
	// released; the loop then waits on the next.
	_, rej := nr.pre.PreverifyClientFrame([]byte("garbage"), 60)
	for i := 2; i < len(slab); i++ {
		slab[i].from, slab[i].err = clientEndpoint(60), rej
	}
	slab[2].ready.Done()
	released = 3

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
